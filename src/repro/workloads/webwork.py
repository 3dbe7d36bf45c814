"""WeBWorK — user-content-driven online math homework application.

WeBWorK requests interpret teacher-supplied problem scripts (the paper's
deployment has ~3,000 problem sets) and are by far the longest of the five
applications: several hundred million instructions (Figure 2 shows one at
~600 M).  Three properties from the paper shape the model:

* the early part of every request follows *identical* processing semantics
  (Apache dispatch, Perl interpreter startup, Moodle session handling) —
  this is why online signatures built from the first 10 M instructions
  cannot identify WeBWorK requests (Figure 10);
* the later portion runs through a large number of fine-grained Perl
  modules, producing unstable CPI fluctuations that do not form long stable
  phases (Figure 2);
* processing is compute-intensive with few system calls (81% probability of
  a syscall only within 1 ms, Figure 4) and a tiny shared-cache footprint,
  so multicore co-running barely affects it (Figure 1).

A problem's phase-def plan is a pure deterministic function of the problem
id (:func:`problem_phase_defs`): the problem-content RNG it consumes is
seeded from the id and independent of the main request stream, so all its
draws hoist into the producer without perturbing either bitstream.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.workloads.genfast import (
    BlockAheadGenerator,
    FastRequestSpec,
    FastStage,
    phase_block,
    template,
)
from repro.workloads.util import PhaseDef

_PERL_POOL = ("brk", "mmap", "stat")

#: Number of distinct teacher-created problem sets in the deployment.
NUM_PROBLEMS = 3_000

#: The identical prelude every request executes: (name, instructions, cpi,
#: entry syscall).  Total ~22 M instructions, beyond the 10 M prefix that
#: Figure 10 shows is insufficient for identification.
_PRELUDE = (
    ("apache_dispatch", 2_000_000, 1.15, "read"),
    ("perl_startup", 6_000_000, 1.30, "stat"),
    ("moodle_session", 5_000_000, 1.25, "open"),
    ("course_load", 6_000_000, 1.35, "read"),
    ("problem_fetch", 3_000_000, 1.20, "open"),
)

_PERL_RATE = 1 / 1_200_000

_DEF_CACHE = {}


def problem_phase_defs(problem_id: int) -> Tuple[PhaseDef, ...]:
    """Phase-def plan for one problem id.  Pure; no main-RNG draws.

    The problem script is fixed content, so requests for the same problem
    share macro structure: which modules run, their lengths and inherent
    CPIs, and where graphics bursts fall are all determined here, while
    per-request jitter stays small (applied when a request is stamped).
    """
    cached = _DEF_CACHE.get(problem_id)
    if cached is not None:
        return cached

    defs = [
        # Identical prelude (near-zero jitter: same code path every time).
        PhaseDef(name, ins, 0.01, cpi, 0.01, 0.002, 0.15, 0.05,
                 entry, _PERL_RATE, _PERL_POOL)
        for name, ins, cpi, entry in _PRELUDE
    ]

    # Problem-specific translation/compute: deterministic per problem id.
    problem_rng = np.random.default_rng(problem_id)
    n_macro = int(problem_rng.integers(5, 11))
    macro_plan = [
        (
            float(problem_rng.uniform(8e6, 30e6)),
            float(problem_rng.uniform(1.05, 1.65)),
        )
        for _ in range(n_macro)
    ]
    for step, (ins, cpi) in enumerate(macro_plan):
        defs.append(
            PhaseDef(f"translate_{step}", ins, 0.04, cpi, 0.03,
                     0.002, 0.15, 0.05, None, _PERL_RATE, _PERL_POOL)
        )

    # Unstable render tail: many fine-grained Perl-module phases.  Two
    # requests for the same problem share the same instruction stream,
    # which is what makes reference-driven anomaly analysis (Figure 9)
    # meaningful.
    n_tail = int(problem_rng.integers(35, 75))
    for step in range(n_tail):
        if problem_rng.random() < 0.12:
            # Graphics rendering burst: the one WeBWorK activity with a
            # real shared-cache footprint.
            defs.append(
                PhaseDef(
                    f"render_gfx_{step}",
                    float(problem_rng.uniform(2e6, 4e6)), 0.03, 2.3, 0.03,
                    0.012, 0.35, 0.35, None, _PERL_RATE, _PERL_POOL,
                )
            )
        else:
            defs.append(
                PhaseDef(
                    f"perl_module_{step}",
                    float(problem_rng.uniform(0.8e6, 4e6)), 0.03,
                    float(problem_rng.uniform(0.95, 2.05)), 0.03,
                    0.002, 0.15, 0.05, None, _PERL_RATE, _PERL_POOL,
                )
            )

    defs.append(
        PhaseDef("answer_save", 3_000_000, 0.10, 1.20, 0.05,
                 0.003, 0.12, 0.08, "write", 1 / 1_000_000, _PERL_POOL)
    )

    result = tuple(defs)
    _DEF_CACHE[problem_id] = result
    return result


#: Problem id of each request kind, ``"problem_<id>"`` -> id.
_PROBLEM_IDS = {f"problem_{i}": i for i in range(NUM_PROBLEMS)}


class WeBWorKWorkload(BlockAheadGenerator):
    """Generator for WeBWorK problem-rendering requests."""

    name = "webwork"
    sampling_period_us = 1_000.0
    window_instructions = 2_000_000
    kinds = tuple(_PROBLEM_IDS)

    def _draw_kind(self, rng: np.random.Generator) -> str:
        return self.kinds[int(rng.integers(NUM_PROBLEMS))]

    def build(
        self, rng: np.random.Generator, request_id: int, kind: str
    ) -> FastRequestSpec:
        """Stamp one request rendering problem ``kind`` (``problem_<id>``)."""
        problem_id = _PROBLEM_IDS.get(kind)
        if problem_id is None:
            raise self._no_kind(kind)
        block = template(
            ("webwork", problem_id),
            lambda: phase_block(problem_phase_defs(problem_id)),
        )
        return FastRequestSpec(
            request_id,
            self.name,
            kind,
            (FastStage("apache_modperl", block.stamp(rng)),),
            {"problem_id": problem_id},
        )
