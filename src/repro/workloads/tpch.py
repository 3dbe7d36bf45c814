"""TPC-H decision-support queries on a MySQL-style engine.

The paper uses a 17-query subset (Q2, Q3, Q4, Q5, Q6, Q7, Q8, Q9, Q11, Q12,
Q13, Q14, Q15, Q17, Q19, Q20, Q22) over a 361 MB dataset, with an equal
proportion of each query type.  TPC-H requests are long (tens of millions of
instructions; Figure 8 shows Q20 at ~80 M) and behave uniformly over their
course — each query applies one plan to a long data sequence — which is why
TPC-H is the one application whose intra-request variation adds little over
its inter-request variation (Figure 3).  Scan-dominated phases make heavy
use of the shared L2 (large footprint), which is why multicore co-running
roughly doubles the 90-percentile request CPI (Figure 1).

Each query's full phase-def plan is a pure deterministic function of the
query kind (:func:`query_phase_defs` — the per-query fingerprint RNG is
seeded from the kind, never from the main stream), so the plan is computed
and compiled into a block-stamping template once per kind.
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
from repro.workloads.util import Jit, PhaseDef

_DB_POOL = ("pread64", "read", "lseek")

#: Operator templates: (base cpi, l2 refs/ins, miss ratio, footprint,
#: syscall rate per instruction).
_OPERATORS = {
    "scan": (0.95, 0.024, 0.35, 1.00, 1 / 6_500),
    "join": (1.20, 0.027, 0.42, 0.95, 1 / 10_000),
    "aggregate": (1.00, 0.018, 0.30, 0.88, 1 / 15_000),
    "sort": (1.10, 0.024, 0.36, 0.92, 1 / 15_000),
}

#: Query plans: query -> ordered (operator, millions of instructions).
#: Lengths are loosely scaled to the published per-query behavior at the
#: paper's dataset size (Q20 ~ 80 M instructions, Figure 8).
QUERY_PLANS = {
    "Q2": [("scan", 8), ("join", 10), ("aggregate", 5)],
    "Q3": [("scan", 22), ("join", 24), ("sort", 12)],
    "Q4": [("scan", 18), ("aggregate", 14)],
    "Q5": [("scan", 24), ("join", 30), ("aggregate", 14)],
    "Q6": [("scan", 26), ("aggregate", 6)],
    "Q7": [("scan", 22), ("join", 28), ("sort", 13)],
    "Q8": [("scan", 26), ("join", 32), ("aggregate", 15)],
    "Q9": [("scan", 40), ("join", 52), ("sort", 26)],
    "Q11": [("scan", 8), ("join", 7), ("aggregate", 5)],
    "Q12": [("scan", 22), ("join", 12), ("aggregate", 6)],
    "Q13": [("scan", 20), ("join", 24), ("aggregate", 10)],
    "Q14": [("scan", 20), ("join", 10), ("aggregate", 5)],
    "Q15": [("scan", 18), ("aggregate", 16), ("join", 10)],
    "Q17": [("scan", 34), ("join", 40), ("aggregate", 14)],
    "Q19": [("scan", 24), ("join", 20), ("aggregate", 6)],
    "Q20": [("scan", 30), ("join", 36), ("aggregate", 13)],
    "Q22": [("scan", 10), ("join", 8), ("aggregate", 6)],
}

_DEF_CACHE = {}


def query_phase_defs(kind: str) -> Tuple[PhaseDef, ...]:
    """Phase-def plan for one query kind.  Pure; no main-RNG draws.

    The per-query fingerprint is stable: each query's operators touch
    different tables and indices, so their hardware behavior differs
    deterministically across query types (what makes early online
    identification of TPCH requests possible, Figure 10).
    """
    cached = _DEF_CACHE.get(kind)
    if cached is not None:
        return cached
    plan = QUERY_PLANS[kind]
    fingerprint_rng = np.random.default_rng(1000 + int(kind[1:]))
    defs = [
        PhaseDef("parse_optimize", 400_000, 0.10, 1.10, 0.05, 0.006, 0.12, 0.20, "read")
    ]
    for step, (op, mega_ins) in enumerate(plan):
        cpi, refs, miss, footprint, rate = _OPERATORS[op]
        cpi = cpi * float(fingerprint_rng.uniform(0.95, 1.10))
        refs = refs * float(fingerprint_rng.uniform(0.82, 1.18))
        miss = min(0.9, miss * float(fingerprint_rng.uniform(0.9, 1.1)))
        # Each operator warms the buffer pool as it runs: its miss
        # ratio ramps down over three sub-spans.  This within-request
        # drift is why a whole-request average is a poor online
        # predictor of the coming period's misses (Figure 11).
        for sub, miss_factor in enumerate((1.35, 1.0, 0.72)):
            defs.append(
                PhaseDef(
                    f"{op}_{step}_{sub}", mega_ins * 1_000_000 / 3, 0.04,
                    cpi, 0.03, Jit(refs, 0.04), min(0.95, miss * miss_factor),
                    footprint, None, rate, _DB_POOL,
                )
            )
    defs.append(
        PhaseDef(
            "send_results", 300_000, 0.15, 1.00, 0.06, 0.005, 0.10, 0.10,
            "write", 1 / 30_000, ("write", "sendto"),
        )
    )
    result = tuple(defs)
    _DEF_CACHE[kind] = result
    return result


class TpchWorkload(BlockAheadGenerator):
    """Generator for the 17-query TPC-H subset."""

    name = "tpch"
    sampling_period_us = 1_000.0
    window_instructions = 1_000_000
    kinds = tuple(QUERY_PLANS)

    def _draw_kind(self, rng: np.random.Generator) -> str:
        return self.kinds[int(rng.integers(len(self.kinds)))]

    def build(
        self, rng: np.random.Generator, request_id: int, kind: str
    ) -> FastRequestSpec:
        """Stamp one request of query type ``kind``."""
        if kind not in QUERY_PLANS:
            raise self._no_kind(kind)
        block = template(("tpch", kind), lambda: phase_block(query_phase_defs(kind)))
        return FastRequestSpec(
            request_id, self.name, kind, (FastStage("mysql", block.stamp(rng)),), {}
        )
