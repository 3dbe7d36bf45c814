"""RUBiS — a three-tier J2EE online auction service.

RUBiS runs a front-end web server, nine business-logic Enterprise Java Bean
components, and a back-end MySQL database; a request propagates across all
three tiers through socket operations, which is exactly the request-context
propagation the paper's kernel tracker must follow.  The componentized
architecture also makes system calls frequent (72% probability of a syscall
within 16 us of any instant, Figure 4).  A typical request executes a few
million instructions (Figure 2 shows SearchItemsByCategory spanning ~4-5 M).

An interaction's phase plan is declarative (:func:`interaction_segments`):
a web-in head def, one (component, gc) def pair per EJB component — the GC
burst fires on a mid-plan ``rng.random() < 0.30`` draw between component
jitters, so the pairs stay separate blocks — and a fixed four-def tail
(db parse/execute, render, respond) that maps onto the remaining tiers.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.genfast import (
    BlockAheadGenerator,
    FastRequestSpec,
    FastStage,
    choice_cdf,
    phase_block,
    template,
)
from repro.workloads.util import Jit, PhaseDef

_WEB_POOL = ("read", "writev", "poll")
_EJB_POOL = ("read", "write", "futex")
_DB_POOL = ("pread64", "read", "write")

#: The nine EJB components of RUBiS.
EJB_COMPONENTS = (
    "IDManager",
    "Category",
    "Region",
    "User",
    "Item",
    "Bid",
    "Buy",
    "Comment",
    "Query",
)

#: Request kinds: (name, probability, EJB components touched,
#: DB work in mega-instructions, EJB work in mega-instructions).
INTERACTION_MIX = (
    ("BrowseCategories", 0.12, ("Category",), 0.3, 0.6),
    ("SearchItemsByCategory", 0.22, ("Category", "Item", "Query"), 1.6, 1.2),
    ("SearchItemsByRegion", 0.10, ("Region", "Item", "Query"), 1.5, 1.2),
    ("ViewItem", 0.22, ("Item", "Bid"), 0.8, 0.9),
    ("ViewUserInfo", 0.08, ("User", "Comment"), 0.7, 0.8),
    ("PutBid", 0.10, ("Item", "Bid", "User"), 0.6, 1.1),
    ("StoreBid", 0.08, ("Bid", "IDManager"), 0.9, 0.9),
    ("AboutMe", 0.08, ("User", "Item", "Bid", "Comment"), 1.8, 1.5),
)

#: Probability that a JVM GC burst follows an EJB component phase.
GC_PROBABILITY = 0.30

_SEGMENT_CACHE = {}


def interaction_segments(idx: int):
    """Segmented phase-def plan for interaction ``INTERACTION_MIX[idx]``.

    Returns ``(head, comp_pairs, tail)`` where ``head`` is the web-in def
    tuple, ``comp_pairs`` is one ``(component_def, gc_def)`` pair per EJB
    component, and ``tail`` is the fixed (db_parse, db_execute,
    ejb_render, tomcat_respond) def tuple.  Pure; no main-RNG draws.
    """
    cached = _SEGMENT_CACHE.get(idx)
    if cached is not None:
        return cached
    _, _, components, db_mega, ejb_mega = INTERACTION_MIX[idx]

    head = (
        PhaseDef(
            "tomcat_parse", 180_000, 0.12, 1.45, 0.08, 0.014, 0.22, 0.35,
            "read", 1 / 14_000, _WEB_POOL,
        ),
    )

    per_component = ejb_mega * 1_000_000 / len(components)
    comp_pairs = tuple(
        (
            PhaseDef(
                f"ejb_{component}", per_component, 0.18, 1.75, 0.10,
                Jit(0.022, 0.12), 0.26, 0.55, "read", 1 / 14_000, _EJB_POOL,
            ),
            # JIT/GC interleaving bursts typical of a JVM app server.
            PhaseDef(
                f"jvm_gc_{component}", 150_000, 0.30, 2.4, 0.15,
                0.030, 0.40, 0.70, None, 1 / 30_000, _EJB_POOL,
            ),
        )
        for component in components
    )

    tail = (
        PhaseDef(
            "db_parse", 100_000, 0.12, 1.10, 0.08, 0.006, 0.12, 0.20,
            "read", 1 / 20_000, _DB_POOL,
        ),
        PhaseDef(
            "db_execute", db_mega * 1_000_000, 0.20, 1.30, 0.08,
            Jit(0.024, 0.10), 0.38, 0.85, None, 1 / 12_000, _DB_POOL,
        ),
        PhaseDef(
            "ejb_render", 350_000, 0.15, 1.85, 0.10, 0.016, 0.24, 0.40,
            "read", 1 / 14_000, _EJB_POOL,
        ),
        PhaseDef(
            "tomcat_respond", 220_000, 0.12, 1.55, 0.08, 0.012, 0.20, 0.30,
            "writev", 1 / 14_000, _WEB_POOL,
        ),
    )

    result = (head, comp_pairs, tail)
    _SEGMENT_CACHE[idx] = result
    return result


#: Index of each interaction in :data:`INTERACTION_MIX`, by kind name.
_INTERACTION_INDEX = {i[0]: idx for idx, i in enumerate(INTERACTION_MIX)}


def _compile_segments(idx: int):
    """Interaction ``idx``'s segments as blocks, one per GC coin-flip gap."""
    head, comp_pairs, tail = interaction_segments(idx)
    return (
        phase_block(head),
        tuple((phase_block((c,)), phase_block((g,))) for c, g in comp_pairs),
        phase_block(tail),
    )


class RubisWorkload(BlockAheadGenerator):
    """Generator for RUBiS auction-site interactions."""

    name = "rubis"
    sampling_period_us = 100.0
    window_instructions = 100_000
    kinds = tuple(i[0] for i in INTERACTION_MIX)

    def __init__(self):
        super().__init__()
        mix = np.array([i[1] for i in INTERACTION_MIX])
        self._mix_cdf = choice_cdf(mix / mix.sum())

    def _draw_kind(self, rng: np.random.Generator) -> str:
        return self.kinds[int(self._mix_cdf.searchsorted(rng.random(), side="right"))]

    def build(
        self, rng: np.random.Generator, request_id: int, kind: str
    ) -> FastRequestSpec:
        """Stamp one ``kind`` interaction; draws its category and GC bursts."""
        idx = _INTERACTION_INDEX.get(kind)
        if idx is None:
            raise self._no_kind(kind)
        category = int(rng.integers(20))
        head_block, pair_blocks, tail_block = template(
            ("rubis", idx), lambda: _compile_segments(idx)
        )

        web_in = head_block.stamp(rng)
        ejb_phases = []
        for comp_block, gc_block in pair_blocks:
            ejb_phases += comp_block.stamp(rng)
            if rng.random() < GC_PROBABILITY:
                ejb_phases += gc_block.stamp(rng)
        tail_phases = tail_block.stamp(rng)

        stages = (
            FastStage("tomcat", web_in),
            FastStage("jboss", ejb_phases),
            FastStage("mysql", tail_phases[:2]),
            FastStage("jboss_render", tail_phases[2:3]),
            FastStage("tomcat_out", tail_phases[3:4]),
        )
        return FastRequestSpec(
            request_id,
            self.name,
            kind,
            stages,
            {"category": category, "components": INTERACTION_MIX[idx][2]},
        )
