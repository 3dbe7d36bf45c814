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

from typing import List

import numpy as np

from repro.workloads.base import Phase, RequestSpec, Stage
from repro.workloads.util import Jit, PhaseDef, materialize

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


class RubisWorkload:
    """Generator for RUBiS auction-site interactions."""

    name = "rubis"
    sampling_period_us = 100.0
    window_instructions = 100_000
    kinds = tuple(i[0] for i in INTERACTION_MIX)

    def sample_request(self, rng: np.random.Generator, request_id: int) -> RequestSpec:
        mix = np.array([i[1] for i in INTERACTION_MIX])
        idx = int(rng.choice(len(INTERACTION_MIX), p=mix / mix.sum()))
        kind, _, components, _, _ = INTERACTION_MIX[idx]
        category = int(rng.integers(20))
        head, comp_pairs, tail = interaction_segments(idx)

        web_in = materialize(rng, head)

        ejb_phases: List[Phase] = []
        for comp_def, gc_def in comp_pairs:
            ejb_phases.extend(materialize(rng, (comp_def,)))
            if rng.random() < GC_PROBABILITY:
                ejb_phases.extend(materialize(rng, (gc_def,)))

        tail_phases = materialize(rng, tail)
        db_phases = tail_phases[:2]
        render = tail_phases[2:3]
        web_out = tail_phases[3:4]

        stages = (
            Stage(tier="tomcat", phases=tuple(web_in)),
            Stage(tier="jboss", phases=tuple(ejb_phases)),
            Stage(tier="mysql", phases=tuple(db_phases)),
            Stage(tier="jboss_render", phases=tuple(render)),
            Stage(tier="tomcat_out", phases=tuple(web_out)),
        )
        return RequestSpec(
            request_id=request_id,
            app=self.name,
            kind=kind,
            stages=stages,
            metadata={"category": category, "components": components},
        )

