"""Scalar reference generators: the oracle for block-stamping generation.

One class per server application, drawing requests the way the
generators did before block stamping: the scalar jitter chain
(:func:`jittered` / :func:`jittered_int`, one normal per jittered
field), kind and catalog picks through ``Generator.choice``, and frozen
``Phase``/``Stage``/``RequestSpec`` dataclasses built one phase at a
time by :func:`materialize`.  Both paths consume the same phase-def
tables from the application modules, so only the drawing and stamping
machinery differs.

The production generators must stay draw-for-draw identical to these:
``tests/workloads/test_genfast.py`` compares specs and RNG state, and
``tests/kernel/test_engine_golden.py::test_reference_generators`` drives
the simulator to the golden digests with them.  Each class has the same
``build(rng, request_id, kind)`` entry point as its production
counterpart: ``sample_request`` draws the kind, then calls ``build``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.workloads.base import Phase, RequestSpec, Stage, single_stage
from repro.workloads.rubis import GC_PROBABILITY, INTERACTION_MIX, interaction_segments
from repro.workloads.tpcc import (
    NEW_ORDER_HEAD,
    TRANSACTION_MIX,
    new_order_body_defs,
    transaction_phase_defs,
)
from repro.workloads.tpch import QUERY_PLANS, query_phase_defs
from repro.workloads.util import Jit, phase
from repro.workloads.webserver import FILE_CLASSES, file_fingerprint, request_phase_defs
from repro.workloads.webwork import NUM_PROBLEMS, problem_phase_defs


def jittered(rng: np.random.Generator, value: float, frac: float) -> float:
    """Multiplicatively jitter ``value`` by a ~N(0, frac) factor.

    Floored at half the nominal value so rare large negative draws cannot
    produce non-positive rates.
    """
    return max(0.5 * value, value * (1.0 + frac * rng.standard_normal()))


def jittered_int(rng: np.random.Generator, value: float, frac: float, lo: int = 1000) -> int:
    """Jittered instruction count, floored to a sane minimum."""
    return max(lo, int(round(jittered(rng, value, frac))))


def materialize(rng: np.random.Generator, defs) -> list:
    """Scalar reference materializer: defs -> jittered ``Phase`` list.

    Draw order per def is pinned to (instructions, cpi, refs?), the
    order :class:`~repro.workloads.genfast.PhaseBlock` replays with one
    block draw.
    """
    phases = []
    for d in defs:
        ins = jittered_int(rng, d.instructions, d.ins_frac)
        cpi = jittered(rng, d.cpi, d.cpi_frac)
        refs = d.refs
        if type(refs) is Jit:
            refs = jittered(rng, refs.base, refs.frac)
        phases.append(
            phase(
                d.name,
                ins,
                cpi=cpi,
                refs=refs,
                miss=d.miss,
                footprint=d.footprint,
                entry=d.entry,
                rate=d.rate,
                pool=d.pool,
            )
        )
    return phases


class WebServerWorkload:
    """Scalar Apache/SPECweb99 generator over a fixed file catalog."""

    name = "webserver"
    sampling_period_us = 10.0
    window_instructions = 10_000
    kinds = tuple(c[0] for c in FILE_CLASSES)

    files_per_class = 36
    zipf_exponent = 1.0

    def __init__(self, catalog_seed: int = 909_009):
        catalog_rng = np.random.default_rng(catalog_seed)
        self._catalog = {}
        ranks = np.arange(1, self.files_per_class + 1, dtype=float)
        weights = ranks**-self.zipf_exponent
        self._popularity = weights / weights.sum()
        for cls_name, lo, hi, _ in FILE_CLASSES:
            sizes = catalog_rng.integers(lo, hi + 1, size=self.files_per_class)
            seeds = catalog_rng.integers(1, 2**31, size=self.files_per_class)
            self._catalog[cls_name] = list(zip(sizes.tolist(), seeds.tolist()))

    def sample_request(self, rng: np.random.Generator, request_id: int) -> RequestSpec:
        mix = np.array([c[3] for c in FILE_CLASSES])
        cls_idx = int(rng.choice(len(FILE_CLASSES), p=mix / mix.sum()))
        return self.build(rng, request_id, FILE_CLASSES[cls_idx][0])

    def build(
        self, rng: np.random.Generator, request_id: int, kind: str
    ) -> RequestSpec:
        file_idx = int(rng.choice(self.files_per_class, p=self._popularity))
        file_bytes, file_seed = self._catalog[kind][file_idx]
        phases = materialize(rng, request_phase_defs(file_bytes, file_fingerprint(file_seed)))
        return RequestSpec(
            request_id=request_id,
            app=self.name,
            kind=kind,
            stages=single_stage("apache", phases),
            metadata={"file_bytes": file_bytes, "file_id": f"{kind}/{file_idx}"},
        )


class TpccWorkload:
    """Scalar TPC-C generator."""

    name = "tpcc"
    sampling_period_us = 100.0
    window_instructions = 50_000
    kinds = tuple(t[0] for t in TRANSACTION_MIX)

    def sample_request(self, rng: np.random.Generator, request_id: int) -> RequestSpec:
        mix = np.array([t[1] for t in TRANSACTION_MIX])
        kind = TRANSACTION_MIX[int(rng.choice(len(TRANSACTION_MIX), p=mix))][0]
        return self.build(rng, request_id, kind)

    def build(
        self, rng: np.random.Generator, request_id: int, kind: str
    ) -> RequestSpec:
        if kind not in self.kinds:
            raise ValueError(f"unknown transaction type {kind!r}")
        if kind == "new_order":
            phases = materialize(rng, NEW_ORDER_HEAD)
            n_items = int(rng.integers(8, 13))
            phases.extend(materialize(rng, new_order_body_defs(n_items)))
        else:
            phases = materialize(rng, transaction_phase_defs(kind))
        return RequestSpec(
            request_id=request_id,
            app=self.name,
            kind=kind,
            stages=single_stage("mysql", phases),
        )


class TpchWorkload:
    """Scalar generator for the 17-query TPC-H subset."""

    name = "tpch"
    sampling_period_us = 1_000.0
    window_instructions = 1_000_000
    kinds = tuple(QUERY_PLANS)

    def sample_request(self, rng: np.random.Generator, request_id: int) -> RequestSpec:
        kind = self.kinds[int(rng.integers(len(self.kinds)))]
        return self.build(rng, request_id, kind)

    def build(
        self, rng: np.random.Generator, request_id: int, kind: str
    ) -> RequestSpec:
        phases = materialize(rng, query_phase_defs(kind))
        return RequestSpec(
            request_id=request_id,
            app=self.name,
            kind=kind,
            stages=single_stage("mysql", phases),
        )


class RubisWorkload:
    """Scalar RUBiS generator."""

    name = "rubis"
    sampling_period_us = 100.0
    window_instructions = 100_000
    kinds = tuple(i[0] for i in INTERACTION_MIX)

    def sample_request(self, rng: np.random.Generator, request_id: int) -> RequestSpec:
        mix = np.array([i[1] for i in INTERACTION_MIX])
        idx = int(rng.choice(len(INTERACTION_MIX), p=mix / mix.sum()))
        return self.build(rng, request_id, INTERACTION_MIX[idx][0])

    def build(
        self, rng: np.random.Generator, request_id: int, kind: str
    ) -> RequestSpec:
        idx = self.kinds.index(kind)
        components = INTERACTION_MIX[idx][2]
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


class WeBWorKWorkload:
    """Scalar WeBWorK problem-rendering generator."""

    name = "webwork"
    sampling_period_us = 1_000.0
    window_instructions = 2_000_000
    kinds = tuple(f"problem_{i}" for i in range(NUM_PROBLEMS))

    def sample_request(self, rng: np.random.Generator, request_id: int) -> RequestSpec:
        problem_id = int(rng.integers(NUM_PROBLEMS))
        return self.build(rng, request_id, f"problem_{problem_id}")

    def build(
        self, rng: np.random.Generator, request_id: int, kind: str
    ) -> RequestSpec:
        problem_id = int(kind.rsplit("_", 1)[1])
        phases = materialize(rng, problem_phase_defs(problem_id))
        return RequestSpec(
            request_id=request_id,
            app=self.name,
            kind=kind,
            stages=single_stage("apache_modperl", phases),
            metadata={"problem_id": problem_id},
        )


#: The scalar reference generator of each server workload, by registry name.
REFERENCE_FACTORIES = {
    "webserver": WebServerWorkload,
    "tpcc": TpccWorkload,
    "tpch": TpchWorkload,
    "rubis": RubisWorkload,
    "webwork": WeBWorKWorkload,
}
