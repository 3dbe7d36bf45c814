"""Tests for block-stamping generation (:mod:`repro.workloads.genfast`).

The server generators must be *draw-for-draw* indistinguishable from
the scalar reference generators in :mod:`tests.workloads.reference` —
identical spec values (every phase field, every behavior float, exact
ints) and an identical RNG state afterward, so any downstream consumer
sees the same bitstream no matter which generator produced the specs.
"""

import numpy as np
import pytest

from repro.faults.schedule import ScheduledFaultWorkload, parse_fault_schedule
from repro.hardware.cpu import PhaseBehavior
from repro.workloads.genfast import BehaviorInterner, BlockAheadGenerator
from repro.workloads.microbench import MbenchSpin
from repro.workloads.registry import (
    SERVER_APPS,
    FixedKindWorkload,
    make_faulted_workload,
    make_workload,
)
from repro.workloads.rubis import RubisWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.tpch import TpchWorkload
from repro.workloads.webserver import WebServerWorkload
from repro.workloads.webwork import WeBWorKWorkload
from tests.workloads import reference
from tests.workloads.reference import REFERENCE_FACTORIES

#: The block-stamping generator class of each server workload.
GENERATORS = {
    "webserver": WebServerWorkload,
    "tpcc": TpccWorkload,
    "tpch": TpchWorkload,
    "rubis": RubisWorkload,
    "webwork": WeBWorKWorkload,
}


def spec_fingerprint(spec):
    """Every observable field of a spec, floats exact, order preserved."""
    stages = tuple(
        (
            stage.tier,
            stage.instructions,
            tuple(stage.cumulative_instructions),
            tuple(
                (
                    p.name,
                    p.instructions,
                    p.behavior.base_cpi,
                    p.behavior.l2_refs_per_ins,
                    p.behavior.l2_miss_ratio,
                    p.behavior.cache_footprint,
                    p.entry_syscall,
                    p.syscall_rate_per_ins,
                    p.syscall_pool,
                )
                for p in stage.phases
            ),
        )
        for stage in spec.stages
    )
    return (
        spec.request_id,
        spec.app,
        spec.kind,
        spec.total_instructions,
        tuple(sorted(spec.metadata.items())),
        stages,
    )


def draw_with_state(workload, n, seed):
    rng = np.random.default_rng(seed)
    specs = [workload.sample_request(rng, i) for i in range(n)]
    return [spec_fingerprint(s) for s in specs], rng.bit_generator.state


class TestSpecEquality:
    """Stamping generators replay the reference draw sequence exactly."""

    @pytest.mark.parametrize("app", SERVER_APPS)
    @pytest.mark.parametrize("seed", (0, 7, 123))
    def test_specs_and_rng_state_match_reference(self, app, seed):
        fast, fast_state = draw_with_state(GENERATORS[app](), 25, seed)
        ref, ref_state = draw_with_state(REFERENCE_FACTORIES[app](), 25, seed)
        assert fast == ref
        # Same state afterward: stamping consumed exactly the same draws
        # in the same order, not merely equivalent values.
        assert fast_state == ref_state

    def test_webserver_respects_catalog_seed(self):
        fast, _ = draw_with_state(WebServerWorkload(catalog_seed=42), 10, 3)
        ref, _ = draw_with_state(reference.WebServerWorkload(catalog_seed=42), 10, 3)
        assert fast == ref


class TestBlockAhead:
    """``prepare_block`` + pops must equal direct synthesis."""

    @pytest.mark.parametrize("app", SERVER_APPS)
    def test_block_matches_direct_synthesis(self, app):
        direct, direct_state = draw_with_state(GENERATORS[app](), 12, 5)

        blocked_workload = GENERATORS[app]()
        rng = np.random.default_rng(5)
        blocked_workload.prepare_block(rng, 0, 12)
        blocked = [
            spec_fingerprint(blocked_workload.sample_request(rng, i))
            for i in range(12)
        ]
        assert blocked == direct
        assert rng.bit_generator.state == direct_state

    def test_block_drain_falls_back_to_direct(self):
        """A short block drains, then synthesis continues seamlessly."""
        direct, direct_state = draw_with_state(TpccWorkload(), 10, 9)

        workload = TpccWorkload()
        rng = np.random.default_rng(9)
        workload.prepare_block(rng, 0, 6)
        specs = [
            spec_fingerprint(workload.sample_request(rng, i)) for i in range(10)
        ]
        assert specs == direct
        assert rng.bit_generator.state == direct_state

    def test_stale_block_cleared_on_id_mismatch(self):
        workload = TpccWorkload()
        rng = np.random.default_rng(2)
        workload.prepare_block(rng, 0, 4)
        spec = workload.sample_request(rng, 2)  # out of order: stale block
        assert spec.request_id == 2
        assert not workload._block


class TestBehaviorInterner:
    def test_value_equal_behaviors_share_identity(self):
        interner = BehaviorInterner()
        a = interner.get(1.0, 0.1, 0.2, 0.4)
        b = interner.get(1.0, 0.1, 0.2, 0.4)
        c = interner.get(1.5, 0.1, 0.2, 0.4)
        assert a is b
        assert a is not c

    def test_interned_behavior_equals_reference_dataclass(self):
        interner = BehaviorInterner()
        behavior = interner.get(1.25, 0.05, 0.3, 0.6)
        assert behavior == PhaseBehavior(
            base_cpi=1.25, l2_refs_per_ins=0.05, l2_miss_ratio=0.3,
            cache_footprint=0.6,
        )

    def test_templates_shared_across_instances(self):
        """Compiled templates are cached per key, not per workload."""
        a, b = TpccWorkload(), TpccWorkload()
        for kind in ("payment", "order_status", "delivery", "stock_level"):
            assert a._fixed[kind] is b._fixed[kind]
        assert a._new_order_head is b._new_order_head


class TestWrapperIntegration:
    """Registry wrappers over the stamping generators draw exactly what the
    same wrappers over the reference generators draw."""

    @pytest.mark.parametrize(
        "app,kind",
        (("tpcc", "payment"), ("webserver", "class1"), ("rubis", "PutBid")),
        ids=("builder-dispatch", "in-kind-draw", "category-draw"),
    )
    def test_fixed_kind_matches_reference(self, app, kind):
        fast = FixedKindWorkload(app, kind)
        reference_workload = FixedKindWorkload(app, kind)
        reference_workload._inner = REFERENCE_FACTORIES[app]()
        assert draw_with_state(fast, 8, 4) == draw_with_state(
            reference_workload, 8, 4
        )

    def test_faulted_workload_matches_reference(self):
        fast = make_faulted_workload("tpcc", "lock_stall:0.4")
        reference_workload = ScheduledFaultWorkload(
            reference.TpccWorkload(), parse_fault_schedule("lock_stall:0.4")
        )
        fingerprints, state = draw_with_state(fast, 15, 8)
        assert (fingerprints, state) == draw_with_state(reference_workload, 15, 8)
        # The fault rate must actually fire in 15 draws at p=0.4 for the
        # comparison to exercise injected stages.
        assert any(
            ("injected_fault", "lock_stall") in fp[4] for fp in fingerprints
        )


class TestRegistryRouting:
    @pytest.mark.parametrize("app", SERVER_APPS)
    def test_default_routes_to_fast_factory(self, app):
        """The registry returns the app's one (block-stamping) class."""
        generator = type(make_workload(app))
        assert generator is GENERATORS[app]
        assert issubclass(generator, BlockAheadGenerator)

    def test_microbenchmarks_never_rerouted(self):
        workload = make_workload("mbench_spin")
        assert type(workload) is MbenchSpin
        assert not isinstance(workload, BlockAheadGenerator)
