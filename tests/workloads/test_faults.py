"""Tests for fault injection and end-to-end anomaly-detection validation."""

import numpy as np
import pytest

from repro.core.anomaly import detect_by_centroid_distance
from repro.core.distances import unequal_length_penalty
from repro.core.dtw import dtw_distance
from repro.faults.taxonomy import (
    LEGACY_FAULT_KINDS,
    inject_cache_thrash,
    inject_lock_stall,
    inject_slowdown,
)
from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.online.attribution import score_detection
from repro.workloads.registry import (
    FixedKindWorkload,
    make_faulted_workload,
    make_workload,
)


def draw(workload, n, seed=0):
    rng = np.random.default_rng(seed)
    return [workload.sample_request(rng, i) for i in range(n)]


class TestInjection:
    def test_probability_respected(self):
        w = make_faulted_workload("tpcc", "lock_stall:0.3")
        specs = draw(w, 400, seed=1)
        rate = len(w.injected_ids) / len(specs)
        assert rate == pytest.approx(0.3, abs=0.07)

    def test_zero_probability_injects_nothing(self):
        w = make_faulted_workload("tpcc", "lock_stall:0")
        draw(w, 50, seed=1)
        assert w.injected_ids == set()

    def test_lock_stall_adds_instructions(self):
        clean = make_workload("tpcc")
        faulty = make_faulted_workload("tpcc", "lock_stall:1")
        spec_clean = draw(clean, 1, seed=7)[0]
        spec_faulty = draw(faulty, 1, seed=7)[0]
        assert spec_faulty.total_instructions > spec_clean.total_instructions
        assert any(p.name == "fault_lock_stall" for p in spec_faulty.phases())
        assert spec_faulty.metadata["injected_fault"] == "lock_stall"

    def test_cache_thrash_span_properties(self):
        w = make_faulted_workload("tpcc", "cache_thrash:1")
        spec = draw(w, 1, seed=7)[0]
        span = next(p for p in spec.phases() if p.name == "fault_cache_thrash")
        assert span.behavior.l2_miss_ratio > 0.7
        assert span.behavior.cache_footprint == 1.0

    def test_slowdown_preserves_structure(self):
        clean = make_workload("rubis")
        faulty = make_faulted_workload("rubis", "slowdown:1")
        spec_clean = draw(clean, 1, seed=3)[0]
        spec_faulty = draw(faulty, 1, seed=3)[0]
        assert spec_faulty.total_instructions == spec_clean.total_instructions
        assert spec_faulty.solo_cpi(220.0) > 1.25 * spec_clean.solo_cpi(220.0)
        # Every phase runs at the injector's CPI factor, nothing else moves.
        for p_clean, p_faulty in zip(spec_clean.phases(), spec_faulty.phases()):
            assert p_faulty.behavior.base_cpi == p_clean.behavior.base_cpi * 1.6
            assert p_faulty.instructions == p_clean.instructions
        # Tier structure intact (propagation still works).
        assert [s.tier for s in spec_faulty.stages] == [
            s.tier for s in spec_clean.stages
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match=r"rate 1.5 must be in \[0, 1\]"):
            make_faulted_workload("tpcc", "lock_stall:1.5")
        with pytest.raises(ValueError, match="unknown fault kind 'gremlins'"):
            make_faulted_workload("tpcc", "gremlins:0.1")

    def test_name_reflects_fault(self):
        w = make_faulted_workload("tpcc", "slowdown:0.1")
        assert w.name == "tpcc+slowdown"


class TestEdgeCases:
    def test_rate_one_injects_everything(self):
        w = make_faulted_workload("tpcc", "lock_stall:1")
        specs = draw(w, 30, seed=2)
        assert w.injected_ids == set(range(30))
        assert all(s.metadata["injected_fault"] == "lock_stall" for s in specs)

    def test_span_preserves_instruction_accounting(self):
        """faulty_total == clean_total + span instructions, exactly."""
        clean = make_workload("tpcc")
        for kind in ("lock_stall", "cache_thrash"):
            faulty = make_faulted_workload("tpcc", f"{kind}:1")
            for seed in range(5):
                spec_clean = draw(clean, 1, seed=seed)[0]
                spec_faulty = draw(faulty, 1, seed=seed)[0]
                span = next(
                    p for p in spec_faulty.phases() if p.name == f"fault_{kind}"
                )
                assert (
                    spec_faulty.total_instructions
                    == spec_clean.total_instructions + span.instructions
                )

    def test_span_inserted_exactly_once(self):
        w = make_faulted_workload("tpcc", "lock_stall:1")
        for seed in range(8):
            spec = draw(w, 1, seed=seed)[0]
            spans = [p for p in spec.phases() if p.name == "fault_lock_stall"]
            assert len(spans) == 1

    def test_position_at_phase_boundary_inserts_between_phases(self):
        """A fault position landing exactly on a phase boundary must insert
        the span right after that phase, keeping every original phase."""
        spec = draw(make_workload("tpcc"), 1, seed=4)[0]
        phases = list(spec.phases())
        boundary = float(sum(p.instructions for p in phases[: len(phases) // 2]))

        spec_faulty = inject_lock_stall(
            spec, np.random.default_rng(0), position=boundary
        )
        names_clean = [p.name for p in phases]
        names_faulty = [p.name for p in spec_faulty.phases()]
        names_faulty.remove("fault_lock_stall")
        assert names_faulty == names_clean
        # The span sits immediately after the phase that crossed `boundary`.
        faulty_phases = list(spec_faulty.phases())
        span_index = next(
            i for i, p in enumerate(faulty_phases) if p.name == "fault_lock_stall"
        )
        before = sum(p.instructions for p in faulty_phases[:span_index])
        assert before == boundary

    def test_position_at_request_end_still_inserts(self):
        """A position at the very end (the >= comparison's far edge) must
        not drop the span."""
        spec = draw(make_workload("tpcc"), 1, seed=5)[0]
        spec_faulty = inject_lock_stall(
            spec,
            np.random.default_rng(0),
            position=float(spec.total_instructions),
        )
        assert any(p.name == "fault_lock_stall" for p in spec_faulty.phases())

    def test_stage_structure_preserved_with_spans(self):
        clean = make_workload("tpcc")
        w = make_faulted_workload("tpcc", "lock_stall:1")
        spec_clean = draw(clean, 1, seed=6)[0]
        spec_faulty = draw(w, 1, seed=6)[0]
        assert [s.tier for s in spec_faulty.stages] == [
            s.tier for s in spec_clean.stages
        ]

    def test_proxies_workload_surface(self):
        inner = make_workload("tpcc")
        w = make_faulted_workload("tpcc", "lock_stall:0.5")
        assert w.sampling_period_us == inner.sampling_period_us
        assert w.window_instructions == inner.window_instructions


class TestRegistryWiring:
    def test_make_faulted_workload(self):
        from repro.faults.schedule import ScheduledFaultWorkload

        w = make_faulted_workload("tpcc", "cache_thrash:0.4")
        assert isinstance(w, ScheduledFaultWorkload)
        assert w.schedule.is_legacy
        (clause,) = w.schedule.clauses
        assert clause.kind == "cache_thrash"
        assert clause.rate == 0.4
        assert w.name == "tpcc+cache_thrash"
        with pytest.raises(ValueError):
            make_faulted_workload("nosuchapp", "lock_stall:0.2")

    @pytest.mark.parametrize(
        "app,spec,clause,target",
        (
            ("tpcc", "lock_stall:1%kind=neworder",
             "lock_stall:1%kind=neworder", "neworder"),
            ("tpch", "gc_pause:0.2+slowdown:0.3%kind=Q99",
             "slowdown:0.3%kind=Q99", "Q99"),
            ("webwork", "slow_replica:0.5@0-10%kind=problem_3000",
             "slow_replica:0.5@0-10%kind=problem_3000", "problem_3000"),
        ),
    )
    def test_unknown_kind_target_rejected(self, app, spec, clause, target):
        """A ``%kind=`` target the app never draws would match nothing and
        inject nothing; the constructor names the clause, target and app."""
        with pytest.raises(ValueError) as excinfo:
            make_faulted_workload(app, spec)
        message = str(excinfo.value)
        assert f"fault spec clause {clause!r}" in message
        assert f"workload {app!r} has no kind {target!r}" in message

    @pytest.mark.parametrize(
        "arrivals,process,tags",
        (
            (None, "closed", "no tenants"),
            ("closed", "closed", "no tenants"),
            ("poisson:400", "poisson", "no tenants"),
            ("onoff:800,100,5,5", "onoff", "no tenants"),
            ("diurnal:400,50,0.5", "diurnal", "no tenants"),
            ("zipf:400,1.1,4", "zipf", "tenants [0, 1, 2, 3]"),
            ("untagged-replay", "replay", "no tenants"),
            ("tagged-replay", "replay", "tenants [1, 5]"),
        ),
    )
    def test_unreachable_tenant_target_rejected(
        self, arrivals, process, tags, tmp_path
    ):
        """A ``%tenant=`` target the arrival process never tags would
        match nothing and inject nothing; the constructor names the clause
        and the process."""
        from repro.traffic import parse_arrivals, save_schedule

        if arrivals is not None and arrivals.endswith("replay"):
            path = tmp_path / "schedule.jsonl"
            tenants = [None] * 3 if arrivals == "untagged-replay" else [1, 5, 1]
            save_schedule([(10.0 * k, t) for k, t in enumerate(tenants)], path)
            arrivals = f"replay:{path}"
        process_obj = parse_arrivals(arrivals) if arrivals else None
        spec = "gc_pause:0.2+slowdown:1%tenant=7"
        with pytest.raises(ValueError) as excinfo:
            make_faulted_workload("tpcc", spec, process_obj)
        assert str(excinfo.value) == (
            f"fault spec clause 'slowdown:1%tenant=7': {process!r} arrivals "
            f"tag {tags}, so tenant 7 never arrives"
        )

    def test_drawn_tenant_target_accepted(self, tmp_path):
        from repro.traffic import parse_arrivals, save_schedule

        w = make_faulted_workload(
            "tpcc", "slowdown:1%tenant=3", parse_arrivals("zipf:400,1.1,4")
        )
        assert w.schedule.clauses[0].target_tenant == 3
        path = tmp_path / "schedule.jsonl"
        save_schedule([(0.0, None), (5.0, 2)], path)
        make_faulted_workload(
            "tpcc", "slowdown:1%tenant=2", parse_arrivals(f"replay:{path}")
        )


class TestScore:
    def test_perfect_detection(self):
        s = score_detection({1, 2}, {1, 2}, population=10)
        assert s["recall"] == 1.0 and s["precision"] == 1.0

    def test_partial(self):
        s = score_detection({1, 3}, {1, 2}, population=10)
        assert s["recall"] == 0.5
        assert s["precision"] == 0.5

    def test_empty_edges(self):
        assert score_detection(set(), set(), 5)["recall"] is None
        assert score_detection(set(), {1}, 5)["recall"] == 0.0
        assert score_detection(set(), {1}, 5)["precision"] is None


class _CoinFlipFaults:
    """One legacy fault kind at probability ``p`` with custom span size
    and slowdown factor: a uniform draw per request, then the taxonomy
    injector's own draws."""

    def __init__(self, inner, kind, p, span_fraction, slowdown_factor):
        self.inner = inner
        self.kind = kind
        self.p = p
        self.span_fraction = span_fraction
        self.slowdown_factor = slowdown_factor
        self.name = inner.name
        self.sampling_period_us = inner.sampling_period_us
        self.window_instructions = inner.window_instructions
        self.injected_ids = set()

    def sample_request(self, rng, request_id):
        spec = self.inner.sample_request(rng, request_id)
        if rng.random() >= self.p:
            return spec
        self.injected_ids.add(request_id)
        if self.kind == "slowdown":
            return inject_slowdown(spec, rng, factor=self.slowdown_factor)
        injector = (
            inject_lock_stall if self.kind == "lock_stall" else inject_cache_thrash
        )
        return injector(spec, rng, span_fraction=self.span_fraction)


class TestEndToEndDetection:
    """The headline validation: the paper's centroid-distance detector must
    find the injected anomalies among same-semantics requests."""

    @pytest.mark.parametrize("fault_kind", LEGACY_FAULT_KINDS)
    def test_detector_finds_injected_faults(self, fault_kind):
        inner = FixedKindWorkload("tpcc", "new_order")
        workload = _CoinFlipFaults(
            inner,
            fault_kind,
            p=0.15,
            span_fraction=0.15,
            slowdown_factor=1.8,
        )
        config = SimConfig(
            sampling=SamplingPolicy.interrupt(100.0),
            num_requests=40,
            concurrency=8,
            seed=11,
        )
        result = ServerSimulator(workload, config).run()
        traces = result.traces
        series = [t.series("cpi", 50_000).values for t in traces]
        rng = np.random.default_rng(11)
        penalty = unequal_length_penalty(np.concatenate(series), rng)

        n_injected = len(workload.injected_ids)
        assert n_injected >= 2, "seed produced too few faults for the test"
        cases = detect_by_centroid_distance(
            {"new_order": range(len(traces))},
            series,
            distance=lambda a, b: dtw_distance(a, b, asynchrony_penalty=penalty),
            top_per_group=2 * n_injected,
        )
        ranked = [traces[c.anomaly_index].spec.request_id for c in cases]
        at_n = score_detection(
            ranked[:n_injected], workload.injected_ids, len(traces)
        )
        at_2n = score_detection(ranked, workload.injected_ids, len(traces))
        # Ranked-retrieval view: injected faults dominate the suspect list
        # far beyond the 15% base rate.
        assert at_n["recall"] >= 0.5, (fault_kind, at_n)
        assert at_2n["recall"] >= 0.65, (fault_kind, at_2n)
