"""Property suite for composable fault schedules.

Four contracts pinned here:

1. Determinism — the same spec and seed produce the same injected set
   and structurally identical request streams, every time.
2. Rates — over many draws the injection rate lands inside a binomial
   confidence interval of the clause rate.
3. Windows — ``@lo-hi`` activation windows are honored *exactly*: every
   faulted id is inside the half-open range, nothing outside it fires.
4. Legacy byte-identity — old ``kind:rate`` specs route through the
   schedule engine yet reproduce the original ``FaultInjectingWorkload``
   stream request-for-request (same RNG draw order, same injected ids,
   same phase structure), under both generation paths.

Plus pinned regression tests for malformed-spec errors: the message must
name the offending token so a bad ``--faults`` is self-explanatory.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.faults.schedule import (
    FaultClause,
    FaultSchedule,
    ScheduledFaultWorkload,
    parse_fault_schedule,
)
from repro.faults.taxonomy import FAULT_TAXONOMY, LEGACY_FAULT_KINDS
from repro.workloads.faults import FaultInjectingWorkload
from repro.workloads.genfast import FastRubisWorkload
from repro.workloads.registry import make_workload
from repro.workloads.rubis import RubisWorkload

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
RATES = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)


def draw(workload, n, seed=0):
    rng = np.random.default_rng(seed)
    return [workload.sample_request(rng, i) for i in range(n)]


def scheduled(spec_text, workload="tpcc"):
    return ScheduledFaultWorkload(
        make_workload(workload), parse_fault_schedule(spec_text)
    )


def fingerprint(spec):
    """Structural identity of a request spec, independent of the concrete
    class (reference ``RequestSpec`` vs genfast ``FastRequestSpec``, which
    has no ``__eq__``)."""
    return (
        spec.request_id,
        spec.app,
        spec.kind,
        tuple(sorted((k, str(v)) for k, v in spec.metadata.items())),
        tuple(
            (
                stage.tier,
                tuple(
                    (
                        phase.name,
                        phase.instructions,
                        phase.behavior.base_cpi,
                        phase.behavior.l2_refs_per_ins,
                        phase.behavior.l2_miss_ratio,
                        phase.behavior.cache_footprint,
                        phase.entry_syscall,
                        phase.syscall_rate_per_ins,
                        tuple(phase.syscall_pool),
                    )
                    for phase in stage.phases
                ),
            )
            for stage in spec.stages
        ),
    )


class TestParser:
    def test_legacy_clause_round_trips(self):
        schedule = parse_fault_schedule("lock_stall:0.25")
        assert schedule.is_legacy
        assert schedule.to_spec() == "lock_stall:0.25"
        (clause,) = schedule.clauses
        assert clause.kind == "lock_stall" and clause.rate == 0.25

    def test_full_grammar_round_trips(self):
        text = "gc_pause:0.2@5-40%kind=new_order*3+cache_thrash:0.1%tenant=2"
        schedule = parse_fault_schedule(text)
        assert not schedule.is_legacy
        first, second = schedule.clauses
        assert first.window == (5, 40)
        assert first.target_kind == "new_order"
        assert first.burst == 3
        assert second.target_tenant == 2
        assert parse_fault_schedule(schedule.to_spec()) == schedule

    def test_every_taxonomy_kind_parses(self):
        for kind in FAULT_TAXONOMY:
            schedule = parse_fault_schedule(f"{kind}:0.3")
            assert schedule.kinds == (kind,)

    def test_non_legacy_kind_is_not_legacy_schedule(self):
        assert not parse_fault_schedule("gc_pause:0.3").is_legacy

    def test_options_in_any_order(self):
        a = parse_fault_schedule("gc_pause:0.2@0-10*2")
        b = parse_fault_schedule("gc_pause:0.2*2@0-10")
        assert a == b

    def test_clause_validation_mirrors_parser(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultClause(kind="gremlins", rate=0.2)
        with pytest.raises(ValueError, match=r"rate 1.5 must be in \[0, 1\]"):
            FaultClause(kind="gc_pause", rate=1.5)
        with pytest.raises(ValueError, match="window"):
            FaultClause(kind="gc_pause", rate=0.2, window=(5, 5))
        with pytest.raises(ValueError, match="burst"):
            FaultClause(kind="gc_pause", rate=0.2, burst=0)
        with pytest.raises(ValueError, match="at least one clause"):
            FaultSchedule(clauses=())


class TestMalformedSpecs:
    """Error messages must name the offending token (pinned strings —
    the CLIs surface these verbatim via ArgumentTypeError)."""

    @pytest.mark.parametrize(
        ("spec", "message"),
        [
            ("", r"empty fault spec ''"),
            ("   ", r"empty fault spec '   '"),
            ("lock_stall", r"clause 'lock_stall' must start with kind:rate"),
            ("gremlins:0.2", r"unknown fault kind 'gremlins'"),
            ("gc_pause:oops",
             r"fault spec clause 'gc_pause:oops': fault rate 'oops' is not "
             r"a number"),
            ("gc_pause:1.5", r"fault rate 1.5 must be in \[0, 1\]"),
            ("gc_pause:-0.1", r"fault rate -0.1 must be in \[0, 1\]"),
            ("gc_pause:0.2@5", r"bad activation window '@5'"),
            ("gc_pause:0.2@9-3", r"empty activation window '@9-3'"),
            ("gc_pause:0.2@1-5@2-6", r"duplicate activation window '@2-6'"),
            ("gc_pause:0.2%kind=", r"bad target '%kind='"),
            ("gc_pause:0.2%shard=3", r"unknown target '%shard=3'"),
            ("gc_pause:0.2%tenant=abc", r"tenant 'abc' in '%tenant=abc'"),
            ("gc_pause:0.2%kind=a%kind=b", r"duplicate target '%kind=b'"),
            ("gc_pause:0.2*x", r"bad burst '\*x'"),
            ("gc_pause:0.2*2*3", r"duplicate burst option '\*3'"),
            ("gc_pause:0.2+", r"empty fault clause"),
            ("+gc_pause:0.2", r"empty fault clause"),
        ],
    )
    def test_message_names_offending_token(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_fault_schedule(spec)

    def test_cli_rejects_bad_spec_with_usage_error(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["--workload", "tpcc", "--faults", "gc_pause:oops"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "fault spec clause 'gc_pause:oops'" in err
        assert "'oops' is not a number" in err

    def test_serve_cli_rejects_bad_spec(self, capsys):
        from repro.serve.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["load-test", "--faults", "lock_stall:0.2@banana"]
            )
        assert excinfo.value.code == 2
        assert "bad activation window '@banana'" in capsys.readouterr().err


class TestDeterminism:
    @given(seed=SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_same_seed_same_stream(self, seed):
        spec_text = "gc_pause:0.3+cache_thrash:0.2@0-25*2"
        a = scheduled(spec_text)
        b = scheduled(spec_text)
        specs_a = draw(a, 40, seed=seed)
        specs_b = draw(b, 40, seed=seed)
        assert a.injected_ids == b.injected_ids
        assert a.injected_kinds == b.injected_kinds
        assert [fingerprint(s) for s in specs_a] == [
            fingerprint(s) for s in specs_b
        ]

    @given(seed=SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_ground_truth_matches_metadata(self, seed):
        w = scheduled("membw_saturation:0.4")
        specs = draw(w, 60, seed=seed)
        stamped = {
            s.request_id: s.metadata["injected_fault"]
            for s in specs
            if s.metadata.get("injected_fault") is not None
        }
        assert set(stamped) == w.injected_ids
        assert stamped == w.injected_kinds


class TestRates:
    @given(rate=RATES, seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_rate_within_binomial_ci(self, rate, seed):
        n = 300
        w = scheduled(f"slow_replica:{rate:g}")
        draw(w, n, seed=seed)
        observed = len(w.injected_ids)
        # 4.5-sigma binomial band: false-failure odds ~1e-5 per example.
        sigma = math.sqrt(n * rate * (1.0 - rate))
        assert abs(observed - n * rate) <= 4.5 * sigma + 1.0

    def test_rate_zero_and_one(self):
        silent = scheduled("gray_degradation:0")
        draw(silent, 50, seed=3)
        assert silent.injected_ids == set()
        loud = scheduled("gray_degradation:1")
        draw(loud, 50, seed=3)
        assert loud.injected_ids == set(range(50))


class TestWindows:
    @given(
        lo=st.integers(min_value=0, max_value=30),
        span=st.integers(min_value=1, max_value=30),
        seed=SEEDS,
    )
    @settings(max_examples=25, deadline=None)
    def test_window_honored_exactly(self, lo, span, seed):
        hi = lo + span
        w = scheduled(f"lock_convoy:0.9@{lo}-{hi}")
        draw(w, 70, seed=seed)
        assert all(lo <= rid < hi for rid in w.injected_ids)

    def test_window_transitions_emit_events(self):
        w = scheduled("gc_pause:0.5@10-20")
        draw(w, 30, seed=5)
        events = w.drain_fault_events()
        kinds = [e["kind"] for e in events]
        assert kinds == ["fault_window_start", "fault_window_end"]
        assert events[0]["request_id"] == 10
        assert events[1]["request_id"] == 20
        assert all(e["fault"] == "gc_pause" for e in events)
        # Drained: a second drain is empty.
        assert w.drain_fault_events() == []


class TestTargetsAndBursts:
    def test_kind_target_only_faults_that_kind(self):
        w = scheduled("slowdown:0.9%kind=new_order")
        specs = draw(w, 80, seed=2)
        kinds = {s.request_id: s.kind for s in specs}
        assert w.injected_ids, "target kind never sampled at this seed"
        assert all(kinds[rid] == "new_order" for rid in w.injected_ids)

    def test_tenant_target_needs_tagged_traffic(self):
        w = scheduled("slowdown:1%tenant=3")
        draw(w, 20, seed=2)
        assert w.injected_ids == set()
        w.note_tenant(3)
        rng = np.random.default_rng(9)
        w.sample_request(rng, 100)
        assert w.injected_ids == {100}

    def test_burst_faults_consecutive_requests(self):
        # Rate 1 in a 1-wide window: the hit at lo starts a burst that
        # must carry the next burst-1 eligible requests.
        w = scheduled("cache_thrash:1@5-6*4")
        draw(w, 30, seed=7)
        assert w.injected_ids == {5}
        # Window blocks eligibility beyond id 5, so the burst is pinned
        # to eligible ids only.  Without a window the burst runs free:
        w2 = scheduled("cache_thrash:0.2*5")
        draw(w2, 120, seed=7)
        ids = sorted(w2.injected_ids)
        # Every hit is part of a run of >= min(5, remaining) consecutive
        # ids — check the first full run.
        first = ids[0]
        assert set(range(first, first + 5)) <= w2.injected_ids

    def test_multiple_clauses_stamp_primary_and_full_list(self):
        w = scheduled("lock_stall:1+gc_pause:1")
        spec = draw(w, 1, seed=4)[0]
        assert spec.metadata["injected_fault"] == "lock_stall"
        assert spec.metadata["injected_faults"] == ["lock_stall", "gc_pause"]
        assert w.injected_kinds[0] == "lock_stall"


class TestLegacyByteIdentity:
    """Old ``kind:rate`` specs through the schedule engine reproduce the
    original ``FaultInjectingWorkload`` stream exactly."""

    @given(
        kind=st.sampled_from(sorted(LEGACY_FAULT_KINDS)),
        rate=RATES,
        seed=SEEDS,
    )
    @settings(max_examples=30, deadline=None)
    def test_streams_identical(self, kind, rate, seed):
        legacy = FaultInjectingWorkload(
            make_workload("tpcc"), fault_probability=rate, fault_kind=kind
        )
        new = scheduled(f"{kind}:{rate!r}")
        specs_legacy = draw(legacy, 25, seed=seed)
        specs_new = draw(new, 25, seed=seed)
        assert new.injected_ids == legacy.injected_ids
        assert [fingerprint(s) for s in specs_new] == [
            fingerprint(s) for s in specs_legacy
        ]

    @pytest.mark.parametrize(
        "generator", [RubisWorkload, FastRubisWorkload],
        ids=["reference", "block"],
    )
    def test_identical_under_both_generation_paths(self, generator):
        legacy = FaultInjectingWorkload(
            generator(), fault_probability=0.4, fault_kind="cache_thrash",
        )
        new = ScheduledFaultWorkload(
            generator(), parse_fault_schedule("cache_thrash:0.4")
        )
        specs_legacy = draw(legacy, 30, seed=13)
        specs_new = draw(new, 30, seed=13)
        assert new.injected_ids == legacy.injected_ids
        assert [fingerprint(s) for s in specs_new] == [
            fingerprint(s) for s in specs_legacy
        ]

    def test_registry_spec_string_unchanged(self):
        from repro.workloads.registry import make_faulted_workload

        w = make_faulted_workload("tpcc", "lock_stall:0.25")
        assert w.schedule.to_spec() == "lock_stall:0.25"
