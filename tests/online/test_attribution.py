"""Unit and integration tests for online cause attribution.

The classifier is exercised two ways: synthetic feature windows that
isolate each taxonomy signature (the decision tree's branches, one by
one), and a live faulted run through the full pipeline with attribution
enabled — including the mid-stream checkpoint/restore byte-identity
contract for attribution state and decisions.
"""

from __future__ import annotations

import json

import pytest

from repro.faults.taxonomy import FAULT_TAXONOMY
from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.obs.trace import TraceCollector
from repro.online import attribution
from repro.online.attribution import (
    ATTRIBUTION_UNKNOWN,
    AttributionThresholds,
    CauseAttributor,
    score_attribution,
    _median3,
    _overall_mean,
    _runs,
    _transitions,
)
from repro.online.pipeline import OnlineConfig, OnlinePipeline
from repro.online.report import build_report
from repro.workloads.registry import make_faulted_workload

BASE = (1.0, 1.0, 0.1)


def warm(attributor, kind="q", windows=12, requests=8):
    """Feed flat healthy baselines so ratios equal the raw features."""
    baselines = attributor.baselines(kind)
    for _ in range(requests):
        for index in range(windows):
            attributor.observe_window(baselines, index, *BASE[:2])
    return attributor


def features(count=8, **overrides):
    """``count`` baseline windows with per-index (cpi, refs, miss)
    overrides."""
    windows = [list(BASE) for _ in range(count)]
    for index, window in overrides.items():
        windows[int(index.lstrip("w"))] = list(window)
    return windows


class TestHelpers:
    def test_runs_counts_maximal_consecutive_groups(self):
        assert _runs([]) == 0
        assert _runs([3]) == 1
        assert _runs([1, 2, 3]) == 1
        assert _runs([1, 2, 5, 6, 9]) == 3

    def test_median3_smooths_single_spikes(self):
        assert _median3([1.0, 5.0, 1.0, 1.0]) == [1.0, 1.0, 1.0, 1.0]
        assert _median3([1.0, 2.0]) == [1.0, 2.0]
        # Two-wide plateaus survive.
        assert _median3([1.0, 2.0, 2.0, 1.0]) == [1.0, 2.0, 2.0, 1.0]

    def test_transitions_hysteresis(self):
        # Clean alternation counts every flip.
        assert _transitions([1.4, 1.0, 1.4, 1.0], 1.25, 1.1) == 3
        # Mid-band windows hold the current state (no flip).
        assert _transitions([1.4, 1.2, 1.4], 1.25, 1.1) == 0
        assert _transitions([1.0, 1.0], 1.25, 1.1) == 0

    def test_overall_mean_weights_by_population(self):
        attributor = CauseAttributor()
        baselines = attributor.baselines("q")
        attributor.observe_window(baselines, 0, 1.0, 2.0)
        attributor.observe_window(baselines, 0, 1.0, 2.0)
        attributor.observe_window(baselines, 1, 1.0, 5.0)
        mean = _overall_mean(attributor.refs_centroids.group("q"))
        assert mean == pytest.approx((2.0 + 2.0 + 5.0) / 3)


class TestClassifySignatures:
    """Each taxonomy kind's synthetic counter signature lands on its
    branch of the decision tree."""

    def test_gc_pause_refs_collapse(self):
        a = warm(CauseAttributor())
        f = features(w3=(2.5, 0.1, 0.05))
        assert a.classify("q", f) == "gc_pause"

    def test_membw_saturation_sustained_streaming(self):
        a = warm(CauseAttributor())
        f = features(w2=(1.3, 2.5, 0.3), w3=(1.3, 2.5, 0.3),
                     w4=(1.3, 2.5, 0.3))
        assert a.classify("q", f) == "membw_saturation"

    def test_membw_saturation_single_streaming_peak(self):
        a = warm(CauseAttributor())
        f = features(w3=(1.4, 3.0, 0.3))
        assert a.classify("q", f) == "membw_saturation"

    def test_cache_thrash_peak_with_pathological_misses(self):
        a = warm(CauseAttributor())
        f = features(w3=(1.5, 3.0, 0.9))
        assert a.classify("q", f) == "cache_thrash"

    def test_lock_stall_single_spin_spike(self):
        a = warm(CauseAttributor())
        f = features(w3=(1.8, 0.5, 0.1))
        assert a.classify("q", f) == "lock_stall"

    def test_lock_convoy_disjoint_spin_runs(self):
        a = warm(CauseAttributor())
        f = features(w1=(1.6, 0.5, 0.1), w5=(1.6, 0.5, 0.1))
        assert a.classify("q", f) == "lock_convoy"

    def test_slowdown_uniform_inflation(self):
        a = warm(CauseAttributor())
        f = [[1.3, 1.0, 0.1] for _ in range(8)]
        assert a.classify("q", f) == "slowdown"

    def test_slow_replica_healthy_head_elevated_tail(self):
        a = warm(CauseAttributor())
        f = (
            [[1.0, 1.0, 0.1]] * 3
            + [[1.2, 1.0, 0.1]] * 3
            + [[1.4, 1.0, 0.1]] * 3
        )
        assert a.classify("q", f) == "slow_replica"

    def test_gray_degradation_on_off_alternation(self):
        a = warm(CauseAttributor())
        f = []
        for block in range(3):
            f += [[1.0, 1.0, 0.1]] * 2 + [[1.4, 1.0, 0.1]] * 2
        assert a.classify("q", f) == "gray_degradation"


class TestClassifyGuards:
    def test_cold_baseline_is_unknown(self):
        a = CauseAttributor()
        assert a.classify("q", features(w3=(2.5, 0.1, 0.05))) == (
            ATTRIBUTION_UNKNOWN
        )

    def test_empty_features_is_unknown(self):
        a = warm(CauseAttributor())
        assert a.classify("q", []) == ATTRIBUTION_UNKNOWN

    def test_no_elevation_is_unknown(self):
        a = warm(CauseAttributor())
        assert a.classify("q", features()) == ATTRIBUTION_UNKNOWN

    def test_pooled_fallback_for_rare_kind(self):
        a = warm(CauseAttributor(), kind="common")
        assert not a.warm("rare")
        assert a.warm(a.POOLED)
        f = features(w3=(2.5, 0.1, 0.05))
        assert a.classify("rare", f) == "gc_pause"

    def test_custom_thresholds_change_the_verdict(self, monkeypatch):
        """The pinned gates decide: patch them and the verdict follows."""
        monkeypatch.setattr(
            attribution,
            "THRESHOLDS",
            AttributionThresholds(gc_min_elevation=10.0, gc_refs_ratio=0.01),
        )
        strict = warm(CauseAttributor())
        f = features(w3=(2.5, 0.1, 0.05))
        # The collapse no longer clears the gc gate; depressed refs with
        # elevated CPI falls through to the spin family.
        assert strict.classify("q", f) == "lock_stall"


class TestCheckpoint:
    def test_state_round_trips_byte_identically(self):
        a = warm(CauseAttributor())
        a.observe_window(a.baselines("other"), 0, 1.5, 0.8)
        state = a.to_state()
        restored = CauseAttributor.from_state(state)
        assert restored.to_state() == state
        assert json.dumps(restored.to_state(), sort_keys=True) == json.dumps(
            state, sort_keys=True
        )

    def test_restored_attributor_decides_identically(self):
        a = warm(CauseAttributor())
        restored = CauseAttributor.from_state(a.to_state())
        cases = [
            features(w3=(2.5, 0.1, 0.05)),
            features(w3=(1.8, 0.5, 0.1)),
            features(w2=(1.3, 2.5, 0.3), w3=(1.3, 2.5, 0.3),
                     w4=(1.3, 2.5, 0.3)),
        ]
        for f in cases:
            assert restored.classify("q", f) == a.classify("q", f)


class TestScoreAttribution:
    def test_perfect_attribution(self):
        records = [
            {"injected_fault": "gc_pause", "attributed_cause": "gc_pause"},
            {"injected_fault": "lock_stall", "attributed_cause": "lock_stall"},
            {"injected_fault": None, "attributed_cause": None},
        ]
        scored = score_attribution(records)
        assert scored["detected"] == 2
        assert scored["correct"] == 2
        assert scored["accuracy"] == 1.0
        assert scored["false_attributions"] == 0
        by_kind = {row["kind"]: row for row in scored["per_kind"]}
        assert by_kind["gc_pause"]["recall"] == 1.0
        assert by_kind["gc_pause"]["precision"] == 1.0

    def test_confusion_and_misses(self):
        records = [
            {"injected_fault": "gc_pause", "attributed_cause": "lock_stall"},
            {"injected_fault": "gc_pause", "attributed_cause": None},
            {"injected_fault": None, "attributed_cause": "slowdown"},
        ]
        scored = score_attribution(records)
        assert scored["confusion"]["gc_pause"] == {
            "lock_stall": 1, "missed": 1,
        }
        assert scored["confusion"]["none"] == {"slowdown": 1}
        assert scored["false_attributions"] == 1
        assert scored["accuracy"] == 0.0
        (row,) = scored["per_kind"]
        assert row["injected"] == 2
        assert row["detected"] == 1
        assert row["accuracy_given_detected"] == 0.0

    def test_precision_counts_all_attributions_of_a_kind(self):
        records = [
            {"injected_fault": "gc_pause", "attributed_cause": "gc_pause"},
            {"injected_fault": "slowdown", "attributed_cause": "gc_pause"},
        ]
        scored = score_attribution(records)
        by_kind = {row["kind"]: row for row in scored["per_kind"]}
        assert by_kind["gc_pause"]["precision"] == 0.5

    def test_empty_records(self):
        scored = score_attribution([])
        assert scored["detected"] == 0
        assert scored["accuracy"] is None
        assert scored["per_kind"] == []
        assert scored["confusion"] == {}


def _live_run(pipeline, faults="gc_pause:0.3", requests=30, seed=21):
    workload = make_faulted_workload("tpcc", faults)
    collector = TraceCollector()
    collector.subscribe(pipeline.process_event)
    config = SimConfig(
        sampling=SamplingPolicy.interrupt(workload.sampling_period_us),
        num_requests=requests,
        concurrency=8,
        seed=seed,
        collector=collector,
    )
    ServerSimulator(workload, config).run()
    return workload, collector.events


class TestPipelineIntegration:
    def test_attribution_rides_the_live_pipeline(self, trained_identifier):
        pipeline = OnlinePipeline(
            identifier=trained_identifier,
            config=OnlineConfig(attribute=True),
        )
        workload, _ = _live_run(pipeline)
        report = build_report(pipeline)
        assert report.attribution is not None
        assert all("attributed_cause" in r for r in report.requests)
        causes = {
            r["attributed_cause"]
            for r in report.requests
            if r["attributed_cause"] is not None
        }
        assert causes, "no request was flagged and attributed at this seed"
        assert causes <= set(FAULT_TAXONOMY) | {ATTRIBUTION_UNKNOWN}
        # Scoring is keyed off the same records the report carries.
        assert report.attribution == score_attribution(report.requests)
        # The attribution key joins the JSON document only when enabled.
        assert "attribution" in json.loads(report.to_json())

    def test_attribution_off_keeps_record_bytes(self, trained_identifier):
        pipeline = OnlinePipeline(identifier=trained_identifier)
        _live_run(pipeline)
        report = build_report(pipeline)
        assert report.attribution is None
        assert all("attributed_cause" not in r for r in report.requests)
        assert "attribution" not in json.loads(report.to_json())

    def test_midstream_checkpoint_restores_attribution_decisions(
        self, trained_identifier
    ):
        reference = OnlinePipeline(
            identifier=trained_identifier,
            config=OnlineConfig(attribute=True),
        )
        _, events = _live_run(reference)

        split = len(events) // 2
        left = OnlinePipeline(
            identifier=trained_identifier,
            config=OnlineConfig(attribute=True),
        )
        for event in events[:split]:
            left.process_event(event)
        state = left.to_state()
        assert "attributor" in state
        resumed = OnlinePipeline.from_state(state)
        for event in events[split:]:
            resumed.process_event(event)

        assert resumed.records == reference.records
        assert build_report(resumed).to_json() == build_report(reference).to_json()
        assert build_report(resumed).attribution == build_report(reference).attribution
