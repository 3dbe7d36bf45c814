"""End-to-end streaming pipeline behavior on a live faulted run."""

import dataclasses

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_COLLECTOR
from repro.online import pipeline as pipeline_module
from repro.online.checkpoint import checkpoint_from_json, checkpoint_to_json
from repro.online.pipeline import OnlineConfig, OnlinePipeline
from repro.online.report import build_report


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineConfig(window_instructions=0)
        with pytest.raises(ValueError, match="window_instructions"):
            OnlineConfig(window_instructions=float("nan"))
        with pytest.raises(ValueError):
            OnlineConfig(anomaly_quantile=1.0)

    def test_settable_surface(self):
        """Three settings; every other choice is a module constant, so a
        former knob is refused at any value, in range or not."""
        assert [f.name for f in dataclasses.fields(OnlineConfig)] == [
            "window_instructions",
            "anomaly_quantile",
            "attribute",
        ]
        former = {
            "ewma_alpha": (pipeline_module.EWMA_ALPHA,),
            "max_windows": (pipeline_module.MAX_WINDOWS,),
            "centroid_max_windows": (pipeline_module.CENTROID_MAX_WINDOWS,),
            "commit_streak": (pipeline_module.COMMIT_STREAK, 0),
            "anomaly_margin": (1.0, 0.0),
            "identify_metric": ("l2_refs_per_ins",),
            "compensate": (True,),
        }
        for knob, values in former.items():
            for value in values:
                with pytest.raises(TypeError, match=knob):
                    OnlineConfig(**{knob: value})

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2])
    def test_rejects_ewma_alpha_outside_unit_interval(self, alpha):
        """The aging constant is fixed inside (0, 1); no out-of-range
        value can be set."""
        assert 0.0 < pipeline_module.EWMA_ALPHA < 1.0
        with pytest.raises(TypeError, match="ewma_alpha"):
            OnlineConfig(ewma_alpha=alpha)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_rejects_max_windows_below_one(self, cap):
        assert pipeline_module.MAX_WINDOWS >= 1
        with pytest.raises(TypeError, match="'max_windows'"):
            OnlineConfig(max_windows=cap)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_rejects_centroid_max_windows_below_one(self, cap):
        assert pipeline_module.CENTROID_MAX_WINDOWS >= 1
        with pytest.raises(TypeError, match="centroid_max_windows"):
            OnlineConfig(centroid_max_windows=cap)

    def test_rejects_identifier_trained_at_another_window(
        self, trained_identifier
    ):
        """A bank is matched window by window, so its window must be the
        pipeline's; the error names both."""
        assert trained_identifier.window_instructions == 100_000.0
        with pytest.raises(ValueError, match=r"100000\.0.*10000\.0"):
            OnlinePipeline(
                config=OnlineConfig(window_instructions=10_000.0),
                identifier=trained_identifier,
            )

    def test_null_collector_rejects_subscribers(self):
        pipeline = OnlinePipeline()
        with pytest.raises(ValueError, match="disabled collector"):
            NULL_COLLECTOR.subscribe(pipeline.process_event)


class TestLiveRun:
    def test_all_requests_complete(self, streamed_run):
        _, _, pipeline, result = streamed_run
        assert len(pipeline.records) == len(result.traces)
        assert not pipeline.open  # everything closed out

    def test_ground_truth_captured_from_events(self, streamed_run):
        workload, _, pipeline, _ = streamed_run
        flagged_truth = {
            r["request_id"]
            for r in pipeline.records
            if r["injected_fault"] is not None
        }
        assert flagged_truth == workload.injected_ids
        kinds = {r["injected_fault"] for r in pipeline.records} - {None}
        assert kinds == {"lock_stall"}

    def test_bounded_memory_pattern_cap(self, streamed_run):
        _, _, pipeline, _ = streamed_run
        cap = pipeline_module.MAX_WINDOWS
        assert all(len(r.pattern) <= cap for r in pipeline.open.values())

    def test_windows_match_trace_lengths(self, streamed_run):
        """The streaming window count equals the offline per-trace count."""
        _, _, pipeline, result = streamed_run
        window = pipeline.config.window_instructions
        offline = {
            t.spec.request_id: t.series("cpi", window).values.size
            for t in result.traces
        }
        for record in pipeline.records:
            assert record["windows"] == offline[record["request_id"]]

    def test_identification_commits_early_and_correctly(self, streamed_run):
        _, _, pipeline, _ = streamed_run
        committed = [
            r for r in pipeline.records if r["committed_label"] is not None
        ]
        assert committed, "no request ever committed an identification"
        correct = [r for r in committed if r["label_correct"]]
        assert len(correct) / len(committed) >= 0.6
        for record in committed:
            assert record["commit_instructions"] <= record[
                "instructions_observed"
            ]

    def test_replay_equals_live(self, streamed_run, trained_identifier):
        _, events, live, _ = streamed_run
        replayed = OnlinePipeline(identifier=trained_identifier)
        replayed.process_events(events)
        assert build_report(replayed).to_json() == build_report(live).to_json()

    def test_events_are_idempotent_by_seq(self, streamed_run, trained_identifier):
        _, events, live, _ = streamed_run
        twice = OnlinePipeline(identifier=trained_identifier)
        twice.process_events(events)
        twice.process_events(events)  # duplicates skipped by cursor
        assert build_report(twice).to_json() == build_report(live).to_json()


class TestVectorizedIdentification:
    """A bank of ``SWEEP_MIN_BANK`` signatures or more identifies through
    the vectorized :class:`~repro.core.kernels.PrefixL1Sweeper` instead of
    the Python accumulation.  Test banks are far smaller, so the threshold
    is patched down to force that branch; decisions must not change."""

    def replay(self, identifier, events, cut=None):
        """Replay ``events`` from a fresh attributing pipeline, through a
        checkpoint restore after ``events[:cut]`` when ``cut`` is given."""
        pipeline = checkpoint_from_json(
            checkpoint_to_json(
                OnlinePipeline(
                    config=OnlineConfig(attribute=True), identifier=identifier
                )
            )
        )
        if cut is not None:
            pipeline.process_events(events[:cut])
            pipeline = checkpoint_from_json(checkpoint_to_json(pipeline))
        pipeline.process_events(events)
        return pipeline

    @pytest.mark.parametrize("fraction", [None, 0.4, 0.75])
    def test_sweeper_branch_is_byte_identical(
        self, streamed_run, trained_identifier, monkeypatch, fraction
    ):
        _, events, _, _ = streamed_run
        cut = None if fraction is None else int(len(events) * fraction)
        scalar = self.replay(trained_identifier, events)
        assert scalar._sweeper is None
        assert any(r["committed_label"] for r in scalar.records)

        monkeypatch.setattr(pipeline_module, "SWEEP_MIN_BANK", 1)
        vectorized = self.replay(trained_identifier, events, cut)
        assert vectorized._sweeper is not None
        assert build_report(vectorized).to_json() == build_report(scalar).to_json()
        assert checkpoint_to_json(vectorized) == checkpoint_to_json(scalar)


class TestDetection:
    def test_report_scores_against_ground_truth(self, streamed_run):
        workload, _, pipeline, _ = streamed_run
        report = build_report(pipeline)
        s = report.summary
        assert s["population"] == len(pipeline.records)
        assert s["injected"] == len(workload.injected_ids)
        assert 0.0 <= s["precision"] <= 1.0
        assert 0.0 <= s["recall"] <= 1.0
        if s["median_time_to_detect_instructions"] is not None:
            assert s["median_time_to_detect_instructions"] > 0
        assert s["periods"] == pipeline.periods_seen
        assert report.to_json() == build_report(pipeline).to_json()

    def test_render_mentions_key_numbers(self, streamed_run):
        _, _, pipeline, _ = streamed_run
        text = build_report(pipeline).render()
        assert "precision=" in text and "recall=" in text
        assert "median_ttd_ins=" in text


class TestMetricsRegistry:
    def test_counters_and_histograms_populated(self, streamed_run, trained_identifier):
        _, events, _, _ = streamed_run
        registry = MetricsRegistry()
        pipeline = OnlinePipeline(
            identifier=trained_identifier, registry=registry
        )
        pipeline.process_events(events)
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["online_periods"] == pipeline.periods_seen
        assert counters["online_windows"] == pipeline.windows_seen
        assert counters["online_requests_completed"] == len(pipeline.records)
        assert "online_prediction_abs_error" in snapshot["histograms"]
        assert "online_anomaly_score" in snapshot["histograms"]
        assert snapshot["histograms"]["online_anomaly_score"]["count"] > 0
