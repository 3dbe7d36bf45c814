"""Tests for transparent stage identification."""

import numpy as np
import pytest

from repro.core.stagedetect import detect_change_points, identify_stages


class TestChangePoints:
    def test_clean_level_shift_found(self):
        values = np.concatenate([np.full(10, 1.0), np.full(10, 5.0)])
        cuts = detect_change_points(values, min_segment=3)
        assert cuts == [10]

    def test_constant_series_no_cuts(self):
        assert detect_change_points(np.full(20, 2.0)) == []

    def test_too_short_series(self):
        assert detect_change_points([1.0, 5.0], min_segment=3) == []

    def test_multiple_shifts(self):
        values = np.concatenate(
            [np.full(8, 1.0), np.full(8, 6.0), np.full(8, 1.0)]
        )
        cuts = detect_change_points(values, min_segment=3)
        assert len(cuts) == 2
        assert abs(cuts[0] - 8) <= 1 and abs(cuts[1] - 16) <= 1

    def test_refractory_gap(self):
        values = np.concatenate([np.full(6, 0.0), np.full(6, 10.0)])
        cuts = detect_change_points(values, min_segment=4)
        # Only one cut despite several windows near the shift.
        assert len(cuts) == 1

    def test_noise_does_not_trigger(self):
        rng = np.random.default_rng(0)
        values = 2.0 + 0.05 * rng.standard_normal(40)
        assert detect_change_points(values, min_segment=3, threshold=3.0) == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            detect_change_points([1.0], min_segment=0)
        with pytest.raises(ValueError):
            detect_change_points([1.0], threshold=0.0)


class TestIdentifyStages:
    def test_web_request_stages_recovered(self, web_run):
        """A web request's header phase (high CPI) must appear as its own
        detected stage."""
        trace = max(web_run.traces, key=lambda t: t.total_instructions)
        stages = identify_stages(trace, window_instructions=10_000, threshold=1.0)
        assert len(stages) >= 2
        # Stages tile the window axis.
        assert stages[0].start_window == 0
        for a, b in zip(stages[:-1], stages[1:]):
            assert a.end_window == b.start_window
        # The stages differ in hardware characteristics.
        cpis = [s.mean_cpi for s in stages]
        assert max(cpis) > 1.3 * min(cpis)

    def test_annotations_positive(self, tpch_run):
        trace = tpch_run.traces[0]
        stages = identify_stages(trace, window_instructions=1_000_000)
        for stage in stages:
            assert stage.mean_cpi > 0
            assert stage.mean_l2_refs_per_ins >= 0
            assert 0 <= stage.mean_l2_miss_ratio <= 1
            assert stage.length_windows > 0

    def test_unknown_metric_rejected(self, web_run):
        with pytest.raises(ValueError):
            identify_stages(web_run.traces[0], 10_000, metric="ipc")
