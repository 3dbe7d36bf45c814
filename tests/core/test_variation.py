"""Tests for inter/intra-request variation measurement (Figure 3)."""

import numpy as np
import pytest

from repro.core.variation import captured_variation, inter_request_variation


class TestOnRealTraces:
    def test_intra_exceeds_inter_for_web(self, web_run):
        """The paper's core Figure 3 finding for non-TPCH applications."""
        inter = inter_request_variation(web_run.traces, "cpi")
        intra = captured_variation(web_run.traces, "cpi")
        assert intra > 1.5 * inter

    def test_all_metrics_computable(self, web_run):
        for metric in ("cpi", "l2_refs_per_ins", "l2_miss_ratio"):
            assert inter_request_variation(web_run.traces, metric) >= 0
            assert captured_variation(web_run.traces, metric) >= 0

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            inter_request_variation([], "cpi")
        with pytest.raises(ValueError):
            captured_variation([], "cpi")

    def test_single_request_inter_near_zero(self, tpch_run):
        single = tpch_run.traces[:1]
        assert inter_request_variation(single, "cpi") == pytest.approx(0.0, abs=1e-9)
        # ... but its intra-request variation is real.
        assert captured_variation(single, "cpi") > 0.01
