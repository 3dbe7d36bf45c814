"""Tests for the trained state of online identification."""

import json

import numpy as np
import pytest

from repro.core.identification import OnlineIdentifier
from repro.core.signatures import SignatureBank, prediction_error_curve

KINDS = ("class0", "class1", "class2", "class3")


def pattern_of(identifier, trace):
    """A trace's signature pattern under the identifier's settings."""
    return trace.series(identifier.metric, identifier.window_instructions).values


def bank_of(identifier):
    """The identifier's signature bank, rebuilt from its state."""
    return SignatureBank.from_state(identifier.to_state()["bank"])


def sweep_label(identifier, pattern):
    """The label the pipeline's row sweep picks for ``pattern``: one
    running L1 distance per row, extended window by window, first
    minimum wins."""
    rows, penalty = identifier.prefix_rows()
    dists = [0.0] * len(rows)
    for w, x in enumerate(pattern):
        for i, (values, length, _) in enumerate(rows):
            dists[i] += abs(x - values[w]) if w < length else penalty
    return rows[min(range(len(rows)), key=dists.__getitem__)][2]


class TestLifecycle:
    def test_unfitted_rejects_identify(self):
        ident = OnlineIdentifier()
        with pytest.raises(RuntimeError):
            ident.prefix_rows()
        with pytest.raises(RuntimeError):
            ident.prefix_sweeper()

    def test_fit_sets_median_threshold(self, web_run):
        ident = OnlineIdentifier(window_instructions=10_000).fit(web_run.traces)
        cpu_times = [t.cpu_time_us() for t in web_run.traces]
        assert ident.threshold_us == pytest.approx(np.median(cpu_times))
        assert ident.is_fitted

    def test_explicit_threshold_kept(self, web_run):
        ident = OnlineIdentifier(
            window_instructions=10_000, threshold_us=123.0
        ).fit(web_run.traces)
        assert ident.threshold_us == 123.0

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            OnlineIdentifier().fit([])

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            OnlineIdentifier(window_instructions=0)


class TestIdentification:
    @pytest.fixture()
    def fitted(self, web_run):
        half = len(web_run.traces) // 2
        ident = OnlineIdentifier(window_instructions=10_000)
        return ident.fit(web_run.traces[:half]), web_run.traces[half:]

    def test_identify_returns_full_record(self, fitted, web_run):
        """One prefix row per training trace: its pattern, length and kind."""
        ident, _ = fitted
        rows, penalty = ident.prefix_rows()
        training = web_run.traces[: len(web_run.traces) // 2]
        assert len(rows) == len(training)
        for (values, length, label), trace in zip(rows, training):
            assert values == pattern_of(ident, trace).tolist()
            assert length == len(values) > 0
            assert label == trace.spec.kind and label in KINDS
        assert penalty > 0

    def test_identify_trace_prefix(self, fitted):
        """The first 30,000 instructions are 3 windows; the row sweep and
        the scored match pick the same kind from them."""
        ident, test_traces = fitted
        bank = bank_of(ident)
        for trace in test_traces:
            pattern = pattern_of(ident, trace)[: 30_000 // 10_000]
            assert pattern.size == 3
            assert sweep_label(ident, pattern) == bank.match(pattern).signature.label

    def test_full_pattern_beats_chance(self, fitted):
        ident, test_traces = fitted
        errors = prediction_error_curve(
            bank_of(ident),
            [pattern_of(ident, t) for t in test_traces],
            [t.cpu_time_us() for t in test_traces],
            ident.threshold_us,
            [30],
        )
        assert errors[0] < 0.45

    def test_evaluate_prefix_validation(self, fitted):
        ident, test_traces = fitted
        with pytest.raises(ValueError):
            prediction_error_curve(
                bank_of(ident),
                [pattern_of(ident, test_traces[0])],
                [test_traces[0].cpu_time_us()],
                ident.threshold_us,
                [0],
            )

    def test_average_method_supported(self, web_run):
        ident = OnlineIdentifier(
            window_instructions=10_000, method="average"
        ).fit(web_run.traces)
        assert ident.to_state()["bank"]["method"] == "average"
        pattern = pattern_of(ident, web_run.traces[0])
        assert bank_of(ident).identify(pattern[:2]).cpu_time_us > 0

    def test_match_scores_best_and_runner_up(self, fitted):
        ident, test_traces = fitted
        bank = bank_of(ident)
        pattern = pattern_of(ident, test_traces[0])[:3]
        match = bank.match(pattern)
        assert match.distance <= match.runner_up_distance
        assert match.margin >= 0.0
        assert match.signature is bank.identify(pattern)

    def test_state_round_trip_preserves_decisions(self, fitted):
        """The prefix rows are all the pipeline decides from; they and the
        state survive a JSON round trip exactly."""
        ident, _ = fitted
        state = ident.to_state()
        restored = OnlineIdentifier.from_state(json.loads(json.dumps(state)))
        assert restored.threshold_us == ident.threshold_us
        assert restored.prefix_rows() == ident.prefix_rows()
        assert restored.to_state() == state


class TestCrossKindDiscrimination:
    def test_tpcc_kinds_identified(self, tpcc_run):
        """With the CPI metric, the matched label usually recovers the
        transaction type — the classification power behind Figure 10."""
        traces = tpcc_run.traces
        half = len(traces) // 2
        ident = OnlineIdentifier(
            metric="cpi", window_instructions=100_000
        ).fit(traces[:half])
        bank = bank_of(ident)
        hits = 0
        total = 0
        for trace in traces[half:]:
            total += 1
            hits += bank.identify(pattern_of(ident, trace)).label == trace.spec.kind
        assert hits / total > 0.6
