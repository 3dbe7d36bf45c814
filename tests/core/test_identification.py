"""Tests for the trained state of online identification."""

import json

import numpy as np
import pytest

from repro.core.distances import unequal_length_penalty
from repro.core.identification import IDENTIFY_METRIC, OnlineIdentifier
from repro.core.signatures import SignatureBank, prediction_error_curve

KINDS = ("class0", "class1", "class2", "class3")


def pattern_of(identifier, trace):
    """A trace's signature pattern at the identifier's window."""
    return trace.series(IDENTIFY_METRIC, identifier.window_instructions).values


def bank_from(traces, metric, window, method="variation", seed=0):
    """A signature bank built the way ``OnlineIdentifier.fit`` builds its
    own, from another metric or with another signature form."""
    patterns = [t.series(metric, window).values for t in traces]
    penalty = unequal_length_penalty(
        np.concatenate(patterns), np.random.default_rng(seed)
    )
    bank = SignatureBank(penalty=penalty, method=method)
    for pattern, trace in zip(patterns, traces):
        bank.add(pattern, trace.cpu_time_us(), label=trace.spec.kind)
    return bank


def median_cpu_time(traces):
    """The expensive/cheap threshold Figure 10 scores against: the
    training population's median CPU time."""
    return float(np.median([t.cpu_time_us() for t in traces]))


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

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            OnlineIdentifier().fit([])

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            OnlineIdentifier(window_instructions=0)

    def test_settable_surface(self):
        """A window and a seed; metric and signature form are fixed."""
        ident = OnlineIdentifier(window_instructions=10_000, seed=3)
        assert sorted(ident.to_state()) == ["bank", "seed", "window_instructions"]
        with pytest.raises(TypeError, match="method"):
            OnlineIdentifier(method="average")

    @pytest.mark.parametrize(
        "field, value",
        [("window_instructions", None), ("seed", "x"), ("bank", {"penalty": 1.0})],
    )
    def test_malformed_state_names_the_field(self, web_run, field, value):
        state = OnlineIdentifier(window_instructions=10_000).fit(
            web_run.traces
        ).to_state()
        state[field] = value
        with pytest.raises(ValueError, match=f"field {field!r}"):
            OnlineIdentifier.from_state(state)
        del state[field]
        with pytest.raises(ValueError, match=f"no {field!r} field"):
            OnlineIdentifier.from_state(state)


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

    def test_bank_from_rebuilds_the_fit_bank(self, fitted, web_run):
        """So the tests below that build a CPI or an average bank with
        ``bank_from`` build it the way ``fit`` would."""
        ident, _ = fitted
        training = web_run.traces[: len(web_run.traces) // 2]
        assert bank_from(training, IDENTIFY_METRIC, 10_000).to_state() == (
            ident.to_state()["bank"]
        )

    def test_identify_trace_prefix(self, fitted):
        """The first 30,000 instructions are 3 windows; the row sweep and
        the scored match pick the same kind from them."""
        ident, test_traces = fitted
        bank = bank_of(ident)
        for trace in test_traces:
            pattern = pattern_of(ident, trace)[: 30_000 // 10_000]
            assert pattern.size == 3
            assert sweep_label(ident, pattern) == bank.match(pattern).signature.label

    def test_full_pattern_beats_chance(self, fitted, web_run):
        ident, test_traces = fitted
        training = web_run.traces[: len(web_run.traces) // 2]
        errors = prediction_error_curve(
            bank_of(ident),
            [pattern_of(ident, t) for t in test_traces],
            [t.cpu_time_us() for t in test_traces],
            median_cpu_time(training),
            [30],
        )
        assert errors[0] < 0.45

    def test_evaluate_prefix_validation(self, fitted, web_run):
        ident, test_traces = fitted
        training = web_run.traces[: len(web_run.traces) // 2]
        with pytest.raises(ValueError):
            prediction_error_curve(
                bank_of(ident),
                [pattern_of(ident, test_traces[0])],
                [test_traces[0].cpu_time_us()],
                median_cpu_time(training),
                [0],
            )

    def test_average_method_supported(self, web_run):
        """Figure 10's prior signature form: average-value banks."""
        bank = bank_from(
            web_run.traces, IDENTIFY_METRIC, 10_000, method="average"
        )
        assert bank.to_state()["method"] == "average"
        pattern = web_run.traces[0].series(IDENTIFY_METRIC, 10_000).values
        assert bank.identify(pattern[:2]).cpu_time_us > 0

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
        assert restored.prefix_rows() == ident.prefix_rows()
        assert restored.to_state() == state


class TestCrossKindDiscrimination:
    def test_tpcc_kinds_identified(self, tpcc_run):
        """With the CPI metric, the matched label usually recovers the
        transaction type — the classification power behind Figure 10."""
        traces = tpcc_run.traces
        half = len(traces) // 2
        bank = bank_from(traces[:half], "cpi", 100_000)
        hits = 0
        total = 0
        for trace in traces[half:]:
            total += 1
            pattern = trace.series("cpi", 100_000).values
            hits += bank.identify(pattern).label == trace.spec.kind
        assert hits / total > 0.6
