"""Tests for online signature identification (Section 4.4)."""

import numpy as np
import pytest

from repro.core.signatures import (
    RecentPastPredictor,
    SignatureBank,
    prediction_error_curve,
)


def make_bank(method="variation", penalty=1.0):
    bank = SignatureBank(penalty=penalty, method=method)
    bank.add([1.0, 1.0, 1.0, 1.0], cpu_time_us=100.0, label="flat")
    bank.add([1.0, 5.0, 1.0, 5.0], cpu_time_us=900.0, label="spiky")
    return bank


class TestSignatureBank:
    def test_identify_full_pattern(self):
        bank = make_bank()
        assert bank.identify([1.0, 5.0, 1.0, 5.0]).label == "spiky"
        assert bank.identify([1.1, 0.9, 1.0, 1.0]).label == "flat"

    def test_identify_partial_prefix(self):
        """Identification uses only the observed prefix."""
        bank = make_bank()
        assert bank.identify([1.0, 4.8]).label == "spiky"

    def test_predict_cpu_above(self):
        bank = make_bank()
        assert bank.predict_cpu_above([1.0, 5.0], threshold_us=500.0)
        assert not bank.predict_cpu_above([1.0, 1.0], threshold_us=500.0)

    def test_average_method_ignores_pattern(self):
        bank = make_bank(method="average")
        # Average of [3, 3] equals the spiky signature's prefix mean (3.0),
        # not the flat one's (1.0).
        assert bank.identify([3.0, 3.0]).label == "spiky"

    def test_variation_method_separates_equal_averages(self):
        bank = SignatureBank(penalty=1.0, method="variation")
        bank.add([0.0, 6.0], cpu_time_us=1.0, label="spiky")
        bank.add([3.0, 3.0], cpu_time_us=2.0, label="flat")
        # Equal averages; only the variation pattern distinguishes them.
        assert bank.identify([0.1, 5.9]).label == "spiky"

    def test_empty_bank_raises(self):
        bank = SignatureBank(penalty=1.0)
        with pytest.raises(ValueError):
            bank.identify([1.0])

    def test_empty_pattern_raises(self):
        with pytest.raises(ValueError):
            make_bank().identify([])

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            SignatureBank(penalty=1.0, method="magic")

    def test_invalid_penalty(self):
        with pytest.raises(ValueError):
            SignatureBank(penalty=-1.0)

    def test_empty_signature_rejected(self):
        with pytest.raises(ValueError):
            make_bank().add([], cpu_time_us=1.0)

    def test_len(self):
        assert len(make_bank()) == 2

    def test_vectorized_sweep_matches_l1_distance(self):
        """The streaming fast path must agree with Equation 2 exactly,
        including the penalty for partials outrunning short signatures."""
        from repro.core.distances import l1_distance

        rng = np.random.default_rng(5)
        bank = SignatureBank(penalty=0.37)
        signatures = [rng.uniform(0, 4, size=n) for n in (3, 7, 12, 12, 5)]
        for i, values in enumerate(signatures):
            bank.add(values, cpu_time_us=float(i))
        for w in (1, 3, 5, 7, 12, 20):
            partial = rng.uniform(0, 4, size=w)
            expected = [
                l1_distance(partial, s[:w], penalty=0.37) for s in signatures
            ]
            got = bank._variation_distances(partial)
            np.testing.assert_allclose(got, expected, rtol=1e-12)
            match = bank.match(partial)
            assert match.index == int(np.argmin(expected))
            assert match.distance == got[match.index]


class TestNearestLabel:
    """Every prefix sweep picks the nearest signature's label as match()."""

    def test_agrees_with_match_small_bank(self):
        """The vectorized sweeper, extended window by window."""
        rng = np.random.default_rng(7)
        bank = SignatureBank(penalty=0.41)
        for i, n in enumerate((3, 7, 12, 12, 5)):
            bank.add(rng.uniform(0, 4, size=n), cpu_time_us=1.0, label=f"s{i}")
        sweeper, labels = bank.prefix_sweeper()
        partial = list(rng.uniform(0, 4, size=15))
        dists = sweeper.start(partial[:1])
        for w in range(len(partial)):
            if w:
                sweeper.extend(dists, w, partial[w])
            expected = bank.match(partial[: w + 1]).signature.label
            assert labels[int(np.argmin(dists))] == expected

    def test_agrees_with_match_above_numpy_threshold(self):
        """A bank at the pipeline's sweeper threshold: the sweeper and the
        plain-Python rows pick the same winner as match()."""
        from repro.online.pipeline import SWEEP_MIN_BANK

        rng = np.random.default_rng(8)
        bank = SignatureBank(penalty=0.2)
        for i in range(SWEEP_MIN_BANK):
            bank.add(rng.uniform(0, 4, size=80), cpu_time_us=1.0, label=f"s{i}")
        partial = rng.uniform(0, 4, size=60)
        expected = bank.match(partial).signature.label
        sweeper, labels = bank.prefix_sweeper()
        assert labels[int(np.argmin(sweeper.start(partial)))] == expected
        rows, penalty = bank.prefix_rows()
        dists = [
            sum(
                abs(x - values[w]) if w < length else penalty
                for w, x in enumerate(partial)
            )
            for values, length, _ in rows
        ]
        assert rows[int(np.argmin(dists))][2] == expected

    def test_average_method_delegates(self):
        """An "average" bank scores each prefix by its average-value
        distance, through the distance engine."""
        from repro.core.distances import average_metric_distance

        bank = make_bank(method="average")
        partial = np.array([3.0, 2.0, 4.0])
        flat, spiky = (
            average_metric_distance(partial, np.array(prefix))
            for prefix in ([1.0, 1.0, 1.0], [1.0, 5.0, 1.0])
        )
        match = bank.match(partial)
        assert match.signature.label == "spiky"
        assert (match.distance, match.runner_up_distance) == (spiky, flat)

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            SignatureBank(penalty=1.0).prefix_sweeper()
        with pytest.raises(ValueError):
            make_bank().match([])


class TestPrefixRows:
    def test_incremental_sweep_reproduces_nearest_label(self):
        """A caller-maintained running distance finds the same winner."""
        rng = np.random.default_rng(9)
        bank = SignatureBank(penalty=0.3)
        for i, n in enumerate((4, 6, 9)):
            bank.add(rng.uniform(0, 2, size=n), cpu_time_us=1.0, label=f"s{i}")
        rows, penalty = bank.prefix_rows()
        assert penalty == 0.3
        dists = [0.0] * len(rows)
        partial = []
        for w, x in enumerate(rng.uniform(0, 2, size=11)):
            partial.append(float(x))
            for i, (values, length, _) in enumerate(rows):
                dists[i] += abs(x - values[w]) if w < length else penalty
            best = min(range(len(rows)), key=lambda i: dists[i])
            assert rows[best][2] == bank.match(partial).signature.label

    def test_empty_bank_raises(self):
        with pytest.raises(ValueError):
            SignatureBank(penalty=1.0).prefix_rows()


class TestRecentPastPredictor:
    def test_none_before_observations(self):
        assert RecentPastPredictor().predict_cpu_above(10.0) is None

    def test_window_slides(self):
        p = RecentPastPredictor(window=2)
        p.observe_completion(100.0)
        p.observe_completion(100.0)
        p.observe_completion(1.0)
        # Window holds [100, 1] -> mean 50.5
        assert p.predict_cpu_above(40.0) is True
        assert p.predict_cpu_above(60.0) is False

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RecentPastPredictor(window=0)


class TestPredictionErrorCurve:
    def test_perfect_identification_zero_error(self):
        bank = make_bank()
        patterns = [np.array([1.0, 1.0, 1.0, 1.0]), np.array([1.0, 5.0, 1.0, 5.0])]
        cpu = [100.0, 900.0]
        errors = prediction_error_curve(bank, patterns, cpu, 500.0, [2, 4])
        assert np.all(errors == 0.0)

    def test_error_declines_with_progress(self):
        bank = SignatureBank(penalty=1.0)
        bank.add([1.0, 1.0, 9.0, 9.0], cpu_time_us=900.0)
        bank.add([1.0, 1.0, 1.0, 1.0], cpu_time_us=100.0)
        # Test patterns identical preludes, divergent tails.
        patterns = [np.array([1.0, 1.0, 9.0, 9.0]), np.array([1.0, 1.0, 1.0, 1.0])]
        cpu = [900.0, 100.0]
        errors = prediction_error_curve(bank, patterns, cpu, 500.0, [1, 4])
        assert errors[1] <= errors[0]
        assert errors[1] == 0.0

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            prediction_error_curve(make_bank(), [np.array([1.0])], [], 1.0, [1])

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            prediction_error_curve(
                make_bank(), [np.array([1.0])], [1.0], 1.0, [0]
            )
