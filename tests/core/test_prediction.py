"""Tests for online behavior predictors (EWMA / vaEWMA, Section 5.1)."""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prediction import (
    LastValue,
    Predictor,
    RunningAverage,
    VaEwma,
    evaluate_predictor,
)


@dataclass
class Ewma(Predictor):
    """Classic exponentially weighted moving average (Equation 4).

    The oracle for :class:`VaEwma`, which must reduce to it at unit
    period lengths.
    """

    alpha: float = 0.6
    _estimate: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")

    def observe(self, value, length=1.0):
        value = float(value)
        if self._estimate is None:
            self._estimate = value
        else:
            self._estimate = self.alpha * self._estimate + (1 - self.alpha) * value

    def predict(self):
        return self._estimate

    def reset(self):
        self._estimate = None


value_seqs = st.lists(
    st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=20,
)


class TestLastValue:
    def test_predicts_last(self):
        p = LastValue()
        assert p.predict() is None
        p.observe(3.0)
        p.observe(7.0)
        assert p.predict() == 7.0

    def test_reset(self):
        p = LastValue()
        p.observe(1.0)
        p.reset()
        assert p.predict() is None


class TestRunningAverage:
    def test_weighted_average(self):
        p = RunningAverage()
        p.observe(1.0, length=3.0)
        p.observe(5.0, length=1.0)
        assert p.predict() == pytest.approx(2.0)

    def test_none_before_observation(self):
        assert RunningAverage().predict() is None

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            RunningAverage().observe(1.0, length=0.0)


class TestEwma:
    def test_equation_four(self):
        p = Ewma(alpha=0.5)
        p.observe(10.0)
        p.observe(20.0)
        # E = 0.5*10 + 0.5*20
        assert p.predict() == pytest.approx(15.0)

    def test_first_observation_initializes(self):
        p = Ewma(alpha=0.9)
        p.observe(4.0)
        assert p.predict() == 4.0

    def test_high_alpha_is_stable(self):
        stable = Ewma(alpha=0.9)
        agile = Ewma(alpha=0.1)
        for predictor in (stable, agile):
            predictor.observe(0.0)
            predictor.observe(100.0)
        assert stable.predict() < agile.predict()

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ValueError):
            Ewma(alpha=alpha)


class TestVaEwma:
    def test_reduces_to_ewma_at_unit_lengths(self):
        """Equation 5 with t_k = t_hat is exactly Equation 4."""
        ewma = Ewma(alpha=0.6)
        va = VaEwma(alpha=0.6, unit_length=1.0)
        rng = np.random.default_rng(0)
        for value in rng.random(50):
            ewma.observe(value)
            va.observe(value, length=1.0)
            assert va.predict() == pytest.approx(ewma.predict())

    def test_long_observation_ages_more(self):
        """A long sample displaces more history than a short one."""
        short = VaEwma(alpha=0.6, unit_length=1.0)
        long = VaEwma(alpha=0.6, unit_length=1.0)
        for p in (short, long):
            p.observe(0.0, length=1.0)
        short.observe(10.0, length=1.0)
        long.observe(10.0, length=5.0)
        assert long.predict() > short.predict()

    def test_matches_equation_six_expansion(self):
        """The incremental form (Eq. 5) equals the expanded form (Eq. 6)."""
        alpha, t_hat = 0.7, 2.0
        observations = [(3.0, 1.0), (5.0, 4.0), (2.0, 0.5), (8.0, 2.0)]
        p = VaEwma(alpha=alpha, unit_length=t_hat)
        for value, length in observations:
            p.observe(value, length)
        # Expanded: weight of O_i is alpha^(sum_{j>i} t_j/t_hat)*(1-alpha^(t_i/t_hat)),
        # except the first observation which seeds the estimate.
        expected = observations[0][0]
        for value, length in observations[1:]:
            aging = alpha ** (length / t_hat)
            expected = aging * expected + (1 - aging) * value
        assert p.predict() == pytest.approx(expected)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            VaEwma(alpha=1.2)
        with pytest.raises(ValueError):
            VaEwma(unit_length=0.0)
        with pytest.raises(ValueError):
            VaEwma().observe(1.0, length=-1.0)

    @given(value_seqs)
    @settings(max_examples=50, deadline=None)
    def test_estimate_within_observed_range(self, values):
        p = VaEwma(alpha=0.5, unit_length=1.0)
        for v in values:
            p.observe(v, length=1.0)
        assert min(values) - 1e-9 <= p.predict() <= max(values) + 1e-9


class TestEvaluatePredictor:
    def test_perfect_on_constant_series(self):
        rmse = evaluate_predictor(LastValue(), [5.0] * 10)
        assert rmse == pytest.approx(0.0)

    def test_last_value_on_alternating_series(self):
        values = [0.0, 1.0] * 5
        rmse = evaluate_predictor(LastValue(), values)
        assert rmse == pytest.approx(1.0)

    def test_average_beats_last_on_noise_around_mean(self):
        rng = np.random.default_rng(1)
        values = 5.0 + rng.standard_normal(200)
        avg_err = evaluate_predictor(RunningAverage(), values)
        last_err = evaluate_predictor(LastValue(), values)
        assert avg_err < last_err

    def test_vaewma_beats_average_on_level_shifts(self):
        """The paper's motivation: adapting filters track behavior changes."""
        values = np.concatenate([np.full(50, 1.0), np.full(50, 10.0)])
        va_err = evaluate_predictor(VaEwma(alpha=0.6), values)
        avg_err = evaluate_predictor(RunningAverage(), values)
        assert va_err < avg_err

    def test_warmup_requires_enough_samples(self):
        with pytest.raises(ValueError):
            evaluate_predictor(LastValue(), [1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            evaluate_predictor(LastValue(), [1.0, 2.0], lengths=[1.0])
