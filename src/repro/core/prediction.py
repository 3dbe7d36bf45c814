"""Online request-behavior predictors (Section 5.1).

All predictors share one interface: ``observe(value, length)`` feeds one
execution-period sample (metric value plus period length), ``predict()``
returns the estimate for the coming period.  The paper's contribution is
the **variable-aging EWMA** (vaEWMA): counter samples taken at context
switches and system calls have widely varying durations, so each new sample
should age previous history in proportion to its length (Equation 5):

    E_k = alpha^(t_k / t_hat) * E_{k-1} + (1 - alpha^(t_k / t_hat)) * O_k
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.stats import root_mean_square_error


class Predictor:
    """Interface for online per-request metric predictors."""

    def observe(self, value: float, length: float = 1.0) -> None:
        raise NotImplementedError

    def predict(self) -> Optional[float]:
        """Estimate for the next period; None before any observation."""
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


@dataclass
class LastValue(Predictor):
    """Assumes short-term stable behavior: next value = last value."""

    _last: Optional[float] = None

    def observe(self, value, length=1.0):
        self._last = float(value)

    def predict(self):
        return self._last

    def reset(self):
        self._last = None


@dataclass
class RunningAverage(Predictor):
    """Assumes no variation: next value = request average so far.

    The average is length-weighted (cumulative counters divided by
    cumulative period length), matching how a cumulative-counter
    implementation would compute it.
    """

    _weighted_sum: float = 0.0
    _total_length: float = 0.0

    def observe(self, value, length=1.0):
        if length <= 0:
            raise ValueError("length must be positive")
        self._weighted_sum += float(value) * float(length)
        self._total_length += float(length)

    def predict(self):
        if self._total_length == 0:
            return None
        return self._weighted_sum / self._total_length

    def reset(self):
        self._weighted_sum = 0.0
        self._total_length = 0.0


@dataclass
class VaEwma(Predictor):
    """Variable-aging EWMA (Equation 5).

    A sample of length ``t`` ages prior history by ``alpha ** (t/t_hat)``,
    so that long observation periods displace more history than short ones.
    With all periods equal to ``unit_length`` this reduces exactly to the
    classic EWMA of Equation 4, ``E_k = alpha * E_{k-1} + (1 - alpha) * O_k``.
    """

    alpha: float = 0.6
    unit_length: float = 1.0
    _estimate: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.unit_length <= 0:
            raise ValueError("unit_length must be positive")

    def observe(self, value, length=1.0):
        if length <= 0:
            raise ValueError("length must be positive")
        value = float(value)
        aging = self.alpha ** (float(length) / self.unit_length)
        if self._estimate is None:
            self._estimate = value
        else:
            self._estimate = aging * self._estimate + (1 - aging) * value

    def predict(self):
        return self._estimate

    def reset(self):
        self._estimate = None


def evaluate_predictor(
    predictor: Predictor, values, lengths=None, warmup: int = 1
) -> float:
    """Length-weighted RMS one-step-ahead prediction error (Equation 7).

    Feeds the sample sequence through ``predictor``; at each step the
    estimate produced from samples ``0..k-1`` is scored against sample
    ``k``.  The first ``warmup`` samples are used for priming only.
    """
    values = np.asarray(values, dtype=float)
    if lengths is None:
        lengths = np.ones_like(values)
    else:
        lengths = np.asarray(lengths, dtype=float)
    if values.shape != lengths.shape:
        raise ValueError("values and lengths must have the same shape")
    if values.size <= warmup:
        raise ValueError("not enough samples to evaluate")

    predictor.reset()
    predictions = []
    for k, (value, length) in enumerate(zip(values, lengths)):
        if k >= warmup:
            predictions.append(predictor.predict())
        predictor.observe(value, length)
    predictions = np.asarray(predictions, dtype=float)
    return root_mean_square_error(
        values[warmup:], predictions, weights=lengths[warmup:]
    )
