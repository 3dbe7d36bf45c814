"""Online quantile estimation (the P-square algorithm).

The contention-easing scheduler thresholds on the 80-percentile of L2
misses per instruction.  The paper computes this from workload profiling;
a production OS would rather maintain it online.  The P-square algorithm
(Jain & Chlamtac, 1985) tracks a running quantile with five markers and
O(1) work per observation — cheap enough for in-kernel use alongside the
vaEWMA predictors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class OnlineQuantile:
    """Streaming estimate of one quantile via the P-square algorithm."""

    q: float = 0.8

    _initial: List[float] = field(default_factory=list)
    _heights: List[float] = field(default_factory=list)
    _positions: List[float] = field(default_factory=list)
    _desired: List[float] = field(default_factory=list)
    _increments: List[float] = field(default_factory=list)
    count: int = 0

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must be in (0, 1)")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if self._heights:
            self._update(value)
            return
        self._initial.append(value)
        if len(self._initial) == 5:
            self._initial.sort()
            q = self.q
            self._heights = list(self._initial)
            self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
            self._desired = [1.0, 1.0 + 2 * q, 1.0 + 4 * q, 3.0 + 2 * q, 5.0]
            self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def _update(self, value: float) -> None:
        # The fixed five-marker loops are unrolled: this runs once per
        # observation on the online pipeline's per-window path, the
        # contention-easing scheduler's per-period path and every metrics
        # histogram.
        h, n, d = self._heights, self._positions, self._desired
        # Locate the cell containing the new observation (clamping the
        # extremes) and shift the markers above it one position up.
        if value < h[0]:
            h[0] = value
            n[1] += 1.0
            n[2] += 1.0
            n[3] += 1.0
        elif value >= h[4]:
            h[4] = value
        elif value < h[1]:
            n[1] += 1.0
            n[2] += 1.0
            n[3] += 1.0
        elif value < h[2]:
            n[2] += 1.0
            n[3] += 1.0
        elif value < h[3]:
            n[3] += 1.0
        n[4] += 1.0
        increments = self._increments
        d[0] += increments[0]
        d[1] += increments[1]
        d[2] += increments[2]
        d[3] += increments[3]
        d[4] += increments[4]
        # Adjust interior markers toward their desired positions, lowest
        # first: a moved marker is the next one's neighbour.
        delta = d[1] - n[1]
        if delta >= 1.0:
            if n[2] - n[1] > 1.0:
                self._move(1, 1.0)
        elif delta <= -1.0 and n[0] - n[1] < -1.0:
            self._move(1, -1.0)
        delta = d[2] - n[2]
        if delta >= 1.0:
            if n[3] - n[2] > 1.0:
                self._move(2, 1.0)
        elif delta <= -1.0 and n[1] - n[2] < -1.0:
            self._move(2, -1.0)
        delta = d[3] - n[3]
        if delta >= 1.0:
            if n[4] - n[3] > 1.0:
                self._move(3, 1.0)
        elif delta <= -1.0 and n[2] - n[3] < -1.0:
            self._move(3, -1.0)

    def _move(self, i: int, step: float) -> None:
        """Move interior marker ``i`` one position by ``step`` (+-1.0).

        Its height follows the piecewise-parabolic (P-square) prediction,
        or the linear one when the parabola leaves the neighbours' range.
        """
        h, n = self._heights, self._positions
        below, height, above = h[i - 1], h[i], h[i + 1]
        n_below, position, n_above = n[i - 1], n[i], n[i + 1]
        candidate = height + step / (n_above - n_below) * (
            (position - n_below + step) * (above - height) / (n_above - position)
            + (n_above - position - step) * (height - below) / (position - n_below)
        )
        if below < candidate < above:
            h[i] = candidate
        else:
            j = i + int(step)
            h[i] = height + step * (h[j] - height) / (n[j] - position)
        n[i] = position + step

    def to_state(self) -> dict:
        """JSON-ready snapshot of the full estimator state.

        Every marker is a Python float, so a json round trip restores the
        estimator bit-exactly — subsequent observations and estimates are
        byte-identical to an uninterrupted run (the online-pipeline
        checkpoint contract).
        """
        return {
            "q": self.q,
            "initial": list(self._initial),
            "heights": list(self._heights),
            "positions": list(self._positions),
            "desired": list(self._desired),
            "increments": list(self._increments),
            "count": self.count,
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineQuantile":
        estimator = cls(q=float(state["q"]))
        estimator._initial = [float(v) for v in state["initial"]]
        estimator._heights = [float(v) for v in state["heights"]]
        estimator._positions = [float(v) for v in state["positions"]]
        estimator._desired = [float(v) for v in state["desired"]]
        estimator._increments = [float(v) for v in state["increments"]]
        estimator.count = int(state["count"])
        return estimator

    def estimate(self) -> Optional[float]:
        """The current quantile estimate (None before any observation)."""
        if self._heights:
            return self._heights[2]
        if not self._initial:
            return None
        # Nearest-rank (ceil(q*n) as a 1-based rank), matching the
        # convention the five-marker estimate converges to post-warmup.
        ordered = sorted(self._initial)
        index = max(0, math.ceil(self.q * len(ordered)) - 1)
        return ordered[min(len(ordered) - 1, index)]
