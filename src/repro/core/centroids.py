"""Incremental per-window group centroids for streaming anomaly detection.

The offline centroid-distance detector (:mod:`repro.core.anomaly`) needs
the full pairwise distance matrix of a finished request group to locate
the member closest to everyone else.  A streaming detector cannot afford
that: it maintains, per semantic group, the *running mean* metric value of
every fixed-instruction window index — an O(windows) summary updated in
O(1) per observation — and scores an in-flight request by its mean
absolute deviation from the group mean over the windows observed so far.

The window-indexed mean handles requests of unequal length naturally:
window ``w`` of the centroid only aggregates requests that ran at least
``w + 1`` windows, exactly like the prefix comparison of the paper's
online signature matching.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class IncrementalCentroid:
    """Running per-window mean pattern of one request group.

    ``max_windows`` bounds memory: window indices at or beyond it are
    ignored (long-tail windows carry little population evidence anyway).
    """

    def __init__(self, max_windows: int = 512):
        if max_windows < 1:
            raise ValueError("max_windows must be positive")
        self.max_windows = max_windows
        self._means: List[float] = []
        self._counts: List[int] = []

    def __len__(self) -> int:
        return len(self._means)

    def observe(self, window_index: int, value: float) -> Optional[float]:
        """Score one request's window value, then fold it into the mean.

        Returns the value's absolute deviation from the running mean as it
        stood *before* the fold, or None when no population evidence
        existed at that index yet.  Indices at or beyond ``max_windows``
        are neither scored nor folded.  ``value`` must be a float.
        """
        if window_index < 0:
            raise ValueError("window_index must be non-negative")
        means = self._means
        counts = self._counts
        if window_index >= len(means):
            if window_index >= self.max_windows:
                return None
            while len(means) <= window_index:
                means.append(0.0)
                counts.append(0)
        mean = means[window_index]
        count = counts[window_index]
        deviation = abs(value - mean) if count else None
        count += 1
        counts[window_index] = count
        means[window_index] = mean + (value - mean) / count
        return deviation

    def mean_at(self, window_index: int) -> Optional[float]:
        """Centroid value at a window index (None without evidence)."""
        if 0 <= window_index < len(self._means) and self._counts[window_index] > 0:
            return self._means[window_index]
        return None

    def count_at(self, window_index: int) -> int:
        if 0 <= window_index < len(self._counts):
            return self._counts[window_index]
        return 0

    # -- checkpointing ---------------------------------------------------

    def to_state(self) -> dict:
        return {
            "max_windows": self.max_windows,
            "means": list(self._means),
            "counts": list(self._counts),
        }

    @classmethod
    def from_state(cls, state: dict) -> "IncrementalCentroid":
        centroid = cls(max_windows=int(state["max_windows"]))
        centroid._means = [float(v) for v in state["means"]]
        centroid._counts = [int(c) for c in state["counts"]]
        return centroid


class GroupCentroids:
    """Name-keyed :class:`IncrementalCentroid` collection."""

    def __init__(self, max_windows: int = 512):
        self.max_windows = max_windows
        self._groups: Dict[str, IncrementalCentroid] = {}

    def group(self, key: str) -> IncrementalCentroid:
        centroid = self._groups.get(key)
        if centroid is None:
            centroid = self._groups[key] = IncrementalCentroid(self.max_windows)
        return centroid

    @property
    def groups(self) -> Dict[str, IncrementalCentroid]:
        return dict(self._groups)

    def to_state(self) -> dict:
        return {
            "max_windows": self.max_windows,
            "groups": {
                key: self._groups[key].to_state() for key in sorted(self._groups)
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "GroupCentroids":
        centroids = cls(max_windows=int(state["max_windows"]))
        for key, group_state in state["groups"].items():
            centroids._groups[key] = IncrementalCentroid.from_state(group_state)
        return centroids
