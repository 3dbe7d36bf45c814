"""Tests for the incremental per-window group centroids.

:meth:`IncrementalCentroid.observe` scores a window value against the
running mean and folds it in, in one step.  The oracle below is the
two-step form it replaced — ``deviation()`` (score) followed by
``observe()`` (fold) — kept here as the reference the fused step must
equal bit for bit.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.centroids import GroupCentroids, IncrementalCentroid


class ReferenceCentroid:
    """The score-then-fold pair as two separate steps (the oracle)."""

    def __init__(self, max_windows):
        self.max_windows = max_windows
        self._means = []
        self._counts = []

    def mean_at(self, window_index):
        if 0 <= window_index < len(self._means) and self._counts[window_index] > 0:
            return self._means[window_index]
        return None

    def deviation(self, window_index, value):
        mean = self.mean_at(window_index)
        if mean is None:
            return None
        return abs(float(value) - mean)

    def observe(self, window_index, value):
        if window_index < 0:
            raise ValueError("window_index must be non-negative")
        if window_index >= self.max_windows:
            return
        while len(self._means) <= window_index:
            self._means.append(0.0)
            self._counts.append(0)
        self._counts[window_index] += 1
        count = self._counts[window_index]
        self._means[window_index] += (float(value) - self._means[window_index]) / count


def bits(value):
    return None if value is None else struct.pack("<d", value)


#: Window values: a small pool (so duplicates and constant runs occur),
#: signed zeros, extremes and arbitrary finite floats.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0, 5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=10.0),
)


@st.composite
def window_streams(draw):
    max_windows = draw(st.integers(min_value=1, max_value=6))
    # Indices run up to past the cap, so first-seen indices (which pad
    # the gap), revisited ones and capped ones all occur.
    index = st.integers(min_value=0, max_value=max_windows + 2)
    steps = draw(st.lists(st.tuples(index, VALUES), max_size=60))
    runs = draw(st.lists(st.tuples(index, VALUES, st.integers(2, 6)), max_size=3))
    for window_index, value, repeat in runs:
        steps.extend([(window_index, value)] * repeat)
    return max_windows, steps


class TestFusedObserve:
    @settings(max_examples=300, deadline=None)
    @given(window_streams())
    def test_equals_deviation_then_observe(self, stream):
        max_windows, steps = stream
        fused = IncrementalCentroid(max_windows)
        reference = ReferenceCentroid(max_windows)
        for window_index, value in steps:
            expected = reference.deviation(window_index, value)
            reference.observe(window_index, value)
            assert bits(fused.observe(window_index, value)) == bits(expected)
            assert [bits(m) for m in fused._means] == [
                bits(m) for m in reference._means
            ]
            assert fused._counts == reference._counts

    def test_first_seen_index_pads_and_scores_none(self):
        centroid = IncrementalCentroid(max_windows=8)
        assert centroid.observe(3, 2.0) is None
        assert len(centroid) == 4
        assert [centroid.count_at(i) for i in range(4)] == [0, 0, 0, 1]
        # A padded index has no evidence yet: scored None, then folded.
        assert centroid.observe(1, 7.0) is None
        assert centroid.mean_at(1) == 7.0
        assert centroid.observe(3, 5.0) == 3.0
        assert centroid.mean_at(3) == 3.5

    def test_index_at_or_beyond_cap_is_ignored(self):
        centroid = IncrementalCentroid(max_windows=2)
        assert centroid.observe(2, 1.0) is None
        assert centroid.observe(9, 1.0) is None
        assert len(centroid) == 0
        assert centroid.to_state()["counts"] == []

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            IncrementalCentroid().observe(-1, 1.0)

    def test_state_round_trip_continues_identically(self):
        live = IncrementalCentroid(max_windows=4)
        for index, value in [(0, 1.0), (1, 2.0), (0, 3.0), (2, 0.5)]:
            live.observe(index, value)
        restored = IncrementalCentroid.from_state(live.to_state())
        for index, value in [(0, 4.0), (3, 1.0), (1, 2.5)]:
            assert restored.observe(index, value) == live.observe(index, value)
        assert restored.to_state() == live.to_state()


class TestGroupCentroids:
    def test_group_is_created_once_and_kept(self):
        groups = GroupCentroids(max_windows=3)
        first = groups.group("a")
        assert groups.group("a") is first
        assert first.max_windows == 3
        assert sorted(groups.groups) == ["a"]
