"""Tests for the P-square online quantile estimator."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantile import OnlineQuantile


class TestBasics:
    def test_none_before_observations(self):
        assert OnlineQuantile(q=0.8).estimate() is None

    def test_small_sample_exact(self):
        est = OnlineQuantile(q=0.5)
        for v in (3.0, 1.0, 2.0):
            est.observe(v)
        assert est.estimate() in (1.0, 2.0, 3.0)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            OnlineQuantile(q=0.0)
        with pytest.raises(ValueError):
            OnlineQuantile(q=1.0)

    def test_count(self):
        est = OnlineQuantile()
        for _ in range(12):
            est.observe(1.0)
        assert est.count == 12


class TestAccuracy:
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8, 0.95])
    def test_uniform_distribution(self, q):
        rng = np.random.default_rng(7)
        est = OnlineQuantile(q=q)
        data = rng.uniform(0.0, 1.0, 5000)
        for v in data:
            est.observe(v)
        assert est.estimate() == pytest.approx(q, abs=0.05)

    def test_normal_distribution_p80(self):
        rng = np.random.default_rng(8)
        est = OnlineQuantile(q=0.8)
        data = rng.standard_normal(5000) * 2.0 + 10.0
        for v in data:
            est.observe(v)
        assert est.estimate() == pytest.approx(np.percentile(data, 80), rel=0.03)

    def test_heavy_tailed_distribution(self):
        rng = np.random.default_rng(9)
        est = OnlineQuantile(q=0.8)
        data = rng.exponential(1.0, 5000)
        for v in data:
            est.observe(v)
        assert est.estimate() == pytest.approx(np.percentile(data, 80), rel=0.1)

    def test_adapts_to_level_shift(self):
        est = OnlineQuantile(q=0.8)
        rng = np.random.default_rng(10)
        for v in rng.uniform(0, 1, 500):
            est.observe(v)
        for v in rng.uniform(10, 11, 3000):
            est.observe(v)
        assert est.estimate() > 9.0

    def test_constant_stream(self):
        est = OnlineQuantile(q=0.8)
        for _ in range(100):
            est.observe(5.0)
        assert est.estimate() == pytest.approx(5.0)

    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_estimate_within_observed_range(self, values):
        est = OnlineQuantile(q=0.8)
        for v in values:
            est.observe(v)
        assert min(values) - 1e-9 <= est.estimate() <= max(values) + 1e-9


class TestEdgeCases:
    """Empty, single-observation, and duplicate-heavy streams (the inputs
    the contention scheduler's adaptive threshold actually feeds it)."""

    def test_empty_estimator_reports_none_and_zero_count(self):
        est = OnlineQuantile(q=0.8)
        assert est.estimate() is None
        assert est.count == 0

    def test_single_observation_is_the_estimate(self):
        est = OnlineQuantile(q=0.8)
        est.observe(0.042)
        assert est.estimate() == 0.042
        assert est.count == 1

    def test_duplicate_heavy_sorted_stream_stays_in_range(self):
        # All duplicates first is the P-square worst case: the estimate
        # drifts but must remain inside the observed value range.
        est = OnlineQuantile(q=0.8)
        for v in [0.0] * 900 + [1.0] * 100:
            est.observe(v)
        assert 0.0 <= est.estimate() <= 1.0

    def test_duplicate_heavy_shuffled_stream_tracks_mass(self):
        rng = np.random.default_rng(17)
        values = np.array([0.0] * 900 + [1.0] * 100)
        rng.shuffle(values)
        est = OnlineQuantile(q=0.8)
        for v in values:
            est.observe(float(v))
        # 80th percentile of 90% zeros is zero; interleaved duplicates
        # must keep the estimate near the duplicate mass.
        assert est.estimate() == pytest.approx(0.0, abs=0.05)

    def test_all_identical_then_one_outlier(self):
        est = OnlineQuantile(q=0.8)
        for _ in range(50):
            est.observe(3.0)
        est.observe(100.0)
        assert 3.0 <= est.estimate() <= 100.0

    def test_alternating_duplicates(self):
        est = OnlineQuantile(q=0.5)
        for _ in range(200):
            est.observe(1.0)
            est.observe(2.0)
        assert 1.0 <= est.estimate() <= 2.0


class TestPreWarmupNearestRank:
    """Before the five-marker warm-up the estimate is the nearest-rank
    order statistic (1-based rank ceil(q*n)), matching the post-warmup
    convention — not the off-by-one int(q*n) index."""

    def test_median_of_two(self):
        est = OnlineQuantile(q=0.5)
        est.observe(1.0)
        est.observe(9.0)
        # ceil(0.5 * 2) = rank 1 -> the lower value, not the upper.
        assert est.estimate() == 1.0

    def test_median_of_four(self):
        est = OnlineQuantile(q=0.5)
        for v in (4.0, 1.0, 3.0, 2.0):
            est.observe(v)
        assert est.estimate() == 2.0

    def test_low_quantile_of_four(self):
        est = OnlineQuantile(q=0.25)
        for v in (4.0, 1.0, 3.0, 2.0):
            est.observe(v)
        assert est.estimate() == 1.0

    def test_high_quantile_of_four(self):
        est = OnlineQuantile(q=0.8)
        for v in (4.0, 1.0, 3.0, 2.0):
            est.observe(v)
        # ceil(0.8 * 4) = rank 4.
        assert est.estimate() == 4.0

    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=4,
        ),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_nearest_rank_definition(self, values, q):
        import math

        est = OnlineQuantile(q=q)
        for v in values:
            est.observe(v)
        ordered = sorted(values)
        rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
        assert est.estimate() == ordered[rank - 1]


def reference_update(est, value):
    """The P-square marker update with its five-marker loops rolled up —
    the oracle for the unrolled :meth:`OnlineQuantile._update`."""
    h, n, d = est._heights, est._positions, est._desired
    if value < h[0]:
        h[0] = value
        k = 0
    elif value >= h[4]:
        h[4] = value
        k = 3
    elif value < h[1]:
        k = 0
    elif value < h[2]:
        k = 1
    elif value < h[3]:
        k = 2
    else:
        k = 3
    for i in range(k + 1, 5):
        n[i] += 1.0
    for i in range(5):
        d[i] += est._increments[i]
    for i in (1, 2, 3):
        delta = d[i] - n[i]
        if (delta >= 1.0 and n[i + 1] - n[i] > 1.0) or (
            delta <= -1.0 and n[i - 1] - n[i] < -1.0
        ):
            step = 1.0 if delta >= 1.0 else -1.0
            candidate = h[i] + step / (n[i + 1] - n[i - 1]) * (
                (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
            )
            if h[i - 1] < candidate < h[i + 1]:
                h[i] = candidate
            else:
                j = i + int(step)
                h[i] = h[i] + step * (h[j] - h[i]) / (n[j] - n[i])
            n[i] += step


def state_bits(est):
    """Every marker's exact bit pattern (signed zeros and NaNs included)."""
    state = est.to_state()
    return {
        key: [struct.pack("<d", v) for v in value]
        if isinstance(value, list) else value
        for key, value in state.items()
    }


#: Observations: a small pool (duplicates and ties with marker heights),
#: signed zeros, extremes and arbitrary floats, plus constant runs.
P2_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False),
    st.floats(min_value=-5.0, max_value=5.0),
)


@st.composite
def p2_streams(draw):
    values = draw(st.lists(P2_VALUES, max_size=120))
    for value, repeat in draw(
        st.lists(st.tuples(P2_VALUES, st.integers(2, 40)), max_size=3)
    ):
        at = draw(st.integers(0, len(values)))
        values[at:at] = [value] * repeat
    return values


class TestUnrolledUpdate:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.01, 0.99), p2_streams())
    def test_equals_loop_version_bit_for_bit(self, q, values):
        unrolled = OnlineQuantile(q=q)
        rolled = OnlineQuantile(q=q)
        for value in values:
            unrolled.observe(value)
            if rolled._heights:
                rolled.count += 1
                reference_update(rolled, float(value))
            else:
                rolled.observe(value)
            assert state_bits(unrolled) == state_bits(rolled)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(P2_VALUES, min_size=5, max_size=5),
        st.lists(st.integers(1, 4), min_size=4, max_size=4),
        st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
        st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
        p2_streams(),
    )
    def test_equals_loop_version_from_any_marker_state(
        self, heights, gaps, offsets, increments, values
    ):
        """Restored markers need not sit where a fresh stream puts them:
        every update from any ordered state matches too."""
        positions = [1.0]
        for gap in gaps:
            positions.append(positions[-1] + gap)
        state = {
            "q": 0.5,
            "initial": sorted(heights),
            "heights": sorted(heights),
            "positions": positions,
            "desired": [p + o for p, o in zip(positions, offsets)],
            "increments": increments,
            "count": 5,
        }
        unrolled = OnlineQuantile.from_state(state)
        rolled = OnlineQuantile.from_state(state)
        for value in values:
            unrolled.observe(value)
            rolled.count += 1
            reference_update(rolled, float(value))
            assert state_bits(unrolled) == state_bits(rolled)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.8, 0.9])
    def test_long_random_stream_matches(self, q):
        rng = np.random.default_rng(23)
        values = np.concatenate(
            [rng.exponential(1.0, 2000), np.full(300, 0.5), rng.normal(4, 2, 2000)]
        )
        unrolled = OnlineQuantile(q=q)
        rolled = OnlineQuantile(q=q)
        for value in values.tolist():
            unrolled.observe(value)
            if rolled._heights:
                rolled.count += 1
                reference_update(rolled, value)
            else:
                rolled.observe(value)
        assert state_bits(unrolled) == state_bits(rolled)
