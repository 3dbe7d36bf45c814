"""Property and fuzz tests for the batched DTW kernel layer.

The exactness contract under test (see :mod:`repro.core.kernels`): the
batched one-vs-many DP is *bit-identical* to :func:`repro.core.dtw.
dtw_distance` per bank row, and the bank machinery's L1 prefix kernels
equal their scalar definitions.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distengine import DistanceEngine
from repro.core.dtw import dtw_distance
from repro.core.kernels import (
    PaddedBank,
    PenaltyDtw,
    PrefixL1Sweeper,
    dtw_one_to_many,
    l1_prefix_distances,
)

value_lists = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)
penalties = st.floats(0.0, 10.0, allow_nan=False)
banks = st.lists(value_lists, min_size=1, max_size=8)


def random_bank(rng, n_rows=30, min_len=3, max_len=40):
    return [
        rng.normal(2.0, 1.0, size=int(rng.integers(min_len, max_len + 1)))
        for _ in range(n_rows)
    ]


class TestBatchedOneToMany:
    @given(value_lists, banks, penalties)
    @example([1.0, 3.0, 2.0], [[2.0, 2.0, 5.0], [0.5], [0.0, 0.0]], 0.0)
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_serial_loop(self, x, rows, p):
        batched = dtw_one_to_many(x, rows, p)
        serial = np.array(
            [dtw_distance(x, row, asynchrony_penalty=p) for row in rows]
        )
        assert np.array_equal(batched, serial)

    def test_large_random_bank_bit_identical(self):
        rng = np.random.default_rng(42)
        rows = random_bank(rng, n_rows=50)
        for p in (0.0, 0.3, 2.0):
            query = rng.normal(2.0, 1.0, size=25)
            batched = dtw_one_to_many(query, rows, p)
            serial = np.array(
                [dtw_distance(query, r, asynchrony_penalty=p) for r in rows]
            )
            assert np.array_equal(batched, serial)


class TestNonFiniteOperands:
    """NaN and infinities are refused, naming the operand, instead of
    coming out of the DP as NaN distances."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_entry_point_names_the_operand(self, bad):
        good, spoiled = [1.0, 2.0, 3.0], [1.0, bad, 3.0]
        with pytest.raises(ValueError, match="DTW operand y holds NaN or inf"):
            dtw_distance(good, spoiled)
        with pytest.raises(ValueError, match="DTW operand x holds NaN or inf"):
            dtw_distance(spoiled, good, 0.5)
        items = [np.array(v) for v in (good, [2.0, 1.0], spoiled, [0.5])]
        with pytest.raises(ValueError, match=r"DTW operand items_a\[2\] holds"):
            DistanceEngine().matrix(items, PenaltyDtw(0.3))
        with pytest.raises(ValueError, match="DTW operand bank row 1 holds"):
            dtw_one_to_many(good, [good, spoiled], 0.3)
        with pytest.raises(ValueError, match="DTW operand query holds"):
            dtw_one_to_many(spoiled, [good], 0.0)


class TestPaddedBank:
    def test_rejects_empty_bank(self):
        with pytest.raises(ValueError):
            PaddedBank([])

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            PaddedBank([[1.0], []])

    def test_rejects_multidimensional(self):
        with pytest.raises(ValueError):
            PaddedBank([np.zeros((2, 2))])

    def test_padding_and_lengths(self):
        bank = PaddedBank([[1.0, 2.0, 3.0], [4.0]])
        assert len(bank) == 2
        assert list(bank.lengths) == [3, 1]
        assert np.array_equal(bank.matrix, [[1.0, 2.0, 3.0], [4.0, 0.0, 0.0]])

class TestPenaltyDtw:
    def test_callable_equals_dtw_distance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=12)
        y = rng.normal(size=9)
        kernel = PenaltyDtw(0.6)
        assert kernel(x, y) == dtw_distance(x, y, asynchrony_penalty=0.6)

    def test_distance_key_round_trips_penalty(self):
        assert PenaltyDtw(0.4).distance_key == f"dtw:p={0.4!r}"
        assert PenaltyDtw(0.0).distance_key != PenaltyDtw(0.5).distance_key

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            PenaltyDtw(-0.1)

class TestEngineRouting:
    def _matrix(self, items, kernel):
        return DistanceEngine().matrix(items, kernel)

    def test_batched_matrix_bit_identical_to_serial_callable(self):
        rng = np.random.default_rng(9)
        items = random_bank(rng, n_rows=12)
        kernel = PenaltyDtw(0.4)
        batched = self._matrix(items, kernel)
        serial = self._matrix(
            items, lambda a, b: dtw_distance(a, b, asynchrony_penalty=0.4)
        )
        assert np.array_equal(batched, serial)


class TestL1PrefixKernels:
    @given(banks, value_lists, penalties)
    @settings(max_examples=60, deadline=None)
    def test_prefix_distances_match_scalar_l1(self, rows, partial, p):
        from repro.core.distances import l1_distance

        bank = PaddedBank(rows)
        got = l1_prefix_distances(bank, partial, p)
        partial = np.asarray(partial, dtype=float)
        expected = [
            l1_distance(partial, np.asarray(row)[: partial.size], p)
            for row in rows
        ]
        assert got == pytest.approx(expected, abs=1e-12)

    @given(banks, value_lists, penalties)
    @settings(max_examples=60, deadline=None)
    def test_sweeper_start_equals_incremental_extend(self, rows, pattern, p):
        sweeper = PrefixL1Sweeper(PaddedBank(rows), p)
        rebuilt = sweeper.start(pattern)
        incremental = np.zeros(len(rows))
        for w, value in enumerate(pattern):
            sweeper.extend(incremental, w, float(value))
        assert np.array_equal(rebuilt, incremental)

    def test_extend_beyond_bank_width_charges_penalty(self):
        sweeper = PrefixL1Sweeper(PaddedBank([[1.0, 2.0]]), 3.0)
        distances = sweeper.start([1.0, 2.0, 9.0])
        assert distances[0] == 3.0  # exact prefix + one surplus window

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            PrefixL1Sweeper(PaddedBank([[1.0]]), -1.0)
