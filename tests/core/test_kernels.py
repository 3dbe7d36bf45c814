"""Property and fuzz tests for the pruned + batched DTW kernel layer.

The exactness contracts under test (see :mod:`repro.core.kernels`):

* every lower bound is admissible — ``lb <= true penalty-DTW distance``
  for arbitrary sequence pairs and penalties;
* the pruned and batched kernels agree with a brute-force O(m*n)
  reference DP, and are *bit-identical* to :func:`repro.core.dtw.
  dtw_distance` wherever they return a finite distance;
* :func:`argmin_distance` returns exactly what a naive full scan with
  ``np.argmin`` returns — index (first-minimum tie-breaking included)
  and distance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distengine import DistanceEngine
from repro.core.dtw import dtw_distance
from repro.core.kernels import (
    PaddedBank,
    PenaltyDtw,
    PrefixL1Sweeper,
    argmin_distance,
    dtw_distance_pruned,
    dtw_one_to_many,
    l1_prefix_distances,
    lb_one_to_many,
    lb_penalty_dtw,
)

value_lists = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)
penalties = st.floats(0.0, 10.0, allow_nan=False)
banks = st.lists(value_lists, min_size=1, max_size=8)


def dtw_reference(x, y, p):
    """Brute-force O(mn) dynamic program (independent of repro.core.dtw)."""
    m, n = len(x), len(y)
    d = np.full((m, n), np.inf)
    d[0][0] = abs(x[0] - y[0])
    for j in range(1, n):
        d[0][j] = d[0][j - 1] + abs(x[0] - y[j]) + p
    for i in range(1, m):
        d[i][0] = d[i - 1][0] + abs(x[i] - y[0]) + p
        for j in range(1, n):
            d[i][j] = abs(x[i] - y[j]) + min(
                d[i - 1][j - 1], d[i - 1][j] + p, d[i][j - 1] + p
            )
    return float(d[m - 1][n - 1])


def random_bank(rng, n_rows=30, min_len=3, max_len=40):
    return [
        rng.normal(2.0, 1.0, size=int(rng.integers(min_len, max_len + 1)))
        for _ in range(n_rows)
    ]


class TestLowerBounds:
    @given(value_lists, value_lists, penalties)
    @settings(max_examples=150, deadline=None)
    def test_admissible_against_reference(self, x, y, p):
        assert lb_penalty_dtw(x, y, p) <= dtw_reference(x, y, p) + 1e-9

    @given(value_lists, banks, penalties)
    @settings(max_examples=60, deadline=None)
    def test_vectorized_matches_scalar(self, x, rows, p):
        bounds = lb_one_to_many(x, PaddedBank(rows), p)
        expected = [lb_penalty_dtw(x, row, p) for row in rows]
        assert np.array_equal(bounds, np.array(expected))

    def test_single_element_pair_has_no_last_term(self):
        # One-cell warp path: first and last cell coincide.
        assert lb_penalty_dtw([3.0], [5.0], 10.0) == 2.0
        assert dtw_distance([3.0], [5.0], asynchrony_penalty=10.0) == 2.0

    def test_length_gap_term(self):
        # Identical constant values: the whole bound is the length gap.
        assert lb_penalty_dtw([1.0] * 5, [1.0] * 2, 3.0) == 9.0

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            lb_penalty_dtw([1.0], [1.0], -0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lb_penalty_dtw([], [1.0], 0.0)


class TestPrunedSerial:
    @given(value_lists, value_lists, penalties)
    @settings(max_examples=100, deadline=None)
    def test_no_cutoff_bit_identical(self, x, y, p):
        assert dtw_distance_pruned(x, y, p) == dtw_distance(
            x, y, asynchrony_penalty=p
        )

    @given(value_lists, value_lists, penalties, st.floats(0, 200))
    @settings(max_examples=100, deadline=None)
    def test_cutoff_exact(self, x, y, p, cutoff):
        true = dtw_distance(x, y, asynchrony_penalty=p)
        pruned = dtw_distance_pruned(x, y, p, cutoff=cutoff)
        if true <= cutoff:
            assert pruned == true  # bit-identical, cutoff ties included
        else:
            assert pruned == np.inf

    def test_cutoff_equal_to_distance_is_kept(self):
        d = dtw_distance([0.0, 4.0], [1.0, 2.0], asynchrony_penalty=0.5)
        assert dtw_distance_pruned([0.0, 4.0], [1.0, 2.0], 0.5, cutoff=d) == d

    def test_abandons_below_distance(self):
        assert (
            dtw_distance_pruned([0.0, 4.0], [1.0, 2.0], 0.5, cutoff=0.5)
            == np.inf
        )


class TestBatchedOneToMany:
    @given(value_lists, banks, penalties)
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_serial_loop(self, x, rows, p):
        batched = dtw_one_to_many(x, rows, p)
        serial = np.array(
            [dtw_distance(x, row, asynchrony_penalty=p) for row in rows]
        )
        assert np.array_equal(batched, serial)

    @given(value_lists, banks, penalties, st.floats(0, 100))
    @settings(max_examples=80, deadline=None)
    def test_cutoff_reports_inf_only_above(self, x, rows, p, cutoff):
        batched = dtw_one_to_many(x, rows, p, cutoff=cutoff)
        for got, row in zip(batched, rows):
            true = dtw_distance(x, row, asynchrony_penalty=p)
            if true <= cutoff:
                assert got == true
            else:
                assert got == np.inf

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

    def test_compaction_path_bit_identical(self):
        # A tight cutoff forces mass abandonment, exercising the
        # survivor-compaction branch.
        rng = np.random.default_rng(3)
        rows = random_bank(rng, n_rows=64)
        query = np.asarray(rows[17])
        cutoff = dtw_distance(query, rows[17]) + 1e-9
        batched = dtw_one_to_many(query, rows, 0.4, cutoff=cutoff)
        assert batched[17] == 0.0
        for got, row in zip(batched, rows):
            true = dtw_distance(query, row, asynchrony_penalty=0.4)
            assert got == (true if true <= cutoff else np.inf)


class TestArgminDistance:
    @given(value_lists, banks, penalties)
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_full_scan(self, x, rows, p):
        index, distance = argmin_distance(x, rows, p)
        naive = np.array(
            [dtw_distance(x, row, asynchrony_penalty=p) for row in rows]
        )
        assert index == int(np.argmin(naive))
        assert distance == naive[index]

    @given(st.integers(1, 7))
    @settings(max_examples=20, deadline=None)
    def test_block_size_does_not_change_answer(self, block_size):
        rng = np.random.default_rng(11)
        rows = random_bank(rng, n_rows=40)
        query = rng.normal(2.0, 1.0, size=30)
        naive = np.array(
            [dtw_distance(query, r, asynchrony_penalty=0.4) for r in rows]
        )
        index, distance = argmin_distance(
            query, rows, 0.4, block_size=block_size
        )
        assert index == int(np.argmin(naive))
        assert distance == naive[index]

    def test_tie_returns_first_index(self):
        # Rows 1 and 3 are identical, both at distance zero from the query.
        rows = [[5.0, 5.0], [1.0, 2.0], [9.0], [1.0, 2.0]]
        index, distance = argmin_distance([1.0, 2.0], rows, 0.7)
        assert (index, distance) == (1, 0.0)

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ValueError):
            argmin_distance([1.0], [[1.0]], 0.0, block_size=0)


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

    def test_subset_copies_rows(self):
        bank = PaddedBank([[1.0, 2.0], [3.0], [4.0, 5.0]])
        sub = bank.subset(np.array([2, 0]))
        assert np.array_equal(sub.matrix, [[4.0, 5.0], [1.0, 2.0]])
        assert list(sub.lengths) == [2, 2]


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

    def test_argmin_method(self):
        rows = [[1.0, 5.0], [2.0, 2.0]]
        assert PenaltyDtw(0.2).argmin([2.0, 2.0], rows) == (1, 0.0)


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
