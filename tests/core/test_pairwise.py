"""Property tests for the batched ``pairwise`` path of the distance engine.

Any distance callable that carries a ``pairwise(items_a, items_b, pairs)``
attribute is batched by :class:`~repro.core.distengine.DistanceEngine`.
The contract under test: every batched value equals the per-pair call
exactly —

* :func:`repro.core.distances.levenshtein_pairwise` against
  :func:`~repro.core.distances.levenshtein_distance`, over arbitrary pair
  lists (non-triangular, repeated, unsorted, across block boundaries)
  and at the edges of the bit-parallel kernel's 64-bit-word fields;
* :func:`repro.core.kernels.dtw_pairwise` (which
  :meth:`~repro.core.kernels.PenaltyDtw.pairwise` delegates to) against
  :func:`repro.core.dtw.dtw_distance`, over arbitrary pair lists with
  heavy-tailed lengths, for any number of lanes;
* the engine's ``matrix`` / ``pair_distances`` / ``one_to_many`` with
  these measures against the serial loop, for any ``jobs`` and with a
  half-warm cache, where only the missing pairs reach the kernel.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import distances, kernels
from repro.core.distances import levenshtein_distance, levenshtein_pairwise
from repro.core.distengine import DistanceCache, DistanceEngine
from repro.core.dtw import dtw_distance
from repro.core.kernels import PenaltyDtw, dtw_pairwise

tokens = st.one_of(
    st.sampled_from(["read", "write", "poll", "futex"]), st.integers(0, 3)
)
sequences = st.lists(tokens, min_size=0, max_size=12)
item_lists = st.lists(sequences, min_size=1, max_size=7)
value_lists = st.lists(
    st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=10,
)


@st.composite
def pair_problems(draw, items=item_lists):
    """``(items_a, items_b, pairs)`` with arbitrary, possibly repeated pairs."""
    items_a = draw(items)
    items_b = draw(items)
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(items_a) - 1), st.integers(0, len(items_b) - 1)
            ),
            max_size=30,
        )
    )
    return items_a, items_b, pairs


#: Series lengths with a heavy tail: mostly short, length 1 often, and
#: now and then one long enough to widen every lane it shares a step with.
series_lengths = st.one_of(st.just(1), st.integers(1, 6), st.integers(20, 70))


@st.composite
def dtw_problems(draw):
    """``(items_a, items_b, pairs, p)``: arbitrary, possibly repeated pairs
    over heavy-tailed series; ``items_b`` is sometimes ``items_a``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def series():
        count = draw(st.integers(1, 6))
        return [rng.normal(2.0, 1.0, draw(series_lengths)) for _ in range(count)]

    items_a = series()
    items_b = items_a if draw(st.booleans()) else series()
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(items_a) - 1), st.integers(0, len(items_b) - 1)
            ),
            min_size=1,
            max_size=40,
        )
    )
    p = draw(st.one_of(st.just(0.0), st.floats(0.01, 3.0)))
    return items_a, items_b, pairs, p


#: Operand lengths at and around the bit-parallel Levenshtein kernel's
#: field edges.  A pair's field is ``len(b) // 64 + 1`` words, so 63, 127
#: and 191 positions leave exactly one guard bit, and 64, 128 and 192
#: open a new word.
EDGE_LENGTHS = (0, 1, *range(62, 67), *range(126, 131), *range(190, 195))
edge_lengths = st.sampled_from(EDGE_LENGTHS)


@st.composite
def edge_problems(draw, lengths_a=edge_lengths, lengths_b=edge_lengths):
    """``(items_a, items_b, pairs)``: every pair of 1-3 sequences a side,
    in shuffled order, over a one-, two- or four-token vocabulary.

    Tokens switch with probability 0, 0.03 or 0.5 per position, so small
    vocabularies give long match runs whose carries cross whole fields.
    """
    vocab = draw(st.sampled_from([["read"], ["read", 1], ["read", "poll", 2, 3]]))
    switch = draw(st.sampled_from([0.0, 0.03, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def items(lengths):
        out = []
        for _ in range(draw(st.integers(1, 3))):
            flips = np.cumsum(rng.random(draw(lengths)) < switch)
            out.append([vocab[k] for k in (flips + rng.integers(4)) % len(vocab)])
        return out

    items_a, items_b = items(lengths_a), items(lengths_b)
    pairs = [(i, j) for i in range(len(items_a)) for j in range(len(items_b))]
    return items_a, items_b, [pairs[k] for k in rng.permutation(len(pairs))]


def serial_dtw(items_a, items_b, pairs, p):
    return [dtw_distance(items_a[i], items_b[j], p) for i, j in pairs]


def serial_levenshtein(items_a, items_b, pairs):
    return [levenshtein_distance(items_a[i], items_b[j]) for i, j in pairs]


def serial_matrix(items, distance, symmetric=True):
    n = len(items)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j or (symmetric and j < i):
                continue
            matrix[i, j] = float(distance(items[i], items[j]))
            if symmetric:
                matrix[j, i] = matrix[i, j]
    return matrix


def syscall_items(rng, n, min_len=0, max_len=40):
    names = ["read", "write", "poll", "futex", "mmap", "send"]
    return [
        [names[k] for k in rng.integers(0, len(names), size=length)]
        for length in rng.integers(min_len, max_len + 1, size=n)
    ]


class RecordingLevenshtein:
    """Levenshtein that records every pair its ``pairwise`` receives."""

    def __init__(self):
        self.seen = []

    def __call__(self, a, b):
        return levenshtein_distance(a, b)

    def pairwise(self, items_a, items_b, pairs):
        self.seen.extend(pairs)
        return levenshtein_pairwise(items_a, items_b, pairs)


class TestLevenshteinPairwise:
    @given(pair_problems())
    @settings(max_examples=200, deadline=None)
    def test_equals_per_pair_calls(self, problem):
        items_a, items_b, pairs = problem
        got = levenshtein_pairwise(items_a, items_b, pairs)
        assert got.tolist() == serial_levenshtein(items_a, items_b, pairs)

    @given(pair_problems(), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_block_size_does_not_change_values(self, problem, block):
        items_a, items_b, pairs = problem
        with mock.patch.object(distances, "LEVENSHTEIN_BLOCK", block):
            got = levenshtein_pairwise(items_a, items_b, pairs)
        assert got.tolist() == serial_levenshtein(items_a, items_b, pairs)

    @given(item_lists)
    @settings(max_examples=60, deadline=None)
    def test_same_items_both_sides(self, items):
        pairs = [(i, j) for i in range(len(items)) for j in range(len(items))]
        got = levenshtein_pairwise(items, items, pairs)
        assert got.tolist() == serial_levenshtein(items, items, pairs)

    @given(edge_problems())
    @settings(max_examples=60, deadline=None)
    def test_field_edge_lengths(self, problem):
        items_a, items_b, pairs = problem
        got = levenshtein_pairwise(items_a, items_b, pairs)
        assert got.tolist() == serial_levenshtein(items_a, items_b, pairs)

    @given(
        st.one_of(
            edge_problems(st.integers(0, 3), st.integers(126, 194)),
            edge_problems(st.integers(126, 194), st.integers(0, 3)),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_lopsided_lengths(self, problem):
        items_a, items_b, pairs = problem
        got = levenshtein_pairwise(items_a, items_b, pairs)
        assert got.tolist() == serial_levenshtein(items_a, items_b, pairs)

    @given(edge_problems(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_field_edge_lengths_in_small_blocks(self, problem, block):
        items_a, items_b, pairs = problem
        with mock.patch.object(distances, "LEVENSHTEIN_BLOCK", block):
            got = levenshtein_pairwise(items_a, items_b, pairs)
        assert got.tolist() == serial_levenshtein(items_a, items_b, pairs)

    def test_crosses_the_default_block_boundary(self):
        rng = np.random.default_rng(4)
        items = syscall_items(rng, 72, max_len=12)
        pairs = [(i, j) for i in range(72) for j in range(72) if i != j]
        assert len(pairs) > distances.LEVENSHTEIN_BLOCK
        pairs = pairs[::-1]  # unsorted by first operand
        got = levenshtein_pairwise(items, items, pairs)
        assert got.tolist() == serial_levenshtein(items, items, pairs)

    def test_empty_operands_and_pair_list(self):
        items = [[], ["read"], ["read", "write", 1]]
        pairs = [(0, 0), (0, 2), (2, 0), (1, 0), (1, 2)]
        assert levenshtein_pairwise(items, items, pairs).tolist() == [0, 3, 3, 1, 2]
        assert levenshtein_pairwise(items, items, []).size == 0

    def test_mixed_str_and_int_tokens_stay_distinct(self):
        assert levenshtein_pairwise([["1", 1]], [[1, "1"]], [(0, 0)]).tolist() == [2]

    def test_is_the_distance_callables_pairwise(self):
        assert levenshtein_distance.pairwise is levenshtein_pairwise


class TestDtwPairwise:
    @given(dtw_problems())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_pair_dtw(self, problem):
        items_a, items_b, pairs, p = problem
        assert dtw_pairwise(items_a, items_b, pairs, p) == serial_dtw(
            items_a, items_b, pairs, p
        )

    @given(dtw_problems(), st.sampled_from([1, 2]))
    @settings(max_examples=100, deadline=None)
    def test_one_or_two_lanes(self, problem, lanes):
        items_a, items_b, pairs, p = problem
        widest = max(len(items_b[j]) for _, j in pairs)
        with mock.patch.object(kernels, "LANE_CELLS", lanes * widest):
            got = dtw_pairwise(items_a, items_b, pairs, p)
        assert got == serial_dtw(items_a, items_b, pairs, p)

    def test_heavy_tailed_matrix_pairs(self):
        # One long outlier among short series: lanes narrow as it finishes.
        rng = np.random.default_rng(12)
        lengths = [1, 90, 2, 3, 40, 5, 8, 13, 1, 21, 34, 6, 7, 9, 60, 4]
        items = [rng.normal(2.0, 1.0, n) for n in lengths]
        upper = [(i, j) for i in range(len(items)) for j in range(i + 1, len(items))]
        pairs = upper + [(j, i) for i, j in upper[::3]]
        for p in (0.0, 0.35):
            got = dtw_pairwise(items, items, pairs, p)
            assert got == serial_dtw(items, items, pairs, p)

    def test_empty_pair_list(self):
        assert dtw_pairwise([[1.0]], [[2.0]], [], 0.5) == []

    def test_empty_operand_rejected(self):
        with pytest.raises(ValueError, match="empty sequence"):
            dtw_pairwise([[1.0, 2.0], []], [[1.0]], [(0, 0), (1, 0)], 0.5)
        with pytest.raises(ValueError, match="empty sequence"):
            dtw_pairwise([[1.0]], [np.array([])], [(0, 0)], 0.0)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            dtw_pairwise([[1.0]], [[2.0]], [(0, 0)], -0.1)


class TestPenaltyDtwPairwise:
    @given(
        st.lists(value_lists, min_size=1, max_size=6),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20),
        st.floats(0.0, 5.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_per_pair_dtw(self, items, raw_pairs, p):
        pairs = [(i % len(items), j % len(items)) for i, j in raw_pairs]
        got = PenaltyDtw(p).pairwise(items, items, pairs)
        assert got == [dtw_distance(items[i], items[j], p) for i, j in pairs]


class TestEngineRouting:
    @given(st.lists(sequences, min_size=0, max_size=9), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matrix_equals_serial_loop(self, items, symmetric):
        expected = serial_matrix(items, levenshtein_distance, symmetric)
        for jobs in (1, 4):
            got = DistanceEngine(jobs=jobs).matrix(
                items, levenshtein_distance, symmetric=symmetric
            )
            assert np.array_equal(got, expected)

    @given(pair_problems())
    @settings(max_examples=60, deadline=None)
    def test_pair_distances_and_one_to_many(self, problem):
        items, others, raw_pairs = problem
        pairs = [(i, j % len(items)) for i, j in raw_pairs]
        for jobs in (1, 4):
            engine = DistanceEngine(jobs=jobs)
            got = engine.pair_distances(items, pairs, levenshtein_distance)
            assert got.tolist() == [
                float(d) for d in serial_levenshtein(items, items, pairs)
            ]
            sweep = engine.one_to_many(items[0], others, levenshtein_distance)
            assert sweep.tolist() == [
                float(levenshtein_distance(items[0], other)) for other in others
            ]

    def test_half_warm_cache_sends_only_missing_pairs(self):
        rng = np.random.default_rng(8)
        n = 14
        items = syscall_items(rng, n)
        expected = serial_matrix(items, levenshtein_distance)
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        warm = [pair for pair in upper if sum(pair) % 2]
        missing = [pair for pair in upper if not sum(pair) % 2]
        for jobs in (1, 4):
            cache = DistanceCache()
            DistanceEngine(cache=cache).pair_distances(
                items, warm, levenshtein_distance, distance_key="lev",
                symmetric=True,
            )
            recording = RecordingLevenshtein()
            got = DistanceEngine(jobs=jobs, cache=cache).matrix(
                items, recording, distance_key="lev"
            )
            assert np.array_equal(got, expected)
            assert recording.seen == missing

    def test_penalty_dtw_matrix_equals_per_pair_dtw(self):
        rng = np.random.default_rng(9)
        items = [rng.normal(2.0, 1.0, size=n) for n in rng.integers(3, 30, size=12)]
        for jobs in (1, 4):
            got = DistanceEngine(jobs=jobs).matrix(items, PenaltyDtw(0.4))
            assert np.array_equal(
                got, serial_matrix(items, lambda a, b: dtw_distance(a, b, 0.4))
            )

    def test_callables_without_pairwise_stay_per_pair(self):
        calls = []

        def distance(a, b):
            calls.append((a, b))
            return levenshtein_distance(a, b)

        items = [["read"], ["write"], ["read", "poll"]]
        DistanceEngine().matrix(items, distance)
        assert len(calls) == 3
