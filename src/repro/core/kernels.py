"""Batched distance kernels beneath the DTW consumers.

Every differencing decision in the repro — Figure 7 classification,
Figure 8/9 anomaly scans, signature-bank matching, the online pipeline's
per-window identification — bottoms out in the penalty-DTW dynamic
program of :mod:`repro.core.dtw`.  This module is the batching layer
between those consumers and the O(m*n) DP:

* **lane-scheduled pairwise DP** (:func:`dtw_pairwise`): every pair of a
  distance-engine call in one sweep of DP rows, pairs dealt to lanes
  longest second operand first, each step one row over the busy lanes
  and the widest active pair only — the path behind every
  :class:`PenaltyDtw` matrix, pair list and one-to-many request;
* **batched one-vs-many DP** (:func:`dtw_one_to_many`): the same row
  recurrence run vectorized across a zero-padded bank of sequences
  (:class:`PaddedBank`);
* the shared **pad-and-mask bank machinery** also backs the cheap online
  L1 prefix matching (:func:`l1_prefix_distances`,
  :class:`PrefixL1Sweeper`) used by
  :class:`~repro.core.signatures.SignatureBank` and the streaming
  pipeline.

Both batched DPs return results *bit-identical* to the serial reference
DP: they perform exactly the same IEEE-754 operations per pair as the
serial one (``cumsum`` and ``minimum.accumulate`` are sequential along
the last axis).
:class:`~repro.core.distengine.DistanceEngine` batches every
:class:`PenaltyDtw` matrix, pair-list and one-to-many request through
:meth:`PenaltyDtw.pairwise`, that is :func:`dtw_pairwise`; the property
tests pin its results to the per-pair :func:`repro.core.dtw.dtw_distance`
calls.
"""

from __future__ import annotations

import bisect
import heapq
from typing import List, Sequence

import numpy as np

from repro.core.dtw import dtw_distance

__all__ = [
    "PaddedBank",
    "PenaltyDtw",
    "PrefixL1Sweeper",
    "dtw_one_to_many",
    "dtw_pairwise",
    "l1_prefix_distances",
]

class PaddedBank:
    """A bank of variable-length sequences as one zero-padded 2-D matrix.

    ``matrix[b, :lengths[b]]`` holds sequence ``b``; padding columns are
    zero and every consumer masks them (or, for the DTW DP, reads its
    answer at column ``lengths[b] - 1``, which padding cannot reach —
    column ``j`` of the recurrence depends only on columns ``<= j``).
    """

    __slots__ = ("matrix", "lengths", "columns")

    def __init__(self, sequences: Sequence):
        arrays = [np.asarray(s, dtype=float) for s in sequences]
        if not arrays:
            raise ValueError("empty bank")
        if any(a.ndim != 1 for a in arrays):
            raise ValueError("bank sequences must be one-dimensional")
        if any(a.size == 0 for a in arrays):
            raise ValueError("empty sequence in bank")
        self.lengths = np.array([a.size for a in arrays], dtype=np.intp)
        self.matrix = np.zeros((len(arrays), int(self.lengths.max())))
        for row, values in zip(self.matrix, arrays):
            row[: values.size] = values
        self.columns = np.arange(self.matrix.shape[1])

    def __len__(self) -> int:
        return self.matrix.shape[0]


def _as_bank(bank_or_sequences) -> PaddedBank:
    if isinstance(bank_or_sequences, PaddedBank):
        return bank_or_sequences
    return PaddedBank(bank_or_sequences)


def dtw_one_to_many(query, bank, asynchrony_penalty: float = 0.0) -> np.ndarray:
    """Penalty-DTW of ``query`` against every bank row in one batched DP.

    The row recurrence of :func:`repro.core.dtw.dtw_distance` runs over a
    ``(B, L)`` matrix — one vectorized pass per query element instead of
    ``B`` interpreter-dispatched DPs.  Per bank row the operations are
    elementwise identical to the serial DP, so returned distances are
    bit-identical to ``dtw_distance(query, bank[b])``.
    """
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    bank = _as_bank(bank)
    x = np.asarray(query, dtype=float)
    if x.size == 0:
        raise ValueError("empty sequence")
    p = float(asynchrony_penalty)
    matrix = bank.matrix
    n = matrix.shape[1]
    jp = np.arange(1, n) * p

    # Row 0: only asynchronous steps along the bank sequences.
    cost = np.abs(x[0] - matrix)
    row = np.empty_like(cost)
    row[:, 0] = cost[:, 0]
    if n > 1:
        row[:, 1:] = row[:, :1] + np.cumsum(cost[:, 1:] + p, axis=1)

    for i in range(1, x.size):
        cost = np.abs(x[i] - matrix)
        new_row = np.empty_like(cost)
        new_row[:, 0] = row[:, 0] + cost[:, 0] + p
        if n > 1:
            entry = np.minimum(row[:, :-1], row[:, 1:] + p)
            prefix_cost = np.cumsum(cost, axis=1)
            offsets = np.minimum.accumulate(
                entry - prefix_cost[:, :-1] - jp, axis=1
            )
            anchor = new_row[:, 0] - prefix_cost[:, 0]
            new_row[:, 1:] = (
                prefix_cost[:, 1:] + jp + np.minimum(anchor[:, None], offsets)
            )
        row = new_row

    return row[np.arange(len(bank)), bank.lengths - 1]


# -- lane-scheduled pairwise DP ---------------------------------------------


#: DP cells per step of :func:`dtw_pairwise` (lanes x widest second
#: operand).  Picked by a sweep over figure 7's sets (docs/perf.md):
#: 8k-64k ran flat on the benchmark's small sets, 32k ran fastest at
#: full scale, and much smaller budgets leave a heavy-tailed set (one
#: 1121-window series) only a few lanes.
LANE_CELLS = 32768


def dtw_pairwise(
    items_a, items_b, pairs, asynchrony_penalty: float = 0.0
) -> List[float]:
    """``dtw_distance(items_a[i], items_b[j], p)`` for every ``(i, j)``.

    Every pair of the call runs in one sweep of DP rows.  Pairs are
    sorted by second-operand length, longest first, and dealt to ``S``
    lanes as lanes free up; a lane runs its pairs back to back, one DP
    row per step.  ``S`` is the smallest of the pair count, the number of
    longest queries the total row count fills, and the lanes whose widest
    row fits :data:`LANE_CELLS`.  Lanes are renumbered by the step they
    finish, so a step computes one row over ``[:busy lanes, :longest
    active second operand]`` and both bounds only shrink.

    Every busy lane applies :func:`~repro.core.dtw.dtw_distance`'s
    elementwise recurrence (``cumsum`` and ``minimum.accumulate`` are
    sequential along a row), a lane starting a pair overwrites its row
    with the row-0 formula, and a pair is read at column ``n - 1``, which
    the columns beyond it cannot reach.  Every value is therefore
    bit-identical to the per-pair DP.
    """
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    p = float(asynchrony_penalty)
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if not len(pairs):
        return []
    flat_a, offsets_a, lengths_a = _flatten(items_a, pairs[:, 0])
    flat_b, offsets_b, lengths_b = _flatten(items_b, pairs[:, 1])

    # Deal order: longest second operand first, so the widest active
    # pair is always the earliest unfinished one.
    order = np.argsort(-lengths_b, kind="stable")
    m = lengths_a[order]
    n = lengths_b[order]
    fill = -(-int(m.sum()) // int(m.max()))  # lanes the longest query keeps busy
    lanes = max(1, min(len(order), fill, LANE_CELLS // int(n[0])))
    start, lane, lane_end = _deal(m.tolist(), lanes)
    finish = start + m - 1

    # Renumber lanes by finish step, latest first: busy lanes are a prefix.
    rank = np.empty(lanes, dtype=np.intp)
    rank[np.argsort(-lane_end, kind="stable")] = np.arange(lanes)
    lane = rank[lane]
    ends = np.sort(lane_end).tolist()
    by_finish = np.argsort(finish, kind="stable")
    start_steps = start.tolist()
    read_steps = finish[by_finish].tolist()
    last_steps = finish.tolist()
    widths = n.tolist()
    query_start = offsets_a[order]
    y_start = offsets_b[order][:, None]
    read_lane = lane[by_finish]
    read_column = n[by_finish] - 1
    read_pair = order[by_finish]

    # Lane rows live in flat buffers laid out [busy lanes, width] with no
    # gaps, so shifted columns are shifted flat slices; a width change
    # relays them out.  ``jpt`` holds ``j * p`` at every cell of column j.
    w = int(n[0])
    columns = np.arange(w)
    size = lanes * w
    row, new, ys, cost, prefix, work = (np.empty(size) for _ in range(6))
    jpt = np.tile(columns * p, lanes)
    position = np.zeros(lanes, dtype=np.intp)
    out = np.empty(len(pairs))
    head = k1 = f1 = 0
    for step in range(ends[-1]):
        b = lanes - bisect.bisect_right(ends, step)
        while last_steps[head] < step:  # head: the widest active pair
            head += 1
        if widths[head] < w:
            narrow = widths[head]
            for live, spare in ((row, new), (ys, cost)):
                spare[: b * narrow].reshape(b, narrow)[:] = (
                    live[: b * w].reshape(b, w)[:, :narrow]
                )
            row, new, ys, cost = new, row, cost, ys
            w = narrow
            jpt = np.tile(columns[:w] * p, b)
        bw = b * w
        r, y, c, pc, e, nw = (a[:bw] for a in (row, ys, cost, prefix, work, new))
        y2 = y.reshape(b, w)
        k0, k1 = k1, bisect.bisect_right(start_steps, step, k1)
        if k1 > k0:
            fresh = lane[k0:k1]
            position[fresh] = query_start[k0:k1]
            y2[fresh] = flat_b[y_start[k0:k1] + columns[:w]]
        c2 = c.reshape(b, w)
        np.subtract(flat_a[position[:b]][:, None], y2, out=c2)
        np.abs(c, out=c)
        nw2 = nw.reshape(b, w)
        if k1 - k0 < b:
            # dtw_distance's row recurrence, operation for operation.
            # Column 0 of the flat shifts straddles two lanes; it is
            # overwritten with the anchor and the x-step before use.
            pc2 = pc.reshape(b, w)
            e2 = e.reshape(b, w)
            np.cumsum(c2, axis=1, out=pc2)
            np.add(r[1:], p, out=e[1:])
            np.minimum(r[:-1], e[1:], out=e[1:])  # entry
            np.subtract(e[1:], pc[:-1], out=e[1:])
            np.subtract(e[1:], jpt[1:bw], out=e[1:])
            first = r.reshape(b, w)[:, 0] + c2[:, 0]
            first += p  # asynchronous step along x
            # The anchor heads the running minimum: min is exact, so this
            # equals minimum(anchor, minimum.accumulate(offsets)).
            np.subtract(first, pc2[:, 0], out=e2[:, 0])
            np.minimum.accumulate(e2, axis=1, out=e2)
            np.add(pc, jpt[:bw], out=nw)
            nw += e
            nw2[:, 0] = first
        if k1 > k0:
            # Row 0 of a fresh pair: only asynchronous steps along y.
            row0 = c2[fresh]
            nw2[fresh, 0] = row0[:, 0]
            nw2[fresh, 1:] = row0[:, :1] + np.cumsum(row0[:, 1:] + p, axis=1)
        f0, f1 = f1, bisect.bisect_right(read_steps, step, f1)
        if f1 > f0:
            out[read_pair[f0:f1]] = nw2[read_lane[f0:f1], read_column[f0:f1]]
        position[:b] += 1
        row, new = new, row
    return out.tolist()


def _flatten(items, used):
    """The distinct operands ``used`` refers to, concatenated.

    Returns the flat values (zero-padded by the longest operand, so a
    gather of that width from any offset stays in bounds), and each
    entry of ``used``'s offset and length into it.
    """
    distinct, inverse = np.unique(used, return_inverse=True)
    arrays = [np.asarray(items[i], dtype=float) for i in distinct.tolist()]
    lengths = np.array([a.size for a in arrays], dtype=np.intp)
    if not lengths.min():
        raise ValueError("empty sequence")
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    flat = np.concatenate(arrays + [np.zeros(int(lengths.max()))])
    return flat, offsets[inverse], lengths[inverse]


def _deal(durations: List[int], lanes: int):
    """Greedy list schedule: each job goes to the lane that frees first.

    Returns each job's start step and lane, and each lane's end step.
    Ties go to the lowest lane, so start steps never decrease.
    """
    heap = [(0, k) for k in range(lanes)]
    start = []
    lane = []
    for duration in durations:
        free, k = heap[0]
        start.append(free)
        lane.append(k)
        heapq.heapreplace(heap, (free + duration, k))
    end = np.empty(lanes, dtype=np.intp)
    for free, k in heap:
        end[k] = free
    return np.array(start, dtype=np.intp), np.array(lane, dtype=np.intp), end


# -- the batchable measure object -------------------------------------------


class PenaltyDtw:
    """Penalty-DTW as a batchable distance-kernel object.

    A drop-in distance callable (``kernel(x, y)`` equals
    :func:`repro.core.dtw.dtw_distance`) that additionally exposes the
    batched entry points.  The
    :class:`~repro.core.distengine.DistanceEngine` hands matrix /
    pair-list / one-to-many computations to :meth:`pairwise`, one
    lane-scheduled :func:`dtw_pairwise` sweep per call instead of
    per-pair Python calls (bit-identical results; see module docstring).
    """

    __slots__ = ("penalty",)

    def __init__(self, asynchrony_penalty: float = 0.0):
        if asynchrony_penalty < 0:
            raise ValueError("asynchrony_penalty must be non-negative")
        self.penalty = float(asynchrony_penalty)

    def __call__(self, x, y) -> float:
        return dtw_distance(x, y, asynchrony_penalty=self.penalty)

    def __repr__(self) -> str:
        return f"PenaltyDtw({self.penalty!r})"

    @property
    def distance_key(self) -> str:
        """Cache key naming the measure and its parameter."""
        return f"dtw:p={self.penalty!r}"

    def one_to_many(self, query, bank) -> np.ndarray:
        return dtw_one_to_many(query, bank, self.penalty)

    def pairwise(self, items_a, items_b, pairs) -> List[float]:
        """``self(items_a[i], items_b[j])`` for every ``(i, j)`` in ``pairs``:
        all of them in one lane-scheduled sweep (:func:`dtw_pairwise`)."""
        return dtw_pairwise(items_a, items_b, pairs, self.penalty)


# -- L1 prefix matching on the shared bank machinery ------------------------


def l1_prefix_distances(bank: PaddedBank, partial, penalty: float) -> np.ndarray:
    """L1 prefix distance of ``partial`` against every bank row.

    One vectorized pass equivalent to ``l1_distance(partial,
    row[:partial.size], penalty)`` per row: the common prefix contributes
    element-wise absolute differences and each element of ``partial``
    beyond a row's end contributes ``penalty``.
    """
    partial = np.asarray(partial, dtype=float)
    width = min(partial.size, bank.matrix.shape[1])
    diff = np.abs(bank.matrix[:, :width] - partial[:width])
    if bank.lengths.min() < width:
        # Padding columns of shorter rows must not contribute.
        diff[bank.columns[:width] >= bank.lengths[:, None]] = 0.0
    surplus = np.maximum(partial.size - bank.lengths, 0)
    return diff.sum(axis=1) + surplus * penalty


class PrefixL1Sweeper:
    """Incremental per-window L1 prefix sweep over a padded bank.

    The streaming pipeline extends a partial pattern one value at a time;
    :meth:`extend` adds that window's contribution to a running
    per-row distance vector in one vectorized O(bank) update.  Windows
    are accumulated strictly in order, so the running vector is
    bit-identical to the scalar per-row accumulation (and to a
    :meth:`start` rebuild after a checkpoint restore).
    """

    __slots__ = ("bank", "penalty")

    def __init__(self, bank: PaddedBank, penalty: float):
        if penalty < 0:
            raise ValueError("penalty must be non-negative")
        self.bank = bank
        self.penalty = float(penalty)

    def start(self, pattern) -> np.ndarray:
        """Running distances for an already-observed pattern prefix.

        Accumulates window by window in the same order :meth:`extend`
        would have, so a restored run continues bit-identically.
        """
        distances = np.zeros(len(self.bank))
        for w, value in enumerate(pattern):
            self.extend(distances, w, float(value))
        return distances

    def extend(self, distances: np.ndarray, w: int, value: float) -> None:
        """Add window ``w`` with metric ``value`` to ``distances`` in place."""
        matrix = self.bank.matrix
        if w < matrix.shape[1]:
            distances += np.where(
                self.bank.lengths > w,
                np.abs(value - matrix[:, w]),
                self.penalty,
            )
        else:
            distances += self.penalty
