"""Batched distance kernels beneath the DTW and L1-prefix consumers.

The DTW differencing decisions in the repro — Figure 7 classification and
the Figure 8/9 anomaly scans — bottom out in the penalty-DTW dynamic
program of :mod:`repro.core.dtw`.  This module is the batching layer
between those consumers and the O(m*n) DP:

* **lane-scheduled pairwise DP** (:func:`dtw_pairwise`): every pair of a
  distance-engine call in one sweep of DP rows, pairs dealt to lanes
  longest second operand first, each step one row over the busy lanes
  and the widest active pair only — the path behind every
  :class:`PenaltyDtw` matrix, pair list and one-to-many request;
* **batched one-vs-many DP** (:func:`dtw_one_to_many`): the same row
  recurrence run vectorized across a zero-padded bank of sequences
  (:class:`PaddedBank`).  Its one caller, :meth:`PenaltyDtw.one_to_many`,
  is reached by no entry point; it stays while the benchmark's layer
  tracer (``benchmarks/e2e/layertrace.py``) wraps that method.

Online signature identification is L1, not DTW: the shared pad-and-mask
bank machinery also backs its prefix matching,
:func:`l1_prefix_distances` behind
:meth:`~repro.core.signatures.SignatureBank.match` and
:class:`PrefixL1Sweeper` behind the streaming pipeline on large banks.

Both batched DPs return results *bit-identical* to the serial reference
DP (``add.accumulate`` and ``fmin.accumulate`` are sequential along the
last axis).  The one-vs-many DP performs exactly the serial DP's
IEEE-754 operations per pair, and so does the pairwise DP, except that
at ``p = 0`` it drops the ``+ 0.0`` and ``- 0.0`` passes, which cannot
change a value because no DP value is ``-0.0`` (see
:mod:`repro.core.dtw`).  All three refuse an operand holding NaN or an
infinity, naming it.
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

from repro.core.dtw import dtw_distance, dtw_operand

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
    bit-identical to ``dtw_distance(query, bank[b])``.  A query or bank
    row holding NaN or an infinity is refused, naming it.
    """
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    bank = _as_bank(bank)
    x = dtw_operand(query, "query")
    matrix = bank.matrix
    if not np.isfinite(matrix).all():
        for row, values in enumerate(matrix):
            dtw_operand(values, f"bank row {row}")
    p = float(asynchrony_penalty)
    n = matrix.shape[1]
    jp = np.arange(n) * p

    # Row 0: only asynchronous steps along the bank sequences.
    row = np.abs(x[0] - matrix)
    if n > 1:
        row[:, 1:] = row[:, :1] + np.add.accumulate(row[:, 1:] + p, axis=1)

    scan = np.empty_like(row)
    for i in range(1, x.size):
        cost = np.abs(x[i] - matrix)
        prefix = np.add.accumulate(cost, axis=1)
        first = row[:, 0] + cost[:, 0] + p
        scan[:, 0] = first - prefix[:, 0]
        scan[:, 1:] = (
            np.minimum(row[:, :-1], row[:, 1:] + p) - prefix[:, :-1] - jp[1:]
        )
        np.fmin.accumulate(scan, axis=1, out=scan)
        row = prefix + jp + scan
        row[:, 0] = first

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
    elementwise recurrence (``add.accumulate`` and ``fmin.accumulate``
    are sequential along a row; at ``p = 0`` it skips the ``+ p``,
    ``- j*p`` and ``+ j*p`` passes, which :mod:`repro.core.dtw` shows
    exact), a lane starting a pair overwrites its row with the row-0
    formula, and a pair is read at column ``n - 1``, which the columns
    beyond it cannot reach.  Every value is therefore bit-identical to
    the per-pair DP.  An operand holding NaN or an infinity is refused,
    naming it (``items_a[i]`` or ``items_b[j]``).

    Per step the work is the cell passes and little else: every step's
    query value per lane is gathered up front as a ``[step, lane]``
    array, the lane rows are updated in place in one buffer whose views
    are built once per (busy lanes, width), and the column-0 buffer is
    preallocated.
    """
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    p = float(asynchrony_penalty)
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if not len(pairs):
        return []
    flat_a, offsets_a, lengths_a = _flatten(items_a, pairs[:, 0], "items_a")
    flat_b, offsets_b, lengths_b = _flatten(items_b, pairs[:, 1], "items_b")

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
    y_start = offsets_b[order][:, None]
    read_lane = lane[by_finish]
    read_column = n[by_finish] - 1
    read_pair = order[by_finish]

    # The query value each lane consumes at each step, [step, lane, 1].
    rows = int(m.sum())
    within = np.arange(rows) - np.repeat(np.cumsum(m) - m, m)
    xs = np.zeros((ends[-1], lanes, 1))
    xs[np.repeat(start, m) + within, np.repeat(lane, m), 0] = flat_a[
        np.repeat(offsets_a[order], m) + within
    ]

    # Lane rows live in flat buffers laid out [busy lanes, width] with no
    # gaps, so shifted columns are shifted flat slices; a width change
    # relays the live ones (rows and second operands) out in place.  Each
    # step overwrites the row in place once its old values are consumed.
    # ``jpt`` holds ``j * p`` at every cell of column j.
    w = int(n[0])
    columns = np.arange(w)
    size = lanes * w
    row, ys, cost, prefix, work = (np.empty(size) for _ in range(5))
    first = np.empty(lanes)
    jpt = np.tile(columns * p, lanes)
    shape = None
    out = np.empty(len(pairs))
    head = k1 = f1 = 0
    for step in range(ends[-1]):
        b = lanes - bisect.bisect_right(ends, step)
        while last_steps[head] < step:  # head: the widest active pair
            head += 1
        if widths[head] < w:
            narrow = widths[head]
            for live in (row, ys):
                live[: b * narrow].reshape(b, narrow)[:] = (
                    live[: b * w].reshape(b, w)[:, :narrow]
                )
            w = narrow
            jpt = np.tile(columns[:w] * p, b)
        if shape != (b, w):
            # Every view a step reads or writes, once per shape.
            shape = (b, w)
            bw = b * w
            r, y, c, pc, e, jp = (
                a[:bw] for a in (row, ys, cost, prefix, work, jpt)
            )
            r2, y2, c2, pc2, e2, jp2 = (
                a.reshape(b, w) for a in (r, y, c, pc, e, jp)
            )
            r_lo, r_hi, r0 = r[:-1], r[1:], r2[:, 0]
            c0, pc_lo, pc0 = c2[:, 0], pc[:-1], pc2[:, 0]
            e_hi, e0, jp_hi = e[1:], e2[:, 0], jp[1:]
            x, f = xs[:, :b], first[:b]
        k0, k1 = k1, bisect.bisect_right(start_steps, step, k1)
        if k1 > k0:
            fresh = lane[k0:k1]
            y2[fresh] = flat_b[y_start[k0:k1] + columns[:w]]
        np.subtract(x[step], y2, out=c2)
        np.abs(c2, out=c2)
        if k1 - k0 < b:
            # dtw_distance's row recurrence, operation for operation,
            # less the exact + 0.0 and - 0.0 passes at p = 0.  Column 0 of the flat shifts straddles two lanes; it is
            # overwritten with the anchor before use.
            np.add.accumulate(c2, axis=1, out=pc2)
            if p:
                np.add(r_hi, p, out=e_hi)
                np.minimum(r_lo, e_hi, out=e_hi)  # entry
                np.subtract(e_hi, pc_lo, out=e_hi)
                np.subtract(e_hi, jp_hi, out=e_hi)
                np.add(r0, c0, out=f)
                np.add(f, p, out=f)  # asynchronous step along x
            else:
                np.minimum(r_lo, r_hi, out=e_hi)
                np.subtract(e_hi, pc_lo, out=e_hi)
                np.add(r0, c0, out=f)
            # The anchor heads the running minimum.
            np.subtract(f, pc0, out=e0)
            np.fmin.accumulate(e2, axis=1, out=e2)
            if p:
                np.add(pc2, jp2, out=pc2)
            np.add(pc2, e2, out=r2)
            r0[:] = f
        if k1 > k0:
            # Row 0 of a fresh pair: only asynchronous steps along y.
            row0 = c2[fresh]
            tail = row0[:, 1:]
            if p:
                tail += p
            np.add.accumulate(tail, axis=1, out=tail)
            tail += row0[:, :1]
            r2[fresh] = row0
        f0, f1 = f1, bisect.bisect_right(read_steps, step, f1)
        if f1 > f0:
            out[read_pair[f0:f1]] = r2[read_lane[f0:f1], read_column[f0:f1]]
    return out.tolist()


def _flatten(items, used, name):
    """The distinct operands ``used`` refers to, concatenated.

    Returns the flat values (zero-padded by the longest operand, so a
    gather of that width from any offset stays in bounds), and each
    entry of ``used``'s offset and length into it.  An empty operand, or
    one holding NaN or an infinity (named ``name[index]``), is refused.
    """
    distinct, inverse = np.unique(used, return_inverse=True)
    arrays = [np.asarray(items[i], dtype=float) for i in distinct.tolist()]
    lengths = np.array([a.size for a in arrays], dtype=np.intp)
    if not lengths.min():
        raise ValueError("empty sequence")
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    flat = np.concatenate(arrays + [np.zeros(int(lengths.max()))])
    if not np.isfinite(flat).all():
        for i, values in zip(distinct.tolist(), arrays):
            dtw_operand(values, f"{name}[{i}]")
    return flat, offsets[inverse], lengths[inverse]


def _deal(durations: List[int], lanes: int):
    """Greedy list schedule: each job goes to the lane that frees first.

    Returns each job's start step and lane, and each lane's end step.
    Ties go to the lowest lane, so start steps never decrease and the
    first ``lanes`` jobs start at step 0, job ``k`` on lane ``k``.
    """
    heap = [(duration, k) for k, duration in enumerate(durations[:lanes])]
    heapq.heapify(heap)
    start = [0] * lanes
    lane = list(range(lanes))
    for duration in durations[lanes:]:
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
