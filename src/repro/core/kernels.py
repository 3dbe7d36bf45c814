"""Pruned + batched distance kernels beneath the DTW consumers.

Every differencing decision in the repro — Figure 7 classification,
Figure 8/9 anomaly scans, signature-bank matching, the online pipeline's
per-window identification — bottoms out in the penalty-DTW dynamic
program of :mod:`repro.core.dtw`.  This module is the batching and
exact-pruning layer between those consumers and the O(m*n) DP:

* **lane-scheduled pairwise DP** (:func:`dtw_pairwise`): every pair of a
  distance-engine call in one sweep of DP rows, pairs dealt to lanes
  longest second operand first, each step one row over the busy lanes
  and the widest active pair only — the path behind every
  :class:`PenaltyDtw` matrix, pair list and one-to-many request;
* **admissible lower bounds** (:func:`lb_penalty_dtw`,
  :func:`lb_one_to_many`): the first/last-element bound plus the
  length-gap bound ``|m - n| * p``, provably <= the true distance, so a
  nearest-neighbor decision can discard most candidates without running
  a DP at all;
* **early-abandoning DP** (:func:`dtw_distance_pruned`): the row
  recurrence of :func:`repro.core.dtw.dtw_distance` with an exact abandon
  check — every warp path crosses every row, and DP values along a path
  never decrease, so once a row's minimum exceeds a best-so-far cutoff
  the final distance provably does too;
* **batched one-vs-many DP with cutoff** (:func:`dtw_one_to_many`): the
  same row recurrence run vectorized across a zero-padded bank of
  sequences (:class:`PaddedBank`), abandoning rows past a cutoff — the
  kernel behind :func:`argmin_distance`;
* **pruned nearest neighbor** (:func:`argmin_distance`): candidates
  ordered by lower bound, batched DPs with the best-so-far distance
  threaded through as the abandon cutoff;
* the shared **pad-and-mask bank machinery** also backs the cheap online
  L1 prefix matching (:func:`l1_prefix_distances`,
  :class:`PrefixL1Sweeper`) used by
  :class:`~repro.core.signatures.SignatureBank` and the streaming
  pipeline.

Exact-pruning semantics
-----------------------

All pruned/batched paths return results *bit-identical* to the serial
reference DP wherever they return a distance at all: the batched
recurrences perform exactly the same IEEE-754 operations per pair as
the serial one (``cumsum`` and ``minimum.accumulate`` are sequential
along the last axis), and abandonment uses strict ``>`` against the
cutoff, so a distance equal to the cutoff is always computed exactly.

One floating-point subtlety: the unrolled prefix-min recurrence shared
with :mod:`repro.core.dtw` computes each cell as ``(entry - prefix) +
prefix'``, and that cancellation can *round the computed value below the
mathematical one* — so the textbook invariant "row minimum <= final
distance" holds exactly in real arithmetic but only up to rounding
drift for the computed values.  Every pruning decision therefore
compares against ``cutoff + margin`` where :func:`_drift_margin` is a
conservative upper bound on that drift (a few hundred ulps of the
largest DP intermediate — astronomically below any meaningful distance,
so pruning power is unaffected).  An abandoned candidate reports ``inf``
— by construction its *computed* distance exceeds the cutoff — so
nearest-neighbor argmins (including first-minimum tie-breaking) and the
returned best distances are identical to a naive full scan.

:class:`~repro.core.distengine.DistanceEngine` batches every
:class:`PenaltyDtw` matrix, pair-list and one-to-many request through
:meth:`PenaltyDtw.pairwise`, that is :func:`dtw_pairwise`; the property
tests pin its results to the per-pair :func:`repro.core.dtw.dtw_distance`
calls.
"""

from __future__ import annotations

import bisect
import heapq
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.dtw import dtw_distance

__all__ = [
    "PaddedBank",
    "PenaltyDtw",
    "PrefixL1Sweeper",
    "argmin_distance",
    "dtw_distance_pruned",
    "dtw_one_to_many",
    "dtw_pairwise",
    "l1_prefix_distances",
    "lb_one_to_many",
    "lb_penalty_dtw",
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

    def subset(self, indices) -> "PaddedBank":
        """A new bank holding ``self``'s rows at ``indices`` (copies)."""
        bank = object.__new__(PaddedBank)
        bank.matrix = self.matrix[indices]
        bank.lengths = self.lengths[indices]
        bank.columns = self.columns
        return bank


def _as_bank(bank_or_sequences) -> PaddedBank:
    if isinstance(bank_or_sequences, PaddedBank):
        return bank_or_sequences
    return PaddedBank(bank_or_sequences)


# -- admissible lower bounds ------------------------------------------------


def lb_penalty_dtw(x, y, asynchrony_penalty: float = 0.0) -> float:
    """Admissible lower bound on :func:`repro.core.dtw.dtw_distance`.

    Two provably-disjoint contributions to the true distance are bounded
    separately and summed:

    * **first/last element**: every warp path starts at cell ``(0, 0)``
      and ends at ``(m-1, n-1)``, paying the metric difference at each
      visited cell, so the path cost is at least ``|x[0] - y[0]|`` plus —
      when the path has more than one cell — ``|x[-1] - y[-1]|``;
    * **length gap**: with ``a`` asynchronous steps advancing only ``x``
      and ``b`` advancing only ``y``, ``a - b = m - n`` along any path,
      so at least ``|m - n|`` asynchronous steps are unavoidable and the
      penalty charge is at least ``|m - n| * p``.
    """
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("empty sequence")
    bound = abs(float(x[0]) - float(y[0]))
    if x.size > 1 or y.size > 1:
        bound += abs(float(x[-1]) - float(y[-1]))
    return bound + abs(x.size - y.size) * float(asynchrony_penalty)


def lb_one_to_many(query, bank, asynchrony_penalty: float = 0.0) -> np.ndarray:
    """:func:`lb_penalty_dtw` of ``query`` against every bank row, vectorized."""
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    bank = _as_bank(bank)
    x = np.asarray(query, dtype=float)
    if x.size == 0:
        raise ValueError("empty sequence")
    lengths = bank.lengths
    first = np.abs(x[0] - bank.matrix[:, 0])
    last = np.abs(x[-1] - bank.matrix[np.arange(len(bank)), lengths - 1])
    # The last-element term only applies when the warp path has > 1 cell.
    multi = (lengths > 1) | (x.size > 1)
    return (
        first
        + np.where(multi, last, 0.0)
        + np.abs(x.size - lengths) * float(asynchrony_penalty)
    )


# -- early-abandoning serial DP ---------------------------------------------


def _drift_margin(m: int, n: int, max_abs: float, p: float) -> float:
    """Upper bound on downward rounding drift of the unrolled DP.

    The prefix-min unrolling computes cells as ``(entry - prefix) +
    prefix'``; each such cancellation can lose up to ~eps times the
    magnitude of the intermediates, and the losses accumulate additively
    (the recurrence applies only ``+``/``-``/``min``, never scaling).
    Every intermediate is bounded by the worst full path cost
    ``(m + n) * (max pair difference + p)``, and at most ``m`` row
    transitions each contribute a handful of roundings, so ``32 * eps *
    m * scale`` is a generous bound.  Pruning decisions compare against
    ``cutoff + margin`` so a candidate whose *computed* distance is
    ``<= cutoff`` is never abandoned.
    """
    scale = (m + n) * (2.0 * max_abs + p)
    return 32.0 * np.finfo(float).eps * m * scale


def dtw_distance_pruned(
    x, y, asynchrony_penalty: float = 0.0, cutoff: float = np.inf
) -> float:
    """Penalty-DTW with exact early abandoning against ``cutoff``.

    Identical arithmetic to :func:`repro.core.dtw.dtw_distance`; after
    each DP row, if the row minimum exceeds ``cutoff`` (plus the
    :func:`_drift_margin` rounding slack) the computation stops and
    returns ``inf``.  Exactness: every warp path visits every row, and
    DP values along a path are non-decreasing (costs and penalties are
    non-negative), so ``min(row) <= final distance`` up to rounding
    drift — an abandoned pair's computed distance is guaranteed to
    exceed ``cutoff``.  Whenever the computed distance is ``<= cutoff``
    the returned value is bit-identical to ``dtw_distance``.
    """
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("empty sequence")
    p = float(asynchrony_penalty)
    n = y.size
    js = np.arange(1, n)
    threshold = cutoff
    if np.isfinite(cutoff):
        max_abs = max(float(np.abs(x).max()), float(np.abs(y).max()))
        threshold = cutoff + _drift_margin(x.size, n, max_abs, p)

    row = np.empty(n)
    row[0] = abs(x[0] - y[0])
    if n > 1:
        row[1:] = row[0] + np.cumsum(np.abs(x[0] - y[1:]) + p)

    for i in range(1, x.size):
        if row.min() > threshold:
            return float("inf")
        cost = np.abs(x[i] - y)
        new_row = np.empty(n)
        new_row[0] = row[0] + cost[0] + p
        if n > 1:
            entry = np.minimum(row[:-1], row[1:] + p)
            prefix_cost = np.cumsum(cost)
            offsets = np.minimum.accumulate(entry - prefix_cost[:-1] - js * p)
            anchor = new_row[0] - prefix_cost[0]
            new_row[1:] = prefix_cost[1:] + js * p + np.minimum(anchor, offsets)
        row = new_row
    distance = float(row[-1])
    return distance if distance <= cutoff else float("inf")


# -- batched one-vs-many DP -------------------------------------------------


def dtw_one_to_many(
    query, bank, asynchrony_penalty: float = 0.0, cutoff: float = np.inf
) -> np.ndarray:
    """Penalty-DTW of ``query`` against every bank row in one batched DP.

    The row recurrence of :func:`repro.core.dtw.dtw_distance` runs over a
    ``(B, L)`` matrix — one vectorized pass per query element instead of
    ``B`` interpreter-dispatched DPs.  Per bank row the operations are
    elementwise identical to the serial DP, so returned distances are
    bit-identical to ``dtw_distance(query, bank[b])``.

    With a finite ``cutoff``, rows whose running DP minimum exceeds it
    are abandoned exactly (reported as ``inf``); once fewer than half the
    rows survive, the batch is compacted to the survivors.
    """
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    bank = _as_bank(bank)
    x = np.asarray(query, dtype=float)
    if x.size == 0:
        raise ValueError("empty sequence")
    p = float(asynchrony_penalty)
    matrix = bank.matrix
    lengths = bank.lengths
    n = matrix.shape[1]
    js = np.arange(1, n)
    jp = js * p
    check = np.isfinite(cutoff)
    threshold = cutoff
    if check:
        max_abs = max(
            float(np.abs(x).max()), float(np.abs(matrix).max())
        )
        threshold = cutoff + _drift_margin(x.size, n, max_abs, p)

    out = np.full(len(bank), np.inf)
    active = np.arange(len(bank))

    # Row 0: only asynchronous steps along the bank sequences.
    cost = np.abs(x[0] - matrix)
    row = np.empty_like(cost)
    row[:, 0] = cost[:, 0]
    if n > 1:
        row[:, 1:] = row[:, :1] + np.cumsum(cost[:, 1:] + p, axis=1)

    for i in range(1, x.size):
        if check:
            # Conservative exact abandon: the minimum over *all* columns
            # (padding included) is <= the minimum over valid columns,
            # which is <= the final distance up to rounding drift; the
            # threshold slack keeps every candidate whose *computed*
            # distance could still land <= cutoff.
            alive = row.min(axis=1) <= threshold
            if not alive.any():
                return out
            if alive.sum() * 2 <= active.size:
                active = active[alive]
                row = row[alive]
                matrix = matrix[alive]
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

    finals = row[np.arange(active.size), lengths[active] - 1]
    if check:
        keep = finals <= cutoff
        out[active[keep]] = finals[keep]
    else:
        out[active] = finals
    return out


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


# -- pruned nearest neighbor ------------------------------------------------


def argmin_distance(
    query,
    bank,
    asynchrony_penalty: float = 0.0,
    block_size: int = 32,
) -> Tuple[int, float]:
    """Nearest bank row to ``query`` under penalty-DTW, with exact pruning.

    Candidates are ordered by :func:`lb_one_to_many` (ascending, stable);
    blocks run through the batched DP with the best-so-far distance as
    the abandon cutoff, and once a block's smallest lower bound exceeds
    the best-so-far (plus the :func:`_drift_margin` rounding slack) the
    remaining candidates are discarded without any DP work.  All pruning
    is strict-``>`` against the slackened threshold, so the returned
    ``(index, distance)`` — including first-minimum tie-breaking — is
    identical to a naive full scan with ``np.argmin``.
    """
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    bank = _as_bank(bank)
    query = np.asarray(query, dtype=float)
    bounds = lb_one_to_many(query, bank, asynchrony_penalty)
    order = np.argsort(bounds, kind="stable")
    max_abs = max(float(np.abs(query).max()), float(np.abs(bank.matrix).max()))
    margin = _drift_margin(
        query.size, bank.matrix.shape[1], max_abs, float(asynchrony_penalty)
    )
    best = np.inf
    best_index = -1
    for start in range(0, order.size, block_size):
        block = order[start : start + block_size]
        if bounds[block[0]] > best + margin:
            break  # ascending bounds: everything after is pruned too
        block = block[bounds[block] <= best + margin]
        if block.size == 0:
            continue
        distances = dtw_one_to_many(
            query, bank.subset(block), asynchrony_penalty, cutoff=best
        )
        for index, distance in zip(block, distances):
            if distance < best or (distance == best and index < best_index):
                best = float(distance)
                best_index = int(index)
    return best_index, best


# -- the batchable measure object -------------------------------------------


class PenaltyDtw:
    """Penalty-DTW as a batchable distance-kernel object.

    A drop-in distance callable (``kernel(x, y)`` equals
    :func:`repro.core.dtw.dtw_distance`) that additionally exposes the
    batched and pruned entry points.  The
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

    def bank(self, sequences) -> PaddedBank:
        return _as_bank(sequences)

    def lower_bounds(self, query, bank) -> np.ndarray:
        return lb_one_to_many(query, bank, self.penalty)

    def one_to_many(self, query, bank, cutoff: float = np.inf) -> np.ndarray:
        return dtw_one_to_many(query, bank, self.penalty, cutoff=cutoff)

    def argmin(self, query, bank, block_size: int = 32) -> Tuple[int, float]:
        return argmin_distance(query, bank, self.penalty, block_size=block_size)

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
