"""Request differencing measures (Section 4.1), except dynamic time warping.

* :func:`l1_distance` — element-wise L1 over two fixed-window metric value
  sequences plus a per-element penalty for unequal lengths (Equation 2);
* :func:`average_metric_distance` — the prior-work baseline: the absolute
  difference of whole-request average metric values;
* :func:`levenshtein_distance` — Magpie-style software-event differencing:
  string edit distance between two system-call name sequences;
* :func:`levenshtein_pairwise` — the same distance for a whole pair list
  in one batched pass (``levenshtein_distance.pairwise``, which the
  distance engine routes to);
* :func:`unequal_length_penalty` — the paper's choice of the penalty ``p``:
  the 99-percentile of metric differences between two arbitrary points of
  the application's execution.
"""

from __future__ import annotations

import sys
from itertools import chain, repeat
from typing import Sequence

import numpy as np


def l1_distance(x, y, penalty: float) -> float:
    """L1 distance of two metric value sequences (Equation 2).

    The common prefix contributes element-wise absolute differences; each
    surplus element of the longer sequence contributes ``penalty``.
    """
    if penalty < 0:
        raise ValueError("penalty must be non-negative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = min(x.size, y.size)
    if n == 0:
        raise ValueError("empty sequence")
    return float(np.abs(x[:n] - y[:n]).sum() + abs(x.size - y.size) * penalty)


def average_metric_distance(x, y) -> float:
    """Difference of average metric values (the paper's prior signature)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("empty sequence")
    return float(abs(x.mean() - y.mean()))


def levenshtein_distance(a: Sequence, b: Sequence) -> int:
    """Edit distance between two event sequences (insert/delete/substitute).

    Used on request system-call name sequences as the software-metric-only
    baseline from Magpie.  Runs a row-vectorized dynamic program.
    """
    if len(a) == 0:
        return len(b)
    if len(b) == 0:
        return len(a)
    # Map tokens to small ints for fast vector comparison.
    vocab = {}
    for token in a:
        vocab.setdefault(token, len(vocab))
    for token in b:
        vocab.setdefault(token, len(vocab))
    a_ids = np.array([vocab[t] for t in a])
    b_ids = np.array([vocab[t] for t in b])

    n = b_ids.size
    columns = np.arange(1, n + 1)
    previous = np.arange(n + 1)
    for i, a_id in enumerate(a_ids, start=1):
        substitution = previous[:-1] + (b_ids != a_id)
        deletion = previous[1:] + 1
        best = np.minimum(substitution, deletion)
        # Insertion has a within-row dependency:
        #   current[j] = min(best[j], current[j-1] + 1)
        # which unrolls to current[j] = j + min(i, min_{k<=j}(best[k] - k)).
        current = np.empty_like(previous)
        current[0] = i
        current[1:] = columns + np.minimum(
            i, np.minimum.accumulate(best - columns)
        )
        previous = current
    return int(previous[-1])


#: Pairs per block of :func:`levenshtein_pairwise`: bounds each block's
#: bit vectors to ``block x (len(b) // 64 + 1)`` 64-bit words, a few
#: hundred KB at figure 7's sequence lengths.
LEVENSHTEIN_BLOCK = 2048


def _words_to_int(words: np.ndarray) -> int:
    return int.from_bytes(words.tobytes(), sys.byteorder)


def _popcounts(parts: list, firsts: np.ndarray) -> np.ndarray:
    """Set bits of each field of the little-endian words in ``parts``."""
    bits = np.unpackbits(np.frombuffer(b"".join(parts), dtype=np.uint8))
    return np.add.reduceat(bits, 64 * firsts, dtype=np.int64)


def levenshtein_pairwise(items_a: Sequence, items_b: Sequence, pairs) -> np.ndarray:
    """``levenshtein_distance(items_a[i], items_b[j])`` for every ``(i, j)``.

    The batched form of :func:`levenshtein_distance`, computed with
    Myers' bit-vector algorithm in Hyyro's edit-distance form.  Row ``i``
    of a pair's DP is held as two bit vectors over the positions of
    ``b``: ``pv`` marks the columns where the row steps up by one from
    its left neighbour, ``mv`` where it steps down.  Row 0 is ``0, 1,
    ..., len(b)`` (``pv`` all ones), and the last cell of row ``len(a)``
    is ``len(a) + popcount(pv) - popcount(mv)``.  One row costs a fixed
    handful of integer operations, whatever ``len(b)`` is.

    Pairs are sorted by first-operand length and cut into blocks of
    ``LEVENSHTEIN_BLOCK``, and a block runs as one Python integer per bit
    vector.  Each pair owns a field of ``len(b) // 64 + 1`` words: one
    bit per position of ``b`` and at least one zero guard bit above
    them.  So the carry of ``(eq & pv) + pv`` out of a field's top
    position stops in its guard bit, complements are ``MASK ^ x`` (MASK
    covers every field's positions), and one ``& MASK`` a row clears the
    guard bits a carry or left shift set.  The bit a left shift moves
    into a field's bit 0 is overwritten by the shift-in ``ONES``: column
    0 of the DP is ``0, 1, ..., len(a)``, so it steps up every row.  Row
    ``i`` reads each pair's match mask for ``a[i]`` from a per-``b``
    table.  A pair whose row reaches ``len(a)`` leaves the block: its
    field is among the lowest (``len(a)`` ascends), so it is copied out
    and shifted off.  Every step is exact integer arithmetic, so every
    value equals the per-pair call.
    """
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    out = np.empty(len(pairs), dtype=np.int64)
    if not len(pairs):
        return out
    # Encode only the operands the pairs reference, with one vocabulary
    # of the second operands' tokens; any other token reads the all-zero
    # mask row ``absent``.
    used_a, rows_a = np.unique(pairs[:, 0], return_inverse=True)
    used_b, rows_b = np.unique(pairs[:, 1], return_inverse=True)
    seqs_a = [items_a[i] for i in used_a]
    seqs_b = [items_b[j] for j in used_b]
    flat_b = list(chain.from_iterable(seqs_b))
    vocab = {token: k for k, token in enumerate(dict.fromkeys(flat_b))}
    absent = len(vocab)
    ids_b = np.fromiter(map(vocab.__getitem__, flat_b), np.intp, len(flat_b))
    lengths_a = np.array([len(s) for s in seqs_a])
    lengths_b = np.array([len(s) for s in seqs_b])
    tokens_a = np.full((len(seqs_a), lengths_a.max()), absent, dtype=np.intp)
    flat_a = list(chain.from_iterable(seqs_a))
    tokens_a[np.arange(tokens_a.shape[1]) < lengths_a[:, None]] = np.fromiter(
        map(vocab.get, flat_a, repeat(absent)), np.intp, len(flat_a)
    )

    # Operand u's match mask for token t: the widths_b[u] words from
    # starts_b[u] + t * widths_b[u] of ``table``.
    widths_b = lengths_b // 64 + 1
    starts_b = np.concatenate(([0], np.cumsum(widths_b * (absent + 1))[:-1]))
    table = np.zeros(int(widths_b.sum()) * (absent + 1), dtype=np.uint64)
    owner = np.repeat(np.arange(len(seqs_b)), lengths_b)
    position = np.arange(owner.size) - np.repeat(
        np.cumsum(lengths_b) - lengths_b, lengths_b
    )
    np.bitwise_or.at(
        table,
        starts_b[owner] + ids_b * widths_b[owner] + position // 64,
        np.uint64(1) << (position % 64).astype(np.uint64),
    )

    order = np.argsort(lengths_a[rows_a], kind="stable")
    for start in range(0, order.size, LEVENSHTEIN_BLOCK):
        block = order[start : start + LEVENSHTEIN_BLOCK]
        ua, ub = rows_a[block], rows_b[block]
        len_a, len_b, width = lengths_a[ua], lengths_b[ub], widths_b[ub]
        ends = np.cumsum(width)
        firsts = ends - width
        # Word w of the block is word offset[w] of pair field[w]; at row i
        # it reads table[fixed[w] + steps[i, field[w]]].
        field = np.repeat(np.arange(block.size), width)
        offset = np.arange(ends[-1]) - firsts[field]
        fixed = starts_b[ub][field] + offset
        steps = np.ascontiguousarray((tokens_a[ua] * width[:, None]).T)
        # MASK: each field's len(b) position bits; ONES: each field's bit 0.
        words = np.where(offset < (len_b // 64)[field], ~np.uint64(0), np.uint64(0))
        words[ends - 1] = (np.uint64(1) << (len_b % 64).astype(np.uint64)) - 1
        mask = _words_to_int(words)
        words[:] = 0
        words[firsts] = 1
        ones = _words_to_int(words)
        pv, mv = mask, 0
        pv_out, mv_out = [], []  # the fields of finished pairs, in order
        done = dropped = 0  # pairs finished, words shifted off
        finishing = np.searchsorted(len_a, np.arange(len_a[-1] + 1), side="right")
        for i, finished in enumerate(finishing.tolist()):
            if finished > done:
                nbits = 64 * (int(ends[finished - 1]) - dropped)
                low = (1 << nbits) - 1
                pv_out.append((pv & low).to_bytes(nbits // 8, "little"))
                mv_out.append((mv & low).to_bytes(nbits // 8, "little"))
                pv, mv, mask, ones = (v >> nbits for v in (pv, mv, mask, ones))
                done, dropped = finished, int(ends[finished - 1])
                if done == block.size:
                    break
            eq = _words_to_int(
                table.take(fixed[dropped:] + steps[i].take(field[dropped:]))
            )
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (mask ^ (xh | pv))
            mh = (pv & xh) << 1
            ph = (ph << 1) | ones
            pv = (mh | (mask ^ (xv | ph))) & mask
            mv = ph & xv
        out[block] = len_a + _popcounts(pv_out, firsts) - _popcounts(mv_out, firsts)
    return out


# Engine routing: DistanceEngine batches any measure carrying ``pairwise``.
levenshtein_distance.pairwise = levenshtein_pairwise


def unequal_length_penalty(
    sample_values, rng: np.random.Generator, n_pairs: int = 20_000, q: float = 99.0
) -> float:
    """The penalty ``p`` of Equation 2 for one application.

    Drawn as the ``q``-percentile of the distribution of metric differences
    at two arbitrary points of application execution, estimated from the
    pooled per-window metric values of the workload.

    Sampling is over *distinct* point pairs: a draw with ``i == j``
    compares an execution point with itself and contributes an artificial
    zero difference, which on small pools deflates the upper percentile —
    with ``n`` pooled values a fraction ``1/n`` of naive draws is zero,
    pulling the 99th percentile down to roughly the
    ``(0.99 - 1/n) / (1 - 1/n)`` quantile of the true distribution.
    """
    values = np.asarray(sample_values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two sample values")
    i = rng.integers(values.size, size=n_pairs)
    # j uniform over the *other* indices: offset by 1..n-1 modulo n.
    j = (i + rng.integers(1, values.size, size=n_pairs)) % values.size
    diffs = np.abs(values[i] - values[j])
    return float(np.percentile(diffs, q))
