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


#: Pairs per block of :func:`levenshtein_pairwise`: bounds the working
#: ``(block, L + 1)`` rows to a few MB at figure 7's sequence lengths.
LEVENSHTEIN_BLOCK = 2048


def _token_matrix(sequences, vocab) -> np.ndarray:
    """Sequences as rows of vocabulary ids, padded with -1."""
    width = max((len(s) for s in sequences), default=0)
    tokens = np.full((len(sequences), width), -1, dtype=np.int32)
    for row, seq in zip(tokens, sequences):
        row[: len(seq)] = [vocab.setdefault(t, len(vocab)) for t in seq]
    return tokens


def levenshtein_pairwise(items_a: Sequence, items_b: Sequence, pairs) -> np.ndarray:
    """``levenshtein_distance(items_a[i], items_b[j])`` for every ``(i, j)``.

    The batched form of :func:`levenshtein_distance`: one token
    vocabulary for the whole call, and the same row recurrence run over
    ``(P, L + 1)`` blocks of pairs sorted by first-operand length, so a
    block drops each pair once its row ``len(a)`` is reached.  A pair's
    value is read at column ``len(b)``; column ``j`` depends only on
    columns ``<= j``, so the ``-1`` padding beyond it cannot reach the
    answer, and empty operands fall out of row/column 0 unchanged.  All
    arithmetic is integer, so every value equals the per-pair call.
    """
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    out = np.empty(len(pairs), dtype=np.int64)
    if not len(pairs):
        return out
    # Encode only the operands the pairs reference.
    used_a, rows_a = np.unique(pairs[:, 0], return_inverse=True)
    used_b, rows_b = np.unique(pairs[:, 1], return_inverse=True)
    seqs_a = [items_a[i] for i in used_a]
    seqs_b = [items_b[j] for j in used_b]
    vocab: dict = {}
    tokens_a = _token_matrix(seqs_a, vocab)
    tokens_b = _token_matrix(seqs_b, vocab)
    lengths_a = np.array([len(s) for s in seqs_a])[rows_a]
    lengths_b = np.array([len(s) for s in seqs_b])[rows_b]

    order = np.argsort(lengths_a, kind="stable")
    for start in range(0, order.size, LEVENSHTEIN_BLOCK):
        block = order[start : start + LEVENSHTEIN_BLOCK]
        len_a = lengths_a[block]
        len_b = lengths_b[block]
        a = tokens_a[rows_a[block], : len_a[-1]]
        b = tokens_b[rows_b[block], : len_b.max()]
        # Rows are held column-shifted, row[j] - j: substitution is then
        # shifted[j-1] - match, deletion shifted[j] + 1, and the insertion
        # unroll row[j] = j + min(i, min_{k<=j}(best[k] - k)) a running
        # minimum from shifted[0] = i.  Two buffers alternate as previous
        # and current row; pairs [done:] are still running (len_a ascends).
        previous = np.zeros((block.size, b.shape[1] + 1), dtype=np.int32)
        current = np.empty_like(previous)
        match = np.empty(b.shape, dtype=bool)
        substitution = np.empty(b.shape, dtype=np.int32)
        done = 0
        for i in range(a.shape[1] + 1):
            finished = int(np.searchsorted(len_a, i, side="right"))
            if finished > done:
                ends = len_b[done:finished]
                out[block[done:finished]] = (
                    previous[np.arange(done, finished), ends] + ends
                )
                done = finished
            if done == block.size:
                break
            prev, cur = previous[done:], current[done:]
            np.equal(b[done:], a[done:, i : i + 1], out=match[done:])
            np.subtract(prev[:, :-1], match[done:], out=substitution[done:])
            np.add(prev[:, 1:], 1, out=cur[:, 1:])
            np.minimum(substitution[done:], cur[:, 1:], out=cur[:, 1:])
            cur[:, 0] = i + 1
            np.minimum.accumulate(cur, axis=1, out=cur)
            previous, current = current, previous
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
