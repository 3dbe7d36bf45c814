"""Dynamic time warping with an asynchrony penalty (Section 4.1).

Two pointers walk the two metric value sequences; each warp step is either
*synchronous* (both pointers advance) or *asynchronous* (one advances).
The path distance sums the metric difference at the pointer locations over
all steps (Equation 3), and the DTW distance is the minimum over valid
paths — solvable by dynamic programming in O(m*n).

Plain DTW lets asynchronous steps absorb time shifting at no cost, which
the paper found *under*-estimates request differences badly (Figure 7's
plain-DTW bars).  The paper's enhancement charges each asynchronous step a
penalty ``p`` (the same unequal-length penalty as Equation 2's L1
distance), which restores high classification quality.

The DP row recurrence

    D[i][j] = c[i][j] + min(D[i-1][j-1], D[i-1][j] + p, D[i][j-1] + p)

has a within-row dependency through the third term; it unrolls into a
prefix minimum, making every row a few vector operations:

    A[j]    = min(D_prev[j-1], D_prev[j] + p)        (entry points at row i)
    D[i][j] = C[j] + j*p + min_{k<=j} (A[k] - C[k-1] - k*p)

with C the prefix sums of the current cost row c[i][:], and the k = 0
term the anchor ``D[i][0] - C[0]``.  This function is the serial
reference; the batched DPs of :mod:`repro.core.kernels` agree with it
bit for bit:

* all three take the prefix sum with ``np.add.accumulate`` and the
  prefix minimum with one ``np.fmin.accumulate`` over ``[anchor,
  offsets...]``, both sequential along the row;
* the one-vs-many DP performs this function's operations per pair; at
  ``p = 0`` the lane-scheduled DP skips the ``+ p``, ``- k*p`` and
  ``+ j*p`` passes and the x-step's ``+ p``, which this function keeps
  at every ``p``.  Skipping them gives the same bits: ``x - 0.0 == x``
  for every ``x``, and ``x + 0.0 == x`` for every ``x`` but ``-0.0``.
  No DP value is ``-0.0``: costs come from ``abs`` (``+0.0`` at worst),
  and a sum whose first operand is ``>= +0.0`` is never ``-0.0``.

Operands holding NaN or an infinity are refused with a ``ValueError``
naming the operand.  ``fmin`` and ``minimum`` agree whenever no NaN is
involved, so on finite operands the values are those of the former
``np.minimum.accumulate`` recurrence, except where the DP itself
overflows past ~1.8e308 (``inf - inf`` is NaN, which ``fmin`` skips and
``minimum`` propagated).
"""

from __future__ import annotations

import numpy as np


def dtw_operand(values, name: str) -> np.ndarray:
    """``values`` as a float array; ``ValueError`` if empty, or naming
    ``name`` if it holds NaN or an infinity."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty sequence")
    if not np.isfinite(values).all():
        raise ValueError(f"DTW operand {name} holds NaN or inf")
    return values


def dtw_distance(x, y, asynchrony_penalty: float = 0.0) -> float:
    """DTW distance between two value sequences (Equation 3).

    ``asynchrony_penalty`` is the per-asynchronous-step charge ``p``; zero
    recovers classic dynamic time warping.  ``x`` or ``y`` holding NaN or
    an infinity raises ``ValueError`` naming it.
    """
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    x = dtw_operand(x, "x")
    y = dtw_operand(y, "y")
    p = float(asynchrony_penalty)
    n = y.size
    jp = np.arange(n) * p

    # Row 0: only asynchronous steps along y.
    row = np.abs(x[0] - y)
    if n > 1:
        row[1:] = row[0] + np.add.accumulate(row[1:] + p)

    scan = np.empty(n)
    for i in range(1, x.size):
        cost = np.abs(x[i] - y)
        prefix = np.add.accumulate(cost)  # C[j] = sum of cost[0..j]
        first = row[0] + cost[0] + p  # asynchronous step along x
        # scan[k]: the anchor at k = 0, then A[k] - C[k-1] - k*p, where
        # A[k] arrives from the previous row either diagonally
        # (synchronous) or vertically (asynchronous).
        scan[0] = first - prefix[0]
        scan[1:] = np.minimum(row[:-1], row[1:] + p) - prefix[:-1] - jp[1:]
        np.fmin.accumulate(scan, out=scan)
        row = prefix + jp + scan
        row[0] = first
    return float(row[-1])
