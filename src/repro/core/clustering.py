"""k-medoids request classification (Section 4.2).

The mean of a set of request variation patterns is not well defined, so the
paper replaces k-means with k-medoids: each cluster is represented by its
*centroid request* — the member whose summed distance to all other members
is minimal — and requests are iteratively reassigned to the nearest
centroid.  The implementation works on a precomputed distance matrix so any
differencing measure from Section 4.1 plugs in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.distengine import DistanceEngine
from repro.obs.profiling import profiled_stage


def distance_matrix(
    items: Sequence,
    distance: Callable,
    symmetric: bool = True,
    *,
    engine: Optional[DistanceEngine] = None,
    distance_key: Optional[str] = None,
) -> np.ndarray:
    """Dense pairwise distance matrix for ``items``.

    Computed through ``engine`` (a serial, uncached one by default): an
    engine with ``jobs > 1`` forks a per-pair loop that outlasts its fork
    budget, and one with a cache memoizes the whole matrix under
    ``distance_key``.  All paths return matrices bit-identical to the
    serial double loop.
    """
    if engine is None:
        engine = DistanceEngine()
    return engine.matrix(
        items, distance, symmetric=symmetric, distance_key=distance_key
    )


@dataclass(frozen=True)
class KMedoidsResult:
    """Outcome of one k-medoids run."""

    medoids: np.ndarray
    labels: np.ndarray
    iterations: int
    total_cost: float

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster)


def _init_medoids(matrix: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy farthest-point seeding (deterministic given the rng)."""
    n = matrix.shape[0]
    first = int(rng.integers(n))
    medoids = [first]
    min_dist = matrix[first].copy()
    while len(medoids) < k:
        candidate = int(np.argmax(min_dist))
        if min_dist[candidate] == 0.0:
            # Remaining points coincide with existing medoids; fill randomly.
            remaining = np.setdiff1d(np.arange(n), medoids)
            extra = rng.choice(remaining, size=k - len(medoids), replace=False)
            medoids.extend(int(e) for e in extra)
            break
        medoids.append(candidate)
        min_dist = np.minimum(min_dist, matrix[candidate])
    return np.array(medoids, dtype=int)


def k_medoids(
    matrix: np.ndarray,
    k: int,
    rng: Optional[np.random.Generator] = None,
    max_iterations: int = 50,
    initial_medoids: Optional[Sequence[int]] = None,
) -> KMedoidsResult:
    """Cluster by iterative medoid refinement over a distance matrix.

    Seeding is greedy farthest-point from an rng-chosen start by default;
    ``initial_medoids`` pins the seeds explicitly instead, which makes the
    refinement a pure function of (matrix, seeds) — the metamorphic tests
    use this to check permutation equivariance without the seeding's
    positional rng draw getting in the way.
    """
    with profiled_stage("cluster"):
        return _k_medoids(matrix, k, rng, max_iterations, initial_medoids)


def _k_medoids(
    matrix: np.ndarray,
    k: int,
    rng: Optional[np.random.Generator],
    max_iterations: int,
    initial_medoids: Optional[Sequence[int]] = None,
) -> KMedoidsResult:
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if rng is None:
        rng = np.random.default_rng(0)

    if initial_medoids is not None:
        medoids = np.asarray(initial_medoids, dtype=int)
        if medoids.shape != (k,):
            raise ValueError(f"initial_medoids must have length {k}")
        if len(set(medoids.tolist())) != k:
            raise ValueError("initial_medoids must be distinct")
        if medoids.min() < 0 or medoids.max() >= n:
            raise ValueError(f"initial_medoids must index [0, {n})")
    else:
        medoids = _init_medoids(matrix, k, rng)
    labels = np.argmin(matrix[:, medoids], axis=1)
    clusters = np.arange(k)
    for iteration in range(1, max_iterations + 1):
        # The centroid request per cluster: minimum summed distance to
        # members.  One grouped label-sum (matrix @ one-hot membership)
        # replaces the per-cluster np.ix_ submatrix copies:
        # member_sums[i, c] = sum of matrix[i, j] over members j of c.
        membership = (labels == clusters[:, None]).T.astype(float)
        member_sums = matrix @ membership
        candidates = np.where(
            labels[:, None] == clusters, member_sums, np.inf
        )
        counts = np.bincount(labels, minlength=k)
        # Move a medoid only on *strict* improvement.  np.argmin breaks
        # exact ties by position, and exact ties are common (both members
        # of a two-point cluster tie by symmetry), so displacing the
        # current medoid for an equal-cost member would make the result
        # depend on input order.  Keeping the incumbent is position-free:
        # the same rule under any permutation of the inputs.
        best = np.argmin(candidates, axis=0)
        incumbent_sums = candidates[medoids, clusters]
        improved = candidates[best, clusters] < incumbent_sums
        new_medoids = np.where((counts > 0) & improved, best, medoids)
        new_labels = np.argmin(matrix[:, new_medoids], axis=1)
        converged = np.array_equal(new_medoids, medoids) and np.array_equal(
            new_labels, labels
        )
        medoids, labels = new_medoids, new_labels
        if converged:
            break
    total_cost = float(matrix[np.arange(n), medoids[labels]].sum())
    return KMedoidsResult(
        medoids=medoids, labels=labels, iterations=iteration, total_cost=total_cost
    )


def divergence_from_centroid(
    properties: np.ndarray, result: KMedoidsResult
) -> float:
    """Mean divergence of a request property from its cluster centroid.

    For request property value ``v_r`` and its centroid's value ``v_c``
    the divergence is ``|v_r - v_c| / v_c`` (Section 4.2); the return value
    averages over all requests, expressed as a fraction (0.2 = 20%).
    """
    properties = np.asarray(properties, dtype=float)
    centroid_values = properties[result.medoids[result.labels]]
    if np.any(centroid_values == 0):
        raise ValueError("centroid property value of zero")
    return float(np.mean(np.abs(properties - centroid_values) / centroid_values))
