"""Anomaly detection and analysis (Section 4.3).

Anomalous requests deviate from a *reference* against expected similarity.
Two detectors from the paper:

* **centroid-distance detection**: within a group of requests sharing
  application-level semantics (same TPC-H query, same WeBWorK problem), the
  member farthest from the group centroid shares the least common behavior
  and is a suspected anomaly; the centroid serves as its reference;
* **multi-metric pair search**: hunt for request pairs that look alike on
  L2 references per instruction (same reference stream to the shared
  resource) yet differ on CPI — the signature of a request hurt by dynamic
  contention on a cache-sharing multicore.

Both detectors compute their distances through a serial, uncached
distance engine, which batches a measure with a ``pairwise`` attribute
(:class:`~repro.core.kernels.PenaltyDtw`) in one call per matrix or pair
list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distengine import DistanceEngine


@dataclass(frozen=True)
class AnomalyCase:
    """A suspected anomaly with its reference request."""

    anomaly_index: int
    reference_index: int
    #: Distance on the detecting metric (centroid distance, or CPI distance
    #: for multi-metric pairs).
    score: float
    group: Optional[str] = None


def group_centroid(distances: np.ndarray) -> int:
    """Index of the member with minimum summed distance to all others."""
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError("distances must be a square matrix")
    return int(np.argmin(distances.sum(axis=1)))


def detect_by_centroid_distance(
    groups: Dict[str, Sequence[int]],
    sequences: Sequence,
    distance: Callable,
    top_per_group: int = 1,
    min_group_size: int = 4,
) -> List[AnomalyCase]:
    """Centroid-distance anomaly detection over semantic groups.

    ``groups`` maps a group key (e.g. query type) to indices into
    ``sequences``; for every sufficiently large group the members with the
    highest distance to the group centroid are flagged, with the centroid
    as the reference.  The per-group matrices go through the distance
    engine, which hands a batchable measure
    (:class:`~repro.core.kernels.PenaltyDtw`) all of a group's pairs in
    one ``pairwise`` call instead of per-pair Python calls.
    """
    engine = DistanceEngine()
    cases: List[AnomalyCase] = []
    for key, indices in groups.items():
        indices = list(indices)
        if len(indices) < min_group_size:
            continue
        matrix = engine.matrix([sequences[idx] for idx in indices], distance)
        centroid = group_centroid(matrix)
        n = len(indices)
        order = np.argsort(matrix[centroid])[::-1]
        for rank in range(min(top_per_group, n - 1)):
            member = int(order[rank])
            if member == centroid:
                continue
            cases.append(
                AnomalyCase(
                    anomaly_index=indices[member],
                    reference_index=indices[centroid],
                    score=float(matrix[centroid, member]),
                    group=key,
                )
            )
    cases.sort(key=lambda c: c.score, reverse=True)
    return cases


def detect_multi_metric_pairs(
    ref_sequences: Sequence,
    cpi_sequences: Sequence,
    ref_distance: Callable,
    cpi_distance: Callable,
    ref_similarity_quantile: float = 10.0,
    top_pairs: int = 5,
    candidate_pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> List[AnomalyCase]:
    """Multi-metric anomaly search (similar L2-reference streams, different CPI).

    Pairs whose L2-references-per-instruction distance falls below the
    ``ref_similarity_quantile`` percentile are considered same-work pairs;
    among them the largest CPI distances are returned.  Within a flagged
    pair, the request with the higher mean CPI is the anomaly.  Both pair
    sweeps run through the distance engine.
    """
    n = len(ref_sequences)
    if n != len(cpi_sequences):
        raise ValueError("sequence lists must align")
    if candidate_pairs is None:
        candidate_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not candidate_pairs:
        return []
    engine = DistanceEngine()
    candidate_pairs = list(candidate_pairs)
    ref_d = engine.pair_distances(ref_sequences, candidate_pairs, ref_distance)
    threshold = np.percentile(ref_d, ref_similarity_quantile)
    similar = [
        (pair, rd) for pair, rd in zip(candidate_pairs, ref_d) if rd <= threshold
    ]
    similar_pairs = [pair for pair, _ in similar]
    cpi_d = engine.pair_distances(cpi_sequences, similar_pairs, cpi_distance)
    scored = [(pair, float(cd)) for pair, cd in zip(similar_pairs, cpi_d)]
    scored.sort(key=lambda item: item[1], reverse=True)

    cases = []
    for (i, j), cd in scored[:top_pairs]:
        mean_i = float(np.mean(cpi_sequences[i]))
        mean_j = float(np.mean(cpi_sequences[j]))
        anomaly, reference = (i, j) if mean_i >= mean_j else (j, i)
        cases.append(
            AnomalyCase(anomaly_index=anomaly, reference_index=reference, score=cd)
        )
    return cases
