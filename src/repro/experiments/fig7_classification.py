"""Figure 7: request classification quality under different differencing
measures.

k-medoids (k = 10) clusters each application's requests under five
measures: Levenshtein distance of syscall sequences (Magpie-style software
events), difference of average request CPIs (the prior-work signature),
L1 distance of CPI variation sequences, plain dynamic time warping, and
DTW with the asynchrony penalty.  Quality = cluster members' divergence
from their centroid, on two request properties: CPU execution time and
peak (90-percentile) CPI.

Paper expectations:
* DTW **with** the asynchrony penalty achieves the best quality everywhere;
  without the penalty, no-cost time shifting under-estimates differences
  and classification can be very poor;
* Levenshtein (software events only) is relatively poor — it misses dynamic
  multicore execution effects;
* average-CPI does well on the peak-CPI property (strong correlation) but
  poorly on CPU time;
* L1 is slightly worse than DTW+penalty (over-estimation on drifted pairs)
  but far cheaper — the pragmatic online choice.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.analysis.stats import weighted_percentile
from repro.core.clustering import distance_matrix, divergence_from_centroid, k_medoids
from repro.core.distengine import DistanceCache, DistanceEngine, default_cache_path
from repro.core.distances import (
    average_metric_distance,
    l1_distance,
    levenshtein_distance,
    unequal_length_penalty,
)
from repro.core.kernels import PenaltyDtw
from repro.experiments.base import ExperimentResult
from repro.experiments.common import all_apps, scaled, simulate
from repro.workloads.registry import make_workload

#: Requests clustered per application (paper-scale statistics would use
#: more; the k-medoids outcome stabilizes well below that).
_REQUESTS = {"webserver": 120, "tpcc": 120, "tpch": 68, "rubis": 100, "webwork": 32}

#: Cap on syscall-sequence length for the Levenshtein baseline (long TPCH
#: sequences are subsampled; edit distance is quadratic).
_MAX_EVENTS = 300

MEASURES = ("levenshtein", "avg_cpi", "l1", "dtw", "dtw_penalty")


def _subsample(seq: List[str], limit: int) -> List[str]:
    if len(seq) <= limit:
        return seq
    idx = np.linspace(0, len(seq) - 1, limit).astype(int)
    return [seq[i] for i in idx]


def classification_quality(
    app: str,
    scale: float,
    seed: int,
    k: int = 10,
    engine: DistanceEngine = None,
) -> Dict:
    """Divergence-from-centroid per measure for one application.

    All five O(n^2) distance matrices run through ``engine`` (serial by
    default); the cache keys embed the measure name and its penalty so a
    cached rerun is hit-for-hit safe.
    """
    sim = simulate(app, num_requests=scaled(_REQUESTS[app], scale, minimum=24), seed=seed)
    traces = sim.traces
    window = make_workload(app).window_instructions
    rng = np.random.default_rng(seed)

    cpi_series = [t.series("cpi", window).values for t in traces]
    syscall_seqs = [
        _subsample(t.spec.syscall_sequence(rng), _MAX_EVENTS) for t in traces
    ]
    avg_cpis = [np.array([t.overall_cpi()]) for t in traces]
    penalty = unequal_length_penalty(np.concatenate(cpi_series), rng)

    cpu_times = np.array([t.cpu_time_us() for t in traces])
    peak_cpis = np.array(
        [
            weighted_percentile(values, 90, weights)
            for values, weights in (t.period_values("cpi") for t in traces)
        ]
    )

    # levenshtein_distance and the PenaltyDtw measures carry a
    # ``pairwise`` attribute, so the engine batches all their pairs in one
    # call (bit-identical to per-pair calls); l1 and avg-CPI go per pair.
    distance_fns = {
        "levenshtein": (syscall_seqs, levenshtein_distance, "levenshtein"),
        "avg_cpi": (avg_cpis, average_metric_distance, "avg-metric"),
        "l1": (
            cpi_series,
            lambda a, b: l1_distance(a, b, penalty=penalty),
            f"l1:p={penalty!r}",
        ),
        "dtw": (cpi_series, PenaltyDtw(0.0), "dtw:p=0"),
        "dtw_penalty": (
            cpi_series,
            PenaltyDtw(penalty),
            f"dtw:p={penalty!r}",
        ),
    }

    quality = {}
    for measure, (items, fn, key) in distance_fns.items():
        matrix = distance_matrix(items, fn, engine=engine, distance_key=key)
        clusters = k_medoids(matrix, k=min(k, len(items)), rng=np.random.default_rng(seed))
        quality[measure] = {
            "cpu_time": divergence_from_centroid(cpu_times, clusters),
            "peak_cpi": divergence_from_centroid(peak_cpis, clusters),
        }
    return quality


def run(
    scale: float = 1.0,
    seed: int = 101,
    jobs: int = 1,
    cache_dir: str = None,
) -> ExperimentResult:
    """``jobs`` parallelizes the pairwise-distance matrices; ``cache_dir``
    persists them (e.g. ``results/.cache``) so reruns and k-sweeps skip
    recomputation.  Results are bit-identical either way."""
    cache = (
        DistanceCache(path=default_cache_path(cache_dir))
        if cache_dir is not None
        else None
    )
    engine = DistanceEngine(jobs=jobs, cache=cache)
    result = ExperimentResult(
        exp_id="fig7",
        title="Classification quality (divergence from centroid, lower = better)",
    )
    for prop in ("cpu_time", "peak_cpi"):
        result.panels[f"property: {prop}"] = []
    wins = 0
    total = 0
    for app in all_apps():
        quality = classification_quality(app, scale, seed, engine=engine)
        for prop in ("cpu_time", "peak_cpi"):
            row = {"app": app}
            for measure in MEASURES:
                row[measure] = 100.0 * quality[measure][prop]
            result.panels[f"property: {prop}"].append(row)
            total += 1
            if row["dtw_penalty"] <= min(row["l1"], row["levenshtein"]) + 1e-9:
                wins += 1
    result.notes.append(
        "values are divergence-from-centroid percentages (lower is better); "
        f"dtw_penalty beats both L1 and Levenshtein in {wins}/{total} panels"
    )
    result.notes.append(
        "paper: DTW+penalty best overall; plain DTW can be very poor "
        "(no-cost time shifting); Levenshtein poor (misses dynamic "
        "multicore effects); avg-CPI good on peak CPI but poor on CPU time"
    )
    return result
