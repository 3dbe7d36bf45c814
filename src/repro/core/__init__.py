"""The paper's primary contribution: variation-driven request modeling.

Submodules implement request time-series construction, differencing
measures (L1, dynamic time warping with asynchrony penalty, Levenshtein),
k-medoids classification, anomaly detection, online signature
identification, online behavior predictors (EWMA / variable-aging EWMA),
and behavior-transition-signal training.
"""

from repro.core.centroids import GroupCentroids, IncrementalCentroid
from repro.core.clustering import (
    KMedoidsResult,
    choose_k,
    k_medoids,
    silhouette_score,
)
from repro.core.distances import (
    average_metric_distance,
    l1_distance,
    levenshtein_distance,
    unequal_length_penalty,
)
from repro.core.distengine import DistanceCache, DistanceEngine, sequence_key
from repro.core.dtw import dtw_distance
from repro.core.identification import Identification, OnlineIdentifier
from repro.core.kernels import PaddedBank, PenaltyDtw, dtw_one_to_many
from repro.core.prediction import (
    Ewma,
    LastValue,
    RunningAverage,
    VaEwma,
    evaluate_predictor,
)
from repro.core.quantile import OnlineQuantile
from repro.core.stagedetect import detect_change_points, identify_stages
from repro.core.timeseries import MetricSeries
from repro.core.variation import captured_variation, inter_request_variation

__all__ = [
    "DistanceCache",
    "DistanceEngine",
    "Ewma",
    "GroupCentroids",
    "Identification",
    "IncrementalCentroid",
    "KMedoidsResult",
    "LastValue",
    "MetricSeries",
    "OnlineIdentifier",
    "OnlineQuantile",
    "PaddedBank",
    "PenaltyDtw",
    "RunningAverage",
    "VaEwma",
    "average_metric_distance",
    "captured_variation",
    "choose_k",
    "detect_change_points",
    "dtw_distance",
    "dtw_one_to_many",
    "evaluate_predictor",
    "identify_stages",
    "inter_request_variation",
    "k_medoids",
    "l1_distance",
    "levenshtein_distance",
    "sequence_key",
    "silhouette_score",
    "unequal_length_penalty",
]
