"""The paper's primary contribution: variation-driven request modeling.

Submodules implement request time-series construction, differencing
measures (L1, dynamic time warping with asynchrony penalty, Levenshtein),
k-medoids classification, anomaly detection, online signature
identification, online behavior predictors (last value, running average,
variable-aging EWMA), and behavior-transition-signal training.
"""

from repro.core.centroids import GroupCentroids, IncrementalCentroid
from repro.core.clustering import KMedoidsResult, k_medoids
from repro.core.distances import (
    average_metric_distance,
    l1_distance,
    levenshtein_distance,
    unequal_length_penalty,
)
from repro.core.distengine import DistanceCache, DistanceEngine, sequence_key
from repro.core.dtw import dtw_distance
from repro.core.identification import OnlineIdentifier
from repro.core.kernels import PaddedBank, PenaltyDtw
from repro.core.prediction import (
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
    "GroupCentroids",
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
    "detect_change_points",
    "dtw_distance",
    "evaluate_predictor",
    "identify_stages",
    "inter_request_variation",
    "k_medoids",
    "l1_distance",
    "levenshtein_distance",
    "sequence_key",
    "unequal_length_penalty",
]
