"""Captured request behavior variation (Section 3.1, Figure 3).

The paper quantifies captured variations with a length-weighted coefficient
of variation (Equation 1) over execution periods.  Two views:

* **inter-request** variation assumes each request exhibits one uniform
  metric value over its execution (a whole request is a unit period);
* **intra-request-inclusive** ("captured") variation uses every sampled
  execution period, exposing the fluctuations within requests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.stats import coefficient_of_variation


def _global_overall(traces: Sequence, metric: str) -> float:
    num = 0.0
    den = 0.0
    for trace in traces:
        n, d = trace._metric_sums(metric)
        num += n
        den += d
    if den <= 0:
        raise ValueError("zero metric denominator across traces")
    return num / den


def inter_request_variation(traces: Sequence, metric: str) -> float:
    """CoV across requests, each request one uniform period (Equation 1)."""
    if not traces:
        raise ValueError("no traces")
    values = np.array([t.overall(metric) for t in traces])
    weights = np.array([t.total_instructions for t in traces])
    return coefficient_of_variation(
        values, weights, overall=_global_overall(traces, metric)
    )


def captured_variation(traces: Sequence, metric: str) -> float:
    """CoV over all sampled periods, including intra-request fluctuation."""
    if not traces:
        raise ValueError("no traces")
    values_parts = []
    weights_parts = []
    for trace in traces:
        values, weights = trace.period_values(metric)
        values_parts.append(values)
        weights_parts.append(weights)
    values = np.concatenate(values_parts)
    weights = np.concatenate(weights_parts)
    return coefficient_of_variation(
        values, weights, overall=_global_overall(traces, metric)
    )
