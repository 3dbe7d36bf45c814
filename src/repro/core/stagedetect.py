"""Transparent request-stage identification from variation patterns.

The paper's related-work discussion (Section 6) points out that staged
server architectures (SEDA, cohort scheduling, Capriccio) require manual
programmer annotation of request stages, whereas "our characterization of
request behavior variations may transparently identify potential stage
transitions at the OS and annotate each stage with its unique hardware
execution characteristics."  This module implements that suggestion: a
change-point detector over a request's metric variation pattern, plus
per-stage hardware annotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class DetectedStage:
    """One detected stage with its hardware execution characteristics."""

    start_window: int
    end_window: int  # exclusive
    mean_cpi: float
    mean_l2_refs_per_ins: float
    mean_l2_miss_ratio: float

    @property
    def length_windows(self) -> int:
        return self.end_window - self.start_window


def detect_change_points(
    values,
    min_segment: int = 2,
    threshold: float = 1.5,
) -> List[int]:
    """Change points in a metric sequence via a two-window mean test.

    A window boundary is a change point when the absolute difference of
    the means over the ``min_segment`` windows before and after exceeds
    ``threshold`` times the local standard deviation.  Greedy
    left-to-right with a ``min_segment`` refractory gap — cheap enough
    for online use, matching the OS-level cost constraints of the paper.
    """
    if min_segment < 1:
        raise ValueError("min_segment must be at least 1")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2 * min_segment:
        return []
    global_std = float(values.std())
    if global_std == 0.0:
        return []

    change_points = []
    last_cut = 0
    for k in range(min_segment, n - min_segment + 1):
        if k - last_cut < min_segment:
            continue
        before = values[max(last_cut, k - min_segment) : k]
        after = values[k : k + min_segment]
        local_std = max(float(np.concatenate([before, after]).std()), 1e-12)
        scale = min(local_std, global_std)
        if abs(after.mean() - before.mean()) > threshold * max(scale, 0.05 * abs(values.mean())):
            change_points.append(k)
            last_cut = k
    return change_points


def identify_stages(
    trace,
    window_instructions: float,
    min_segment: int = 2,
    threshold: float = 1.5,
    metric: str = "cpi",
) -> List[DetectedStage]:
    """Detect stages in a request trace and annotate each with its
    hardware execution characteristics."""
    win = trace.window_counters(window_instructions)
    ins = win["instructions"]
    keep = ins > 0
    safe_ins = np.where(keep, ins, 1.0)
    cpi = win["cycles"] / safe_ins
    refs = win["l2_refs"] / safe_ins
    miss_ratio = np.where(
        win["l2_refs"] > 0, win["l2_misses"] / np.maximum(win["l2_refs"], 1e-12), 0.0
    )
    series = {"cpi": cpi, "l2_refs_per_ins": refs, "l2_miss_ratio": miss_ratio}
    if metric not in series:
        raise ValueError(f"unknown metric {metric!r}")

    cuts = detect_change_points(series[metric], min_segment, threshold)
    boundaries = [0] + cuts + [int(cpi.size)]
    stages = []
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        if end <= start:
            continue
        weights = safe_ins[start:end]
        total = weights.sum()
        stages.append(
            DetectedStage(
                start_window=start,
                end_window=end,
                mean_cpi=float((cpi[start:end] * weights).sum() / total),
                mean_l2_refs_per_ins=float(
                    (refs[start:end] * weights).sum() / total
                ),
                mean_l2_miss_ratio=float(
                    (miss_ratio[start:end] * weights).sum() / total
                ),
            )
        )
    return stages
