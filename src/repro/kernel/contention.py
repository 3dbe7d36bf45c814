"""Contention-easing CPU scheduling (Section 5.2).

Policy: requests in their high-resource-usage periods should avoid
co-execution.  At each scheduling opportunity the scheduler

1. checks whether any *other* core is currently executing a request in a
   high resource usage period — if not, schedule normally;
2. otherwise searches the local runqueue for a request that is *not* in a
   high-usage period and picks the one closest to the head; if none exists
   it gives up and schedules normally.  Requests are never migrated across
   core runqueues.

"High resource usage" is judged online from a per-request vaEWMA prediction
of L2 cache misses per instruction (the metric the paper selects: it
reflects both shared-L2 performance and memory bandwidth pressure, and the
anomaly analysis showed it tracks worst-case CPI).  The threshold is the
80-percentile of the application's miss-per-instruction distribution.
Rescheduling is attempted at most every 5 ms, and the current task is kept
at the head of its runqueue so that a failed attempt resumes it without
paying context-switch cache pollution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.prediction import VaEwma
from repro.core.quantile import OnlineQuantile
from repro.kernel.scheduler import SchedulerPolicy
from repro.kernel.task import Task


@dataclass
class ContentionEasingScheduler(SchedulerPolicy):
    """Variation-driven scheduler avoiding co-execution of high-usage periods."""

    #: Threshold on predicted L2 misses per instruction between low and
    #: high resource usage (the 80-percentile of the workload distribution).
    high_usage_threshold: float = 0.004
    #: Learn the threshold online instead: a P-square estimator tracks the
    #: 80-percentile of observed misses-per-instruction samples, removing
    #: the need for an offline profiling run (an extension beyond the
    #: paper's setup; ``high_usage_threshold`` serves as the warm-up value).
    adaptive_threshold: bool = False
    threshold_percentile: float = 0.8
    #: Warm-up observations before the online estimate takes over.
    adaptive_warmup: int = 200
    #: vaEWMA gain (the paper settles on alpha = 0.6 for its case study).
    alpha: float = 0.6
    #: vaEWMA unit observation length in cycles (1 ms at 3 GHz by default).
    unit_length_cycles: float = 3_000_000.0
    quantum_us: float = 100_000.0
    #: Rescheduling attempted at no more than 5 ms intervals.
    resched_interval_us: Optional[float] = 5_000.0
    stats: dict = field(
        default_factory=lambda: {
            "dispatches": 0,
            "avoidance_picks": 0,
            "gave_up": 0,
            "preemptions": 0,
        }
    )

    _quantile: OnlineQuantile = field(init=False, repr=False, default=None)

    def __post_init__(self):
        threshold = self.high_usage_threshold
        if not (math.isfinite(threshold) and threshold >= 0):  # fails NaN
            raise ValueError(
                f"high_usage_threshold must be finite and >= 0, got {threshold!r}"
            )
        self._quantile = OnlineQuantile(q=self.threshold_percentile)

    def _predictor(self, task: Task) -> VaEwma:
        predictor = task.predictor_state.get("mpi")
        if predictor is None:
            predictor = VaEwma(alpha=self.alpha, unit_length=self.unit_length_cycles)
            task.predictor_state["mpi"] = predictor
        return predictor

    def describe(self) -> dict:
        description = super().describe()
        description.update(
            adaptive_threshold=self.adaptive_threshold,
            high_usage_threshold=self.high_usage_threshold,
            threshold_percentile=self.threshold_percentile,
            alpha=self.alpha,
        )
        return description

    def current_threshold(self) -> float:
        """The high/low usage threshold currently in force."""
        if self.adaptive_threshold and self._quantile.count >= self.adaptive_warmup:
            estimate = self._quantile.estimate()
            # An empty estimator (warm-up of zero before any sample) has no
            # estimate yet; fall back to the configured warm-up threshold
            # instead of returning None into a float comparison.
            if estimate is not None:
                return estimate
        return self.high_usage_threshold

    def on_sample(self, task, instructions, l2_misses, cycles):
        if instructions <= 0 or cycles <= 0:
            return
        mpi = l2_misses / instructions
        if self.adaptive_threshold:
            self._quantile.observe(mpi)
        self._predictor(task).observe(mpi, length=cycles)

    def predicted_high(self, task: Task) -> bool:
        """Whether the request is predicted to be in a high-usage period."""
        estimate = self._predictor(task).predict()
        if estimate is None:
            return False  # no observation yet: assume low
        return estimate > self.current_threshold()

    def _others_high(self, core_id: int, running: Dict[int, Optional[Task]]) -> bool:
        return any(
            task is not None and self.predicted_high(task)
            for core, task in running.items()
            if core != core_id
        )

    def pick(self, core_id, runqueue: List[Task], running):
        if not runqueue:
            return None
        self.stats["dispatches"] += 1
        if not self._others_high(core_id, running):
            return 0
        for idx, task in enumerate(runqueue):
            if not self.predicted_high(task):
                if idx > 0:
                    self.stats["avoidance_picks"] += 1
                return idx
        self.stats["gave_up"] += 1
        return 0

    def should_preempt(self, core_id, current, runqueue, running):
        if not runqueue:
            return None
        if not self._others_high(core_id, running):
            return None
        if not self.predicted_high(current):
            return None  # current already eases contention; keep it
        for idx, task in enumerate(runqueue):
            if not self.predicted_high(task):
                self.stats["preemptions"] += 1
                return idx
        self.stats["gave_up"] += 1
        return None
