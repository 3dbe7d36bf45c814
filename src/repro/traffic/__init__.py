"""Open-system traffic layer: arrivals, dispatch, latency accounting.

This package turns the simulator from a closed generative loop into an
open system: :mod:`~repro.traffic.arrivals` supplies seeded arrival
schedules (Poisson, bursty ON-OFF, diurnal, Zipf-skewed multi-tenant,
deterministic trace replay — with the paper's closed loop as just one
more process), :mod:`~repro.traffic.dispatch` places runnable request
stages on cores through pluggable policies (round-robin, random, JSQ,
least-outstanding-work, signature/class-aware), and
:mod:`~repro.traffic.latency` records the per-request queueing and
sojourn latencies that make "throughput vs p99" a measurable curve.

A :class:`TrafficConfig` bundles the three for
:class:`repro.kernel.simulator.SimConfig`; leaving it unset (or using
closed-loop arrivals with round-robin dispatch) is byte-identical to the
pre-traffic-layer simulator, which the golden corpus pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.traffic.arrivals import (
    Arrival,
    ArrivalProcess,
    ClosedLoop,
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
    TraceReplay,
    ZipfArrivals,
    load_schedule,
    parse_arrivals,
    save_schedule,
)
from repro.traffic.dispatch import (
    ClassAwareDispatch,
    DispatchPolicy,
    JoinShortestQueue,
    LeastOutstandingWork,
    QueueView,
    RandomDispatch,
    RoundRobinDispatch,
    parse_dispatch,
)
from repro.traffic.latency import LatencyStore, RequestLatency

__all__ = [
    "Arrival",
    "ArrivalProcess",
    "ClassAwareDispatch",
    "ClosedLoop",
    "DispatchPolicy",
    "DiurnalArrivals",
    "JoinShortestQueue",
    "LatencyStore",
    "LeastOutstandingWork",
    "OnOffArrivals",
    "PoissonArrivals",
    "QueueView",
    "RandomDispatch",
    "RequestLatency",
    "RoundRobinDispatch",
    "TraceReplay",
    "TrafficConfig",
    "ZipfArrivals",
    "load_schedule",
    "parse_arrivals",
    "parse_dispatch",
    "save_schedule",
]


@dataclass
class TrafficConfig:
    """The open-system traffic setup for one simulation run.

    ``admission_limit`` bounds the admission queue: an open-loop arrival
    finding ``limit`` requests already in flight (admitted, not yet
    completed) is *shed* — counted, never executed — which is the
    backpressure behavior a load sweep needs to show past saturation.
    ``None`` admits everything (latency then grows without bound as
    offered load exceeds capacity).
    """

    arrivals: ArrivalProcess = field(default_factory=ClosedLoop)
    dispatch: DispatchPolicy = field(default_factory=RoundRobinDispatch)
    admission_limit: Optional[int] = None

    def __post_init__(self):
        if self.admission_limit is not None and self.admission_limit < 1:
            raise ValueError(
                f"admission_limit must be >= 1, got {self.admission_limit}"
            )
        if self.admission_limit is not None and self.arrivals.is_closed_loop:
            raise ValueError(
                "admission_limit needs open-loop arrivals; the closed loop "
                "is bounded by concurrency already"
            )

    def describe(self) -> dict:
        """JSON-serializable identity, for trace/result metadata."""
        return {
            "arrivals": self.arrivals.describe(),
            "dispatch": self.dispatch.describe(),
            "admission_limit": self.admission_limit,
        }
