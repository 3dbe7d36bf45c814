"""Request-context tracking and per-request timeline serialization.

A request does not execute continuously on one CPU: it is context-switched,
and it propagates across server tiers through socket operations.  The
tracker attributes every execution period (the counter deltas between two
samples) to the owning request and, at completion, serializes the periods
into a continuous request timeline (the paper's Section 2.1 mechanism,
detailed in their prior work [27]).

Traces carry both raw measured counters (including sampling observer-effect
perturbation) and compensated counters where the known minimum per-sample
cost has been subtracted ("do no harm", Section 3.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.timeseries import MetricSeries
from repro.hardware.counters import CounterSnapshot, SamplingContext, SamplingCostModel
from repro.workloads.base import RequestSpec

#: Metric names resolvable by :meth:`RequestTrace.series` and friends.
METRICS = ("cpi", "l2_refs_per_ins", "l2_miss_per_ins", "l2_miss_ratio")


#: Field order of one period row: the simulator carries every execution
#: period as these nine values.
PERIOD_FIELDS = (
    "start", "end", "core", "cycles", "instructions", "l2_refs", "l2_misses",
    "injected_in_kernel", "injected_interrupt",
)

#: Floors of the compensated counters, a column in row order.
_FLOORS = np.array([[1.0], [1.0], [0.0], [0.0]])

#: The row fields a trace exposes raw: start, end and the four counters.
_RAW_FIELDS = [0, 1, 3, 4, 5, 6]


def minimum_cost_columns(cost_model: Optional[SamplingCostModel]):
    """The "do no harm" subtrahends: the in-kernel and the interrupt
    minimum per-sample cost, each a ``(4, 1)`` column in row order (None
    without a model)."""
    if cost_model is None:
        return None
    return tuple(
        np.array([[cost.cycles], [cost.instructions], [cost.l2_refs], [cost.l2_misses]])
        for cost in (
            cost_model.minimum_cost(SamplingContext.IN_KERNEL),
            cost_model.minimum_cost(SamplingContext.INTERRUPT),
        )
    )


class RequestTrace:
    """Serialized per-request counter timeline.

    ``periods`` is the ``(P, 9)`` block of the request's rows (any
    array-like numpy reads as that shape).  Each array is one column of
    the block, stably sorted by start cycle.  The six raw columns are
    rows of one array and the four compensated counters rows of another,
    so no array keeps the block or the injected counts alive.  With
    ``compensation`` (see :func:`minimum_cost_columns`) the compensated
    counters are the raw ones minus each injected count times its minimum
    cost, floored; without it they equal the raw counters.
    """

    def __init__(
        self,
        spec: RequestSpec,
        arrival_cycle: float,
        completion_cycle: float,
        periods,
        syscall_events: List[Tuple[float, str]],
        compensation,
        frequency_ghz: float,
    ):
        if len(periods) == 0:
            raise ValueError(f"request {spec.request_id} produced no periods")
        self.spec = spec
        self.arrival_cycle = arrival_cycle
        self.completion_cycle = completion_cycle
        self.syscall_events = list(syscall_events)
        self.frequency_ghz = frequency_ghz

        columns = np.asarray(periods).T
        rows = columns.take(columns[0].argsort(kind="stable"), axis=1)
        raw = rows[_RAW_FIELDS]
        (
            self.start,
            self.end,
            self.raw_cycles,
            self.raw_instructions,
            self.raw_l2_refs,
            self.raw_l2_misses,
        ) = raw
        self.core = rows[2].astype(int)
        if compensation is None:
            counters = raw[2:].copy()
        else:
            in_kernel, interrupt = compensation
            counters = np.maximum(
                _FLOORS, rows[3:7] - rows[7] * in_kernel - rows[8] * interrupt
            )
        self.cycles, self.instructions, self.l2_refs, self.l2_misses = counters

    # -- whole-request aggregates ------------------------------------------

    @property
    def num_periods(self) -> int:
        return int(self.instructions.size)

    @property
    def total_instructions(self) -> float:
        return float(self.instructions.sum())

    @property
    def total_cycles(self) -> float:
        return float(self.cycles.sum())

    def cpu_time_us(self) -> float:
        """Total CPU execution time consumed by the request."""
        return self.total_cycles / (self.frequency_ghz * 1000.0)

    def overall(self, metric: str) -> float:
        """Whole-execution value of a metric (total numerator / denominator)."""
        num, den = self._metric_sums(metric)
        return num / den

    def overall_cpi(self) -> float:
        return self.overall("cpi")

    # -- per-period views ---------------------------------------------------

    def _metric_arrays(self, metric: str):
        if metric == "cpi":
            return self.cycles, self.instructions
        if metric == "l2_refs_per_ins":
            return self.l2_refs, self.instructions
        if metric == "l2_miss_per_ins":
            return self.l2_misses, self.instructions
        if metric == "l2_miss_ratio":
            return self.l2_misses, self.l2_refs
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")

    def _metric_sums(self, metric: str):
        num, den = self._metric_arrays(metric)
        total_den = float(den.sum())
        if total_den <= 0:
            raise ValueError(f"metric {metric!r} denominator is zero for request")
        return float(num.sum()), total_den

    def period_values(self, metric: str):
        """Per-period metric values and instruction weights.

        Periods whose denominator is zero are dropped (e.g. miss ratio in a
        period without L2 references).
        """
        num, den = self._metric_arrays(metric)
        keep = den > 0
        return num[keep] / den[keep], self.instructions[keep]

    def series(self, metric: str, window_instructions: float) -> MetricSeries:
        """Metric series resampled on fixed instruction-count windows."""
        win = self.window_counters(window_instructions)
        num, den = self._window_metric(win, metric)
        safe_den = np.where(den > 0, den, 1.0)
        values = np.where(den > 0, num / safe_den, 0.0)
        return MetricSeries(values=values, lengths=np.full(values.shape, float(window_instructions)))

    def window_counters(self, window_instructions: float) -> Dict[str, np.ndarray]:
        """Counters aggregated over fixed instruction-count windows."""
        if window_instructions <= 0:
            raise ValueError("window_instructions must be positive")
        boundaries = np.concatenate([[0.0], np.cumsum(self.instructions)])
        total = boundaries[-1]
        n_windows = max(1, int(total // window_instructions))
        edges = window_instructions * np.arange(n_windows + 1)
        edges[-1] = min(edges[-1], total)
        out = {}
        for name, arr in (
            ("instructions", self.instructions),
            ("cycles", self.cycles),
            ("l2_refs", self.l2_refs),
            ("l2_misses", self.l2_misses),
        ):
            cum = np.concatenate([[0.0], np.cumsum(arr)])
            at_edges = np.interp(edges, boundaries, cum)
            out[name] = np.diff(at_edges)
        return out

    @staticmethod
    def _window_metric(win: Dict[str, np.ndarray], metric: str):
        if metric == "cpi":
            return win["cycles"], win["instructions"]
        if metric == "l2_refs_per_ins":
            return win["l2_refs"], win["instructions"]
        if metric == "l2_miss_per_ins":
            return win["l2_misses"], win["instructions"]
        if metric == "l2_miss_ratio":
            return win["l2_misses"], win["l2_refs"]
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")

    # -- execution-time views (for transition-signal training) --------------

    def exec_offset_of_cycle(self, cycle: float) -> float:
        """Map a wall-clock cycle to the request's busy-cycle offset.

        The request's execution timeline is the concatenation of its
        periods with scheduling gaps removed.
        """
        busy_before = 0.0
        for start, end, cyc in zip(self.start, self.end, self.cycles):
            if cycle < start:
                return busy_before
            if cycle <= end:
                wall = max(end - start, 1e-9)
                return busy_before + (cycle - start) / wall * cyc
            busy_before += cyc
        return busy_before

    def counters_in_exec_window(self, b0: float, b1: float) -> CounterSnapshot:
        """Counters accumulated between two busy-cycle offsets."""
        if b1 < b0:
            raise ValueError("window end before start")
        boundaries = np.concatenate([[0.0], np.cumsum(self.cycles)])
        b0 = min(max(b0, 0.0), boundaries[-1])
        b1 = min(max(b1, 0.0), boundaries[-1])
        values = {}
        for name, arr in (
            ("cycles", self.cycles),
            ("instructions", self.instructions),
            ("l2_refs", self.l2_refs),
            ("l2_misses", self.l2_misses),
        ):
            cum = np.concatenate([[0.0], np.cumsum(arr)])
            values[name] = float(
                np.interp(b1, boundaries, cum) - np.interp(b0, boundaries, cum)
            )
        return CounterSnapshot(**values)


class _OpenRequest:
    __slots__ = ("spec", "arrival_cycle", "periods", "syscalls")

    def __init__(self, spec: RequestSpec, arrival_cycle: float):
        self.spec = spec
        self.arrival_cycle = arrival_cycle
        #: The period rows laid end to end: nine values per period.
        self.periods: list = []
        self.syscalls: List[Tuple[float, str]] = []


class RequestTracker:
    """Attributes execution periods and syscalls to request contexts."""

    def __init__(
        self,
        cost_model: Optional[SamplingCostModel],
        frequency_ghz: float,
        compensate: bool = True,
        collector=None,
    ):
        from repro.obs.trace import NULL_COLLECTOR

        self._compensation = minimum_cost_columns(cost_model if compensate else None)
        self._frequency_ghz = frequency_ghz
        self._open: Dict[int, _OpenRequest] = {}
        self._obs = collector if collector is not None else NULL_COLLECTOR
        # Precomputed per-kind guards: a kind-filtered collector skips
        # even the keyword packing on the dense emission sites.
        self._emit_syscall = self._obs.enabled and self._obs.wants("syscall")
        self._emit_period = self._obs.enabled and self._obs.wants("period_sample")

    def start_request(self, spec: RequestSpec, arrival_cycle: float) -> None:
        if spec.request_id in self._open:
            raise ValueError(f"request {spec.request_id} already tracked")
        self._open[spec.request_id] = _OpenRequest(spec, arrival_cycle)

    def record_syscall(self, request_id: int, cycle: float, name: str) -> None:
        self._open[request_id].syscalls.append((cycle, name))
        if self._emit_syscall:
            self._obs.emit("syscall", cycle, request_id=request_id, name=name)

    @property
    def emits_period_samples(self) -> bool:
        """Whether :meth:`close_period` emits ``period_sample`` events."""
        return self._emit_period

    def period_sink(self, request_id: int) -> list:
        """The open request's flat period list, for direct extends.

        The simulator adds pre-filtered rows here (``sink += row``) to
        skip the per-sample dict lookup in :meth:`close_period`; only
        valid while no ``period_sample`` observer is attached (see
        :attr:`emits_period_samples`).
        """
        return self._open[request_id].periods

    def close_period(self, request_id: int, row: tuple) -> None:
        """Attribute a finished execution period to its request.

        ``row`` holds the period's nine values in :data:`PERIOD_FIELDS`
        order.  Periods with no measurable activity are dropped.  Kept
        periods are also emitted as ``period_sample`` events carrying the
        raw counter deltas plus injected-sample counts — the per-request
        sample stream the online pipeline (:mod:`repro.online`) consumes.
        """
        start, end, core, cycles, instructions, l2_refs, l2_misses, n_ik, n_int = row
        if cycles <= 0 and instructions <= 0:
            return
        self._open[request_id].periods.extend(row)
        if self._emit_period:
            self._obs.emit(
                "period_sample",
                end,
                request_id=request_id,
                core=core,
                start_cycle=start,
                instructions=instructions,
                cycles=cycles,
                l2_refs=l2_refs,
                l2_misses=l2_misses,
                injected_in_kernel=n_ik,
                injected_interrupt=n_int,
            )

    def finish_request(self, request_id: int, completion_cycle: float) -> RequestTrace:
        open_req = self._open.pop(request_id)
        values = open_req.periods
        if values and type(values[0]) is float:
            # A float among the values makes np.array's result float64, so
            # the cheaper fromiter builds the same block; other rows keep
            # np.array's dtype discovery (all-int rows stay int64).
            block = np.fromiter(values, float, len(values))
        else:
            block = np.array(values)
        return RequestTrace(
            spec=open_req.spec,
            arrival_cycle=open_req.arrival_cycle,
            completion_cycle=completion_cycle,
            periods=block.reshape(-1, len(PERIOD_FIELDS)),
            syscall_events=open_req.syscalls,
            compensation=self._compensation,
            frequency_ghz=self._frequency_ghz,
        )

    @property
    def open_requests(self) -> int:
        return len(self._open)
