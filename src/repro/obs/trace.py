"""Request-scoped tracing for the simulator (the observability substrate).

The paper's whole contribution is OS-level *online observation* of
per-request behavior, yet the simulator itself used to be a black box:
when a figure shifted there was no way to see which requests, phases, or
scheduler decisions moved.  The :class:`TraceCollector` fills that gap —
a bounded ring buffer of structured events emitted at every simulator
decision point (request admitted → task dispatched → phase transitions →
samples → stage hand-offs → completed, plus scheduler migrations and
contention-easing picks), exportable as JSONL for offline inspection and
byte-identical determinism comparisons.

Design constraints, in priority order:

* **No observer effect.**  Emitting events must not touch the simulation
  RNG or any simulated state; a run with tracing enabled produces exactly
  the traces of a run without.
* **No-op fast path.**  With tracing disabled the per-event cost in the
  simulator is one attribute check on :data:`NULL_COLLECTOR`.
* **Determinism.**  Events carry only simulated quantities (cycles, ids,
  names) — never wall-clock time — so two runs with the same seed export
  byte-identical JSONL.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.jsondoc import canonical, read_jsonl

FORMAT = "repro-obs-events"
FORMAT_VERSION = 1

#: Event kinds emitted by the simulator (documented in
#: docs/observability.md; tests assert against these names).
EVENT_KINDS = (
    "run_start",
    "request_admitted",
    "task_enqueued",
    "task_dispatched",
    "task_switched_out",
    "phase_transition",
    "syscall",
    "sample",
    "period_sample",
    "stage_handoff",
    "sched_avoidance",
    "sched_preempt",
    "request_completed",
    "traffic",
    "request_shed",
    "fault_window_start",
    "fault_window_end",
    "run_end",
)

_KIND_SET = frozenset(EVENT_KINDS)

#: The counters a ``period_sample`` must carry as numbers: the online
#: pipeline folds each one into its windows.
PERIOD_COUNTERS = ("instructions", "cycles", "l2_refs", "l2_misses")

#: The injected-sample counts a ``period_sample`` may carry (absent
#: means none): the pipeline subtracts their observer cost.
INJECTED_COUNTS = ("injected_in_kernel", "injected_interrupt")


def _check_count(seq: int, name: str, data: dict) -> None:
    """Refuse a ``period_sample`` count that is not a finite number >= 0.

    ``json.loads`` reads ``NaN`` and ``Infinity``: an infinite
    instruction count would window forever, and a NaN or negative count
    would fold in as a silent floor.
    """
    value = data.get(name)
    if type(value) is not float and type(value) is not int:
        found = repr(value) if name in data else "missing"
        raise ValueError(
            f"period_sample seq {seq}: {name!r} must be a number, got {found}"
        )
    if not 0 <= value <= sys.float_info.max:
        raise ValueError(
            f"period_sample seq {seq}: {name!r} must be a finite number "
            f">= 0, got {value!r}"
        )


@dataclass(slots=True)
class ObsEvent:
    """One structured trace record."""

    seq: int
    cycle: float
    kind: str
    request_id: Optional[int] = None
    task_id: Optional[int] = None
    core: Optional[int] = None
    data: Dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Canonical dict form (stable key set, for lossless JSONL)."""
        return {
            "seq": self.seq,
            "cycle": self.cycle,
            "kind": self.kind,
            "request_id": self.request_id,
            "task_id": self.task_id,
            "core": self.core,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ObsEvent":
        """Decode one event record: the one decoder behind JSONL replay
        and serve frames, so both refuse the same damage, by name."""
        if not isinstance(payload, dict):
            raise ValueError("event record is not an object")
        missing = {"seq", "cycle", "kind"} - set(payload)
        if missing:
            raise ValueError(f"event record missing keys {sorted(missing)}")
        data = payload.get("data", {})
        if not isinstance(data, dict):
            raise ValueError("event 'data' must be an object")
        seq = int(payload["seq"])
        kind = str(payload["kind"])
        if kind == "period_sample":
            for name in PERIOD_COUNTERS:
                _check_count(seq, name, data)
            for name in INJECTED_COUNTS:
                if name in data:
                    _check_count(seq, name, data)
        return cls(
            seq=seq,
            cycle=float(payload["cycle"]),
            kind=kind,
            request_id=payload.get("request_id"),
            task_id=payload.get("task_id"),
            core=payload.get("core"),
            data=data,
        )


@dataclass
class RequestSpan:
    """Per-request summary derived from the event stream.

    Gives tests a first-class way to assert on simulator-internal behavior
    (admission ordering, dispatch counts, phase walks) instead of only
    end-artifact numbers.
    """

    request_id: int
    admitted_cycle: Optional[float] = None
    completed_cycle: Optional[float] = None
    dispatches: int = 0
    phase_transitions: int = 0
    samples: int = 0
    syscalls: int = 0
    handoffs: int = 0
    cores: List[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.admitted_cycle is not None and self.completed_cycle is not None

    @property
    def latency_cycles(self) -> Optional[float]:
        if not self.complete:
            return None
        return self.completed_cycle - self.admitted_cycle


class TraceCollector:
    """Bounded ring buffer of :class:`ObsEvent` records.

    ``capacity`` bounds memory; once full, the oldest events are dropped
    (and counted in :attr:`dropped`) — the standard trade-off of long-term
    low-overhead event monitoring.  ``capacity=None`` keeps everything;
    ``capacity=0`` retains nothing (dispatch-only): events flow to
    subscribers and are released immediately, so a pure streaming consumer
    never grows the garbage-collector's tracked population.

    ``kinds`` restricts collection to a subset of :data:`EVENT_KINDS`:
    emissions of any other kind return before an event record is even
    built.  Production-style online consumers (the streaming pipeline)
    attach with exactly the kinds they process, which keeps the per-event
    tax proportional to the analysis actually running instead of to the
    simulator's full instrumentation density.
    """

    #: Emission guard checked by instrumented hot paths.
    enabled = True

    def __init__(
        self,
        capacity: Optional[int] = 1_000_000,
        kinds: Optional[Iterable[str]] = None,
    ):
        if capacity is not None and capacity < 0:
            raise ValueError(
                "capacity must be >= 0 (0 = dispatch-only, None = unbounded)"
            )
        if kinds is not None:
            kinds = frozenset(kinds)
            unknown = kinds - _KIND_SET
            if unknown:
                raise ValueError(f"unknown event kinds {sorted(unknown)}")
        self.capacity = capacity
        self.kinds = kinds
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0
        self._subscribers: List = []

    # -- emission -------------------------------------------------------

    def wants(self, kind: str) -> bool:
        """Whether this collector keeps events of ``kind``.

        Instrumented hot paths precompute ``enabled and wants(kind)`` per
        callsite so a kind-filtered collector costs nothing — not even
        keyword-argument packing — on the kinds it ignores.
        """
        return self.kinds is None or kind in self.kinds

    def subscribe(self, callback) -> None:
        """Register a live consumer called with every emitted :class:`ObsEvent`.

        Subscribers see events in emission order, synchronously and before
        ring-buffer eviction can drop them — the hook the streaming online
        pipeline (:mod:`repro.online`) attaches to.  Callbacks must not
        mutate simulated state.
        """
        if not callable(callback):
            raise TypeError("subscriber must be callable")
        self._subscribers.append(callback)

    def unsubscribe(self, callback) -> None:
        self._subscribers.remove(callback)

    def emit(
        self,
        kind: str,
        cycle: float,
        request_id: Optional[int] = None,
        task_id: Optional[int] = None,
        core: Optional[int] = None,
        **data,
    ) -> None:
        kinds = self.kinds
        if kinds is not None and kind not in kinds:
            # kinds is validated at construction, so a filtered-out kind
            # still needs the unknown-kind check before being ignored.
            if kind not in _KIND_SET:
                raise ValueError(f"unknown event kind {kind!r}")
            return
        if kinds is None and kind not in _KIND_SET:
            raise ValueError(f"unknown event kind {kind!r}")
        events = self._events
        # Ring eviction counts as a drop; dispatch-only (capacity=0)
        # retention is by design, not data loss.
        if self.capacity and len(events) == self.capacity:
            self.dropped += 1
        event = ObsEvent(
            seq=self._seq,
            cycle=float(cycle),
            kind=kind,
            request_id=request_id,
            task_id=task_id,
            core=core,
            data=data,
        )
        events.append(event)
        self._seq += 1
        for callback in self._subscribers:
            callback(event)

    def clear(self) -> None:
        self._events.clear()
        self._seq = 0
        self.dropped = 0

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[ObsEvent]:
        return list(self._events)

    @property
    def emitted(self) -> int:
        """Total events emitted (including any dropped from the ring)."""
        return self._seq

    def events_of_kind(self, kind: str) -> List[ObsEvent]:
        return [e for e in self._events if e.kind == kind]

    def request_events(self, request_id: int) -> List[ObsEvent]:
        return [e for e in self._events if e.request_id == request_id]

    def request_spans(self) -> Dict[int, RequestSpan]:
        """Fold the event stream into per-request span summaries."""
        spans: Dict[int, RequestSpan] = {}
        for event in self._events:
            rid = event.request_id
            if rid is None:
                continue
            span = spans.get(rid)
            if span is None:
                span = spans[rid] = RequestSpan(request_id=rid)
            if event.kind == "request_admitted":
                span.admitted_cycle = event.cycle
            elif event.kind == "request_completed":
                span.completed_cycle = event.cycle
            elif event.kind == "task_dispatched":
                span.dispatches += 1
                if event.core is not None:
                    span.cores.append(event.core)
            elif event.kind == "phase_transition":
                span.phase_transitions += 1
            elif event.kind == "sample":
                span.samples += 1
            elif event.kind == "syscall":
                span.syscalls += 1
            elif event.kind == "stage_handoff":
                span.handoffs += 1
        return spans


class NullCollector(TraceCollector):
    """Disabled collector: every emission is a no-op.

    Instrumented code guards with ``if collector.enabled:`` so the
    disabled path never constructs events; the methods are still safe to
    call.
    """

    enabled = False

    def __init__(self):
        super().__init__(capacity=1)

    def emit(self, kind, cycle, request_id=None, task_id=None, core=None, **data):
        return None

    def wants(self, kind: str) -> bool:
        return False

    def subscribe(self, callback) -> None:
        raise ValueError(
            "cannot subscribe to the disabled collector; pass a real "
            "TraceCollector to SimConfig(collector=...) for live streaming"
        )


#: Shared no-op collector used by the simulator when tracing is off.
NULL_COLLECTOR = NullCollector()


# -- JSONL export / import ---------------------------------------------

def events_to_jsonl(
    events: Iterable[ObsEvent], dropped: int = 0
) -> str:
    """Serialize events as JSONL: a header line, then one event per line.

    The serialization is canonical (sorted keys, no whitespace), so two
    identical event streams produce byte-identical text — the property the
    determinism golden tests hash-compare.
    """
    events = list(events)
    lines = [
        canonical(
            {
                "format": FORMAT,
                "version": FORMAT_VERSION,
                "events": len(events),
                "dropped": dropped,
            }
        )
    ]
    lines.extend(canonical(e.to_dict()) for e in events)
    return "\n".join(lines) + "\n"


def save_events(collector: TraceCollector, path: str) -> None:
    """Write a collector's buffered events as a JSONL file."""
    with open(path, "w") as fh:
        fh.write(events_to_jsonl(collector.events, dropped=collector.dropped))


def parse_events_jsonl(text: str, where: str = "obs event stream"):
    """Parse JSONL text back into ``(events, dropped)``.

    ``dropped`` is the header's drop counter, returned so export →
    import → re-export is lossless.  Raises :class:`ValueError` naming
    ``where`` (and the line) on a missing/foreign header, unsupported
    version, malformed or damaged event, or an event-count mismatch.
    """
    events = []
    header = read_jsonl(
        text, FORMAT, FORMAT_VERSION, where,
        lambda payload: events.append(ObsEvent.from_dict(payload)),
        count="events",
    )
    dropped = header.get("dropped", 0)
    if type(dropped) is not int:
        raise ValueError(f"{where}: header 'dropped' is {dropped!r}, not an int")
    return events, dropped


def load_events(path: str):
    """Read an obs JSONL file back into ``(events, dropped)``."""
    with open(path) as fh:
        return parse_events_jsonl(fh.read(), where=path)
