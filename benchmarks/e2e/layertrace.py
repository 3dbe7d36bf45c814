"""Outside-in layer tracing for the end-to-end benchmark.

The benchmark times the program's layers without changing its code.  For
a traced round it replaces public functions and methods of
``repro.workloads``, ``repro.kernel``, ``repro.traffic``, ``repro.online``,
``repro.core`` and ``repro.serve`` with timing wrappers, and removes them
again afterwards.  Methods are wrapped on the class that defines them,
because some instances (arrival processes) are frozen dataclasses.

Three kinds of record:

* **spans** ``{id, name, start, end, parent, round, self}`` at coarse
  layer boundaries (a round, ``ServerSimulator.run``, one distance matrix,
  k-medoids, report building, pool start/stream/collect/merge);
* **timed calls** for hot per-event functions (``process_event``,
  ``sample_request``, ``choose``, ``shard_for``, frame encoding): no span
  each, only calls/seconds/self-seconds added up per ``(round, parent,
  name)``;
* **counts** of calls (and weighted totals) with no timing.

A frame's self time is its duration minus the time its direct children
cover, so within a round the self times of every frame plus the round's
own self time add up to the round's wall time.  A frame name's first
component is its layer (``kernel.run`` belongs to ``kernel``); ``bench``
is the benchmark's own code.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

LAYERS = ("workloads", "kernel", "traffic", "online", "core", "serve")

#: ``process_event`` self time is split by the event kind it consumed.
_ONLINE_FRAMES = {
    "period_sample": "online.period",
    "request_admitted": "online.admit",
    "request_completed": "online.complete",
}


class NullTracer:
    """Tracing off: call-site spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str):
        yield

    def start_round(self, index) -> None:
        pass


class Tracer:
    """In-memory span and counter recorder (see the module docstring)."""

    def __init__(self):
        self.spans: List[dict] = []
        #: (round, parent name, name) -> [calls, seconds, self seconds]
        self.calls: Dict[tuple, list] = {}
        #: (round, name) -> total
        self.counts: Dict[tuple, float] = defaultdict(float)
        self.round = None
        # Open frames (spans and timed calls): [name, child seconds].
        self._stack: List[list] = []
        self._span_stack: List[int] = []
        self._patches: List[tuple] = []
        self._targets: Optional[List[tuple]] = None

    # -- recording --------------------------------------------------------

    def start_round(self, index) -> None:
        self.round = index

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._span_stack[-1] if self._span_stack else None,
            "round": self.round,
            "self": 0.0,
        }
        self.spans.append(record)
        frame = [name, 0.0]
        self._stack.append(frame)
        self._span_stack.append(span_id)
        record["start"] = start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._span_stack.pop()
            self._stack.pop()
            elapsed = end - start
            record["end"] = end
            record["self"] = elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def timed_call(self, name: str, fn, args, kwargs):
        stack = self._stack
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += elapsed
            key = (self.round, parent[0] if parent else None, name)
            record = self.calls.get(key)
            if record is None:
                record = self.calls[key] = [0, 0.0, 0.0]
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - frame[1]

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.round, name)] += amount

    # -- wrapper installation --------------------------------------------

    def _target(self, owner, attr: str, make_wrapper: Callable) -> None:
        """Plan to replace ``owner.attr`` (on the class defining it)."""
        if inspect.isclass(owner):
            owner = next(k for k in owner.__mro__ if attr in k.__dict__)
        if not inspect.isfunction(owner.__dict__[attr]):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        if not any(o is owner and a == attr for o, a, _ in self._targets):
            self._targets.append((owner, attr, make_wrapper))

    def _timed(self, owner, attr: str, name: str, weigh=None) -> None:
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if weigh is not None:
                    tracer.count(name + "_items", weigh(args))
                return tracer.timed_call(name, original, args, kwargs)

            return wrapper

        self._target(owner, attr, make)

    def _counted(self, owner, attr: str, name: str) -> None:
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                tracer.count(name)
                return original(*args, **kwargs)

            return wrapper

        self._target(owner, attr, make)

    def _span_method(self, owner, attr: str, name: str) -> None:
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)

            return wrapper

        self._target(owner, attr, make)

    def _plan(self) -> None:
        from repro.core.kernels import PenaltyDtw
        from repro.faults.schedule import ScheduledFaultWorkload
        from repro.kernel.simulator import ServerSimulator
        from repro.obs.trace import ObsEvent
        from repro.online.attribution import CauseAttributor
        from repro.online.pipeline import OnlinePipeline
        from repro.serve import instance as serve_instance
        from repro.serve import protocol as serve_protocol
        from repro.serve.router import HashRing
        from repro.traffic import LatencyStore
        from repro.traffic.arrivals import ArrivalProcess
        from repro.traffic.dispatch import DispatchPolicy
        from repro.workloads.registry import SERVER_APPS, make_workload

        tracer = self
        self._targets = []

        # workloads: per-request synthesis (one call per admission), and
        # block-ahead synthesis, whose third argument is its spec count.
        for app in SERVER_APPS:
            generator = type(make_workload(app))
            self._timed(generator, "sample_request", "workloads.generate")
            if hasattr(generator, "prepare_block"):
                self._timed(
                    generator, "prepare_block", "workloads.block",
                    weigh=lambda args: args[3],
                )
        self._timed(ScheduledFaultWorkload, "sample_request", "workloads.faults")

        # kernel: the discrete-event run (its self time is the simulator).
        self._span_method(ServerSimulator, "run", "kernel.run")

        # traffic: dispatch decisions, latency accounting, arrival draws.
        for policy in _subclasses(DispatchPolicy):
            if "choose" in policy.__dict__:
                self._timed(policy, "choose", "traffic.dispatch")
        for method in ("on_arrival", "on_start", "on_complete", "on_shed"):
            self._timed(LatencyStore, method, "traffic.latency_store")
        for process in _subclasses(ArrivalProcess):
            if "schedule" in process.__dict__:
                self._timed(process, "schedule", "traffic.arrivals")

        # online: process_event self time by event kind, attribution.
        def make_process_event(original):
            def process_event(pipeline, event):
                name = _ONLINE_FRAMES.get(event.kind, "online.other")
                return tracer.timed_call(name, original, (pipeline, event), {})

            return process_event

        self._target(OnlinePipeline, "process_event", make_process_event)
        self._span_method(OnlinePipeline, "process_events", "online.replay")
        for method in ("observe_window", "classify"):
            self._timed(CauseAttributor, method, "online.attribute")

        # core: batched DTW rows (distance_matrix/k_medoids are call-site
        # spans in the benchmark's own round code).
        self._counted(PenaltyDtw, "one_to_many", "core.one_to_many")

        # serve: routing, frame encode/decode on the instance side.
        self._timed(HashRing, "shard_for", "serve.route")
        self._timed(ObsEvent, "to_dict", "serve.encode")
        self._timed(serve_instance, "events_frame", "serve.encode")
        self._timed(serve_protocol, "encode_frame", "serve.encode")
        self._timed(serve_protocol, "decode_payload", "serve.decode")

    @contextmanager
    def installed(self):
        """Wrap the layers for the duration of the block."""
        if self._targets is None:
            self._plan()
        try:
            for owner, attr, make_wrapper in self._targets:
                original = owner.__dict__[attr]
                setattr(owner, attr, make_wrapper(original))
                self._patches.append((owner, attr, original))
            yield
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- derived numbers --------------------------------------------------

    def frame_self_seconds(self, round_index) -> Dict[str, float]:
        """Self seconds per frame name inside one round."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span["round"] == round_index:
                totals[span["name"]] += span["self"]
        for (round_key, _, name), (_, _, self_seconds) in self.calls.items():
            if round_key == round_index:
                totals[name] += self_seconds
        return dict(totals)

    def call_counts(self, round_index) -> Dict[str, float]:
        """Timed-call counts plus plain counts per name inside one round."""
        totals: Dict[str, float] = defaultdict(float)
        for (round_key, _, name), (calls, _, _) in self.calls.items():
            if round_key == round_index:
                totals[name] += calls
        for (round_key, name), amount in self.counts.items():
            if round_key == round_index:
                totals[name] += amount
        return dict(totals)

    def write(self, path: str, meta: dict) -> None:
        """Write spans and per-parent counters as one JSON document."""
        document = {
            "format": "repro-e2e-trace",
            "version": 1,
            **meta,
            "spans": self.spans,
            "calls": [
                {
                    "round": round_key,
                    "parent": parent,
                    "name": name,
                    "calls": calls,
                    "seconds": seconds,
                    "self_seconds": self_seconds,
                }
                for (round_key, parent, name), (calls, seconds, self_seconds)
                in self.calls.items()
            ],
            "counts": [
                {"round": round_key, "name": name, "total": amount}
                for (round_key, name), amount in self.counts.items()
            ],
        }
        with open(path, "w") as fh:
            json.dump(document, fh)
            fh.write("\n")


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found
