"""Simulated application instances and their streaming clients.

An *instance* is one simulated application server: a workload (optionally
fault-injecting), an arrival process from the traffic layer, and a seed.
:func:`generate_instance_events` runs the simulator with a
kind-filtered collector and yields the canonical obs event stream the
online pipelines consume — deterministic, so the serve tier can be
load-tested and failure-tested against byte-identity expectations.

:class:`InstanceClient` streams one instance's events to the worker pool:

* **Routing** — each event goes to ``ring.shard_for(instance, request_id)``;
  events without a request id (``run_start``) broadcast to every shard,
  since any shard may own requests that need the run metadata.
* **Backpressure** — per-connection bounded queues feed one link task per
  shard; ``block`` mode awaits space (credit backpressure propagates to
  the producer), ``shed`` mode drops events when the queue is full and
  counts them (``serve_events_shed``).  The worker side grants
  frames-in-flight credit at handshake; a link never exceeds it.  A
  reader task per connection takes each credit back the moment the
  worker's ack lands.
* **Failover** — every sent event stays in a retained tail until the
  worker acknowledges a covering checkpoint.  On a connection loss the
  link reconnects (with backoff, up to a deadline) and replays the tail;
  the worker pipeline's seq cursor deduplicates, so a crash between
  checkpoints loses nothing and double-applies nothing.

Service metrics land in an optional :class:`~repro.obs.metrics.
MetricsRegistry` (``serve_events_sent``, ``serve_frames_sent``,
``serve_events_shed``, ``serve_reconnects``, ``serve_checkpoint_acks``,
``serve_ack_latency_ms``), which is how the load-test harness surfaces
backpressure and detection latency.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.obs.trace import ObsEvent, TraceCollector
from repro.online.pipeline import SUBSCRIBED_KINDS
from repro.serve.protocol import (
    FrameStream,
    ProtocolError,
    client_handshake,
    events_frame,
)
from repro.serve.router import HashRing
from repro.workloads.registry import make_faulted_workload, make_workload

#: Sentinel closing each link's queue.
_END = object()


@dataclass(frozen=True)
class InstanceSpec:
    """One simulated application instance (deterministic identity)."""

    instance: int
    workload: str
    requests: int = 20
    concurrency: int = 8
    seed: int = 0
    #: Fault-injection spec (``kind:rate``) or None for clean traffic.
    faults: Optional[str] = None
    #: Arrival-process spec (``poisson:400`` ...) or None for the
    #: closed loop.
    arrivals: Optional[str] = None

    def __post_init__(self):
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")


def generate_instance_events(spec: InstanceSpec) -> List[ObsEvent]:
    """Run the instance's simulator; return its canonical event stream."""
    traffic = None
    if spec.arrivals and spec.arrivals != "closed":
        from repro.traffic import TrafficConfig, parse_arrivals

        traffic = TrafficConfig(arrivals=parse_arrivals(spec.arrivals))
    workload = (
        make_faulted_workload(
            spec.workload, spec.faults, traffic and traffic.arrivals
        )
        if spec.faults
        else make_workload(spec.workload)
    )
    collector = TraceCollector(capacity=None, kinds=SUBSCRIBED_KINDS)
    config = SimConfig(
        sampling=SamplingPolicy.interrupt(workload.sampling_period_us),
        num_requests=spec.requests,
        concurrency=min(spec.concurrency, spec.requests),
        seed=spec.seed,
        traffic=traffic,
        collector=collector,
    )
    ServerSimulator(workload, config).run()
    return collector.events


@dataclass
class StreamStats:
    """What one instance's streaming run did (wall-clock side)."""

    events_sent: int = 0
    frames_sent: int = 0
    events_shed: int = 0
    reconnects: int = 0
    checkpoint_acks: int = 0
    #: Seconds from frame send (or scheduled emission under pacing) to
    #: the arrival of the worker's covering credit ack — the
    #: detection-latency signal.
    ack_latencies: List[float] = field(default_factory=list)

    def merge(self, other: "StreamStats") -> None:
        self.events_sent += other.events_sent
        self.frames_sent += other.frames_sent
        self.events_shed += other.events_shed
        self.reconnects += other.reconnects
        self.checkpoint_acks += other.checkpoint_acks
        self.ack_latencies.extend(other.ack_latencies)


class _WorkerLink:
    """One instance→shard connection: batching, credit, tail replay.

    Each connection has two tasks.  The sender (:meth:`run`) only
    writes: it takes a free credit before each events frame.  The
    reader (:meth:`_read_acks`) folds ``credit`` and ``checkpoint``
    frames the moment they land, so credit returns, the retained tail
    shrinks and the ack latency is timed when the worker's frame
    arrives, not when the sender next runs out of credit.
    """

    def __init__(
        self,
        instance: int,
        shard: str,
        socket_path: str,
        *,
        batch: int,
        queue_limit: int,
        backpressure: str,
        connect_deadline_s: float,
        stats: StreamStats,
    ):
        self.instance = instance
        self.shard = shard
        self.socket_path = socket_path
        self.batch = batch
        self.backpressure = backpressure
        self.connect_deadline_s = connect_deadline_s
        self.stats = stats
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        #: (event_dict, enqueue_time) sent but not yet checkpoint-acked.
        self.retained: deque = deque()
        #: Clock start of each frame awaiting its credit ack (FIFO).
        self.outstanding: deque = deque()
        self.credit = 1  # refreshed by hello_ack
        #: Frames written on this connection and not yet credited.
        self.in_flight = 0
        #: Set by the reader on each credit and when it stops.
        self.credit_freed = asyncio.Event()

    # -- producer side --------------------------------------------------

    async def offer(self, event_dict: dict, when: float) -> None:
        if self.backpressure == "shed":
            try:
                self.queue.put_nowait((event_dict, when))
            except asyncio.QueueFull:
                self.stats.events_shed += 1
        else:
            await self.queue.put((event_dict, when))

    async def finish(self) -> None:
        await self.queue.put((_END, 0.0))

    async def _next_batch(self) -> Tuple[List, bool]:
        """Up to ``batch`` queued events, and whether the queue ended."""
        item = await self.queue.get()
        if item[0] is _END:
            return [], True
        batch = [item]
        while len(batch) < self.batch:
            try:
                item = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item[0] is _END:
                return batch, True
            batch.append(item)
        return batch, False

    # -- connection side ------------------------------------------------

    async def _connect(self) -> FrameStream:
        """Connect with retry until the deadline (workers restart)."""
        deadline = time.monotonic() + self.connect_deadline_s
        delay = 0.02
        while True:
            try:
                reader, writer = await asyncio.open_unix_connection(
                    self.socket_path
                )
            except (OSError, ConnectionError):
                if time.monotonic() >= deadline:
                    raise
                await asyncio.sleep(delay)
                delay = min(delay * 2, 0.5)
                continue
            stream = FrameStream(reader, writer)
            try:
                ack = await client_handshake(
                    stream, "instance", instance=self.instance
                )
                self.credit = _int_field(ack, "credit", minimum=1)
            except BaseException:
                await stream.close()
                raise
            self.in_flight = 0
            return stream

    async def _read_acks(self, stream: FrameStream) -> dict:
        """Fold credits and checkpoints as they land; return the end_ack."""
        while True:
            payload = await stream.expect("credit", "checkpoint", "end_ack")
            frame_type = payload["type"]
            if frame_type == "credit":
                self.in_flight -= 1
                if self.outstanding:
                    self.stats.ack_latencies.append(
                        time.monotonic() - self.outstanding.popleft()
                    )
                self.credit_freed.set()
            elif frame_type == "checkpoint":
                self._trim_retained(_int_field(payload, "through_seq"))
            else:
                return payload

    def _trim_retained(self, through_seq: int) -> None:
        self.stats.checkpoint_acks += 1
        retained = self.retained
        while retained and retained[0][0]["seq"] <= through_seq:
            retained.popleft()

    async def _take_credit(self, reader: asyncio.Task) -> None:
        """Wait for a free credit; a failed reader's error re-raises."""
        while True:
            if reader.done():
                reader.result()  # the reader's exception, unchanged
                raise ProtocolError("end_ack arrived before the end frame")
            if self.in_flight < self.credit:
                self.in_flight += 1
                return
            self.credit_freed.clear()
            await self.credit_freed.wait()

    async def _send_frame(
        self, stream: FrameStream, reader: asyncio.Task, events: List
    ) -> None:
        """Write one events frame once the worker has credit for it."""
        await self._take_credit(reader)
        # Latency clock starts at the scheduled emission time under
        # pacing (queueing delay counts), else at the send.  It is queued
        # before the write: the credit may land while the write drains.
        oldest_pending = min(when for _, when in events)
        self.outstanding.append(min(time.monotonic(), oldest_pending))
        await stream.write(events_frame([record for record, _ in events]))
        self.stats.frames_sent += 1
        self.stats.events_sent += len(events)

    async def run(self) -> None:
        """Stream the queue to the worker; survive worker restarts.

        The only exit is a successful ``end_ack``: a worker that dies
        during the end handshake still holds unacked tail state, so the
        link reconnects and replays even after the queue is drained.
        """
        done = False
        while True:
            stream: Optional[FrameStream] = None
            reader: Optional[asyncio.Task] = None
            try:
                stream = await self._connect()
                reader = asyncio.create_task(self._read_acks(stream))
                reader.add_done_callback(lambda _: self.credit_freed.set())
                # Replay the retained tail: everything sent since the
                # last checkpoint ack.  The worker's seq cursor skips
                # whatever it already folded in.
                tail = list(self.retained)
                for start in range(0, len(tail), self.batch):
                    await self._send_frame(
                        stream, reader, tail[start:start + self.batch]
                    )
                while not done:
                    batch, done = await self._next_batch()
                    if batch:
                        # Retained before the send, so a connection lost
                        # at any point from here on replays it.
                        self.retained.extend(batch)
                        await self._send_frame(stream, reader, batch)
                await stream.write({"type": "end"})
                await reader  # the end_ack, or the reader's failure
                return
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                # Worker died (failover in progress): frames in flight
                # may or may not have arrived.  The retained tail still
                # holds them; seq deduplication makes the overlap
                # harmless.  Frames lost with the connection re-time on
                # replay.
                self.outstanding.clear()
                self.stats.reconnects += 1
            finally:
                if reader is not None:
                    reader.cancel()
                    await asyncio.gather(reader, return_exceptions=True)
                if stream is not None:
                    await stream.close()


def _int_field(payload: dict, name: str, minimum: Optional[int] = None) -> int:
    """A worker control frame's integer field (ProtocolError otherwise)."""
    value = payload.get(name)
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or (minimum is not None and value < minimum)
    ):
        wanted = "an int" if minimum is None else f"an int >= {minimum}"
        found = "missing" if name not in payload else f"got {value!r}"
        raise ProtocolError(
            f"{payload['type']} frame: {name!r} must be {wanted}, {found}"
        )
    return value


class InstanceClient:
    """Stream one instance's events to the sharded worker pool."""

    def __init__(
        self,
        spec: InstanceSpec,
        events: List[ObsEvent],
        ring: HashRing,
        socket_paths: Dict[str, str],
        *,
        batch: int = 32,
        queue_limit: int = 64,
        backpressure: str = "block",
        rate_events_per_s: Optional[float] = None,
        connect_deadline_s: float = 30.0,
        registry=None,
    ):
        if backpressure not in ("block", "shed"):
            raise ValueError(
                f"backpressure must be 'block' or 'shed', got {backpressure!r}"
            )
        if set(socket_paths) != set(ring.shards):
            raise ValueError("socket_paths must cover exactly the ring's shards")
        if rate_events_per_s is not None and not (
            math.isfinite(rate_events_per_s) and rate_events_per_s > 0
        ):
            raise ValueError(
                "rate_events_per_s must be a finite number > 0 (or None "
                f"for unpaced), got {rate_events_per_s!r}"
            )
        self.spec = spec
        self.events = events
        self.ring = ring
        self.rate = rate_events_per_s
        self.stats = StreamStats()
        self.registry = registry
        self.links = {
            shard: _WorkerLink(
                spec.instance,
                shard,
                socket_paths[shard],
                batch=batch,
                queue_limit=queue_limit,
                backpressure=backpressure,
                connect_deadline_s=connect_deadline_s,
                stats=StreamStats(),
            )
            for shard in ring.shards
        }

    async def run(self) -> StreamStats:
        tasks = [asyncio.create_task(self._produce())] + [
            asyncio.create_task(link.run()) for link in self.links.values()
        ]
        try:
            # A link that fails fatally must not leave the producer
            # blocked on its full queue: the first failure ends the run.
            await asyncio.gather(*tasks)
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        for link in self.links.values():
            self.stats.merge(link.stats)
        self._publish_metrics()
        return self.stats

    async def _produce(self) -> None:
        """Route every event to its shard's link, paced if asked."""
        ring = self.ring
        instance = self.spec.instance
        links = self.links
        start = time.monotonic()
        gap = 1.0 / self.rate if self.rate else 0.0
        for index, event in enumerate(self.events):
            if gap:
                scheduled = start + index * gap
                delay = scheduled - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
            else:
                scheduled = time.monotonic()
            record = event.to_dict()
            if event.request_id is None:
                for link in links.values():
                    await link.offer(record, scheduled)
            else:
                shard = ring.shard_for(instance, event.request_id)
                await links[shard].offer(record, scheduled)
        for link in links.values():
            await link.finish()

    def _publish_metrics(self) -> None:
        if self.registry is None:
            return
        stats = self.stats
        self.registry.counter("serve_events_sent").inc(stats.events_sent)
        self.registry.counter("serve_frames_sent").inc(stats.frames_sent)
        self.registry.counter("serve_events_shed").inc(stats.events_shed)
        self.registry.counter("serve_reconnects").inc(stats.reconnects)
        self.registry.counter("serve_checkpoint_acks").inc(
            stats.checkpoint_acks
        )
        latency = self.registry.histogram("serve_ack_latency_ms")
        for seconds in stats.ack_latencies:
            latency.observe(seconds * 1e3)
