"""Worker-pool supervision and the end-to-end load-test harness.

:class:`WorkerPool` runs each shard worker as a subprocess
(``python -m repro.serve.worker``) listening on a unix socket under the
run directory.  The supervisor task watches the processes and restarts
any that die unexpectedly — the failover path: the restarted worker
reloads its per-instance checkpoints, instances reconnect and replay
their retained tails, and the seq cursors make the overlap idempotent.

:func:`run_load_test` is the whole service in one call: train an optional
shared signature bank, pre-generate the instances' deterministic event
streams, start the pool, stream every instance concurrently (optionally
paced, optionally SIGKILLing a chosen worker after its first checkpoint
to exercise failover), then collect worker reports over control
connections, merge them into a :class:`~repro.serve.aggregator.
FleetReport`, and return wall-clock service stats (sustained events/sec,
ack-latency percentiles, sheds, reconnects, restarts) alongside.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.jsondoc import canonical
from repro.obs.metrics import MetricsRegistry
from repro.online.pipeline import OnlineConfig
from repro.serve.aggregator import FleetReport, merge_worker_reports
from repro.serve.instance import (
    InstanceClient,
    InstanceSpec,
    generate_instance_events,
)
from repro.serve.protocol import FrameStream, client_handshake
from repro.serve.router import HashRing
from repro.serve.worker import save_bank


def shard_name(index: int) -> str:
    return f"w{index}"


@dataclass
class PoolConfig:
    """Shape of one worker pool rooted at ``run_dir``."""

    run_dir: str
    workers: int = 2
    bank_path: Optional[str] = None
    checkpoint_every: int = 256
    credit: int = 8
    window_instructions: float = 100_000.0
    anomaly_quantile: float = 0.9
    decisions: bool = False
    attribute: bool = False

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # A setting no worker pipeline accepts fails here, before any
        # worker process starts.
        OnlineConfig(
            window_instructions=self.window_instructions,
            anomaly_quantile=self.anomaly_quantile,
        )

    @property
    def shards(self) -> List[str]:
        return [shard_name(index) for index in range(self.workers)]

    def socket_path(self, shard: str) -> str:
        return os.path.join(self.run_dir, f"{shard}.sock")

    def checkpoint_dir(self, shard: str) -> str:
        return os.path.join(self.run_dir, "checkpoints", shard)

    def decisions_dir(self, shard: str) -> str:
        return os.path.join(self.run_dir, "decisions", shard)


class WorkerPool:
    """Subprocess shard workers + restart-on-death supervision."""

    def __init__(self, config: PoolConfig):
        self.config = config
        self.ring = HashRing(config.shards)
        self.processes: Dict[str, subprocess.Popen] = {}
        self.restarts: Dict[str, int] = {shard: 0 for shard in config.shards}
        self._supervisor: Optional[asyncio.Task] = None
        self._stopping = False

    @property
    def socket_paths(self) -> Dict[str, str]:
        return {
            shard: self.config.socket_path(shard)
            for shard in self.config.shards
        }

    def _spawn(self, shard: str) -> subprocess.Popen:
        config = self.config
        command = [
            sys.executable, "-m", "repro.serve.worker",
            "--shard", shard,
            "--socket", config.socket_path(shard),
            "--checkpoint-dir", config.checkpoint_dir(shard),
            "--checkpoint-every", str(config.checkpoint_every),
            "--credit", str(config.credit),
            "--window", str(config.window_instructions),
            "--quantile", str(config.anomaly_quantile),
        ]
        if config.bank_path:
            command += ["--bank", config.bank_path]
        if config.decisions:
            command += ["--decisions-dir", config.decisions_dir(shard)]
        if config.attribute:
            command += ["--attribute"]
        env = dict(os.environ)
        # The pool must work from a source checkout: make sure the child
        # resolves the same `repro` package this process imported.
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH")
        if src_root not in (existing or "").split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{src_root}{os.pathsep}{existing}" if existing else src_root
            )
        return subprocess.Popen(command, env=env)

    async def start(self) -> None:
        os.makedirs(self.config.run_dir, exist_ok=True)
        for shard in self.config.shards:
            self.processes[shard] = self._spawn(shard)
        await asyncio.gather(
            *(
                wait_for_socket(self.config.socket_path(shard))
                for shard in self.config.shards
            )
        )
        self._supervisor = asyncio.create_task(self._supervise())

    async def _supervise(self) -> None:
        """Restart any worker that dies while the pool is live."""
        while not self._stopping:
            for shard, process in self.processes.items():
                if process.poll() is not None and not self._stopping:
                    self.restarts[shard] += 1
                    self.processes[shard] = self._spawn(shard)
                    await wait_for_socket(self.config.socket_path(shard))
            await asyncio.sleep(0.02)

    def kill(self, shard: str) -> None:
        """SIGKILL one worker (the supervisor will restart it)."""
        self.processes[shard].send_signal(signal.SIGKILL)

    async def collect_reports(self) -> List[dict]:
        """Fetch every worker's (report, stats) over control connections."""
        return await asyncio.gather(
            *(
                control_request(self.config.socket_path(shard), "report")
                for shard in self.config.shards
            )
        )

    async def stop(self) -> None:
        """Graceful shutdown: control frame first, SIGTERM as fallback."""
        self._stopping = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
        for shard, process in self.processes.items():
            if process.poll() is not None:
                continue
            try:
                await control_request(
                    self.config.socket_path(shard), "shutdown", timeout_s=2.0
                )
            except (OSError, ConnectionError, ValueError, asyncio.TimeoutError):
                process.terminate()
        deadline = time.monotonic() + 5.0
        for process in self.processes.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                await asyncio.to_thread(process.wait, remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                await asyncio.to_thread(process.wait)


async def wait_for_socket(path: str, timeout_s: float = 20.0) -> None:
    """Wait until a worker's unix socket accepts connections."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            reader, writer = await asyncio.open_unix_connection(path)
        except (OSError, ConnectionError):
            if time.monotonic() >= deadline:
                raise TimeoutError(f"worker socket {path} never came up")
            await asyncio.sleep(0.02)
            continue
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass
        return


async def control_request(
    socket_path: str, request: str, timeout_s: float = 20.0
) -> dict:
    """One control round trip (``report`` or ``shutdown``)."""

    async def _round_trip() -> dict:
        reader, writer = await asyncio.open_unix_connection(socket_path)
        stream = FrameStream(reader, writer)
        try:
            await client_handshake(stream, "control")
            await stream.write({"type": request})
            return await stream.expect(f"{request}_ack")
        finally:
            await stream.close()

    return await asyncio.wait_for(_round_trip(), timeout=timeout_s)


# -- the load-test harness ----------------------------------------------

@dataclass
class KillSpec:
    """Kill one worker mid-run to exercise failover."""

    shard: str
    #: SIGKILL once the shard has written at least this many instance
    #: checkpoint files (1 = as soon as any durable state exists, so the
    #: restart genuinely resumes rather than recomputing from scratch).
    after_checkpoints: int = 1


@dataclass
class LoadTestOptions:
    workload: str = "tpcc"
    instances: int = 3
    workers: int = 2
    requests: int = 20
    concurrency: int = 8
    seed: int = 0
    faults: Optional[str] = None
    arrivals: Optional[str] = None
    #: Calibration requests for a shared signature bank (0 disables the
    #: identification stage fleet-wide).
    train: int = 0
    batch: int = 32
    queue_limit: int = 64
    backpressure: str = "block"
    rate_events_per_s: Optional[float] = None
    checkpoint_every: int = 256
    credit: int = 8
    window_instructions: float = 100_000.0
    anomaly_quantile: float = 0.9
    decisions: bool = False
    attribute: bool = False
    kill: Optional[KillSpec] = None

    def __post_init__(self):
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def instance_specs(self) -> List[InstanceSpec]:
        """Deterministic per-instance identities: seeds are spread so no
        two instances replay the same traffic."""
        return [
            InstanceSpec(
                instance=index,
                workload=self.workload,
                requests=self.requests,
                concurrency=self.concurrency,
                seed=self.seed + 1000 * index,
                faults=self.faults,
                arrivals=self.arrivals,
            )
            for index in range(self.instances)
        ]


@dataclass
class LoadTestResult:
    fleet: FleetReport
    worker_reports: List[dict]
    stats: Dict = field(default_factory=dict)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)


async def run_load_test(
    options: LoadTestOptions, run_dir: str
) -> LoadTestResult:
    pool_config = PoolConfig(
        run_dir=run_dir,
        workers=options.workers,
        checkpoint_every=options.checkpoint_every,
        credit=options.credit,
        window_instructions=options.window_instructions,
        anomaly_quantile=options.anomaly_quantile,
        decisions=options.decisions,
        attribute=options.attribute,
    )
    os.makedirs(run_dir, exist_ok=True)
    if options.train > 0:
        from repro.online.pipeline import train_identifier
        from repro.workloads.registry import make_workload

        identifier = train_identifier(
            make_workload(options.workload),
            num_requests=options.train,
            seed=options.seed + 10_000,
            window_instructions=options.window_instructions,
        )
        pool_config.bank_path = os.path.join(run_dir, "bank.json")
        save_bank(identifier, pool_config.bank_path)

    # Deterministic part first: the instances' event streams exist before
    # a single byte hits a socket (the streaming phase is then a pure
    # delivery problem, which is what the throughput numbers measure).
    specs = options.instance_specs()
    event_streams = [
        await asyncio.to_thread(generate_instance_events, spec)
        for spec in specs
    ]
    total_events = sum(len(events) for events in event_streams)

    pool = WorkerPool(pool_config)
    registry = MetricsRegistry()
    # Clients validate their options before any worker process starts.
    clients = [
        InstanceClient(
            spec,
            events,
            pool.ring,
            pool.socket_paths,
            batch=options.batch,
            queue_limit=options.queue_limit,
            backpressure=options.backpressure,
            rate_events_per_s=options.rate_events_per_s,
            registry=registry,
        )
        for spec, events in zip(specs, event_streams)
    ]
    await pool.start()
    kill_task: Optional[asyncio.Task] = None
    try:
        if options.kill is not None:
            kill_task = asyncio.create_task(
                _kill_after_checkpoint(pool, options.kill)
            )
        streaming_started = time.monotonic()
        per_instance_stats = await asyncio.gather(
            *(client.run() for client in clients)
        )
        streaming_seconds = time.monotonic() - streaming_started
        if kill_task is not None:
            await kill_task
        responses = await pool.collect_reports()
    finally:
        if kill_task is not None and not kill_task.done():
            kill_task.cancel()
        await pool.stop()

    worker_reports = [response["report"] for response in responses]
    worker_stats = [response["stats"] for response in responses]
    fleet = merge_worker_reports(worker_reports)

    latencies = sorted(
        latency
        for stats in per_instance_stats
        for latency in stats.ack_latencies
    )
    stats = {
        "instances": options.instances,
        "workers": options.workers,
        "events_generated": total_events,
        "events_sent": sum(s.events_sent for s in per_instance_stats),
        "events_shed": sum(s.events_shed for s in per_instance_stats),
        "frames_sent": sum(s.frames_sent for s in per_instance_stats),
        "reconnects": sum(s.reconnects for s in per_instance_stats),
        "worker_restarts": dict(pool.restarts),
        "streaming_seconds": streaming_seconds,
        "events_per_second": (
            sum(s.events_sent for s in per_instance_stats) / streaming_seconds
            if streaming_seconds > 0
            else 0.0
        ),
        "ack_latency_ms": _latency_summary(latencies),
        "worker_stats": worker_stats,
    }
    return LoadTestResult(
        fleet=fleet,
        worker_reports=worker_reports,
        stats=stats,
        registry=registry,
    )


def _latency_summary(sorted_latencies: List[float]) -> Optional[dict]:
    if not sorted_latencies:
        return None

    def at(q: float) -> float:
        index = min(
            len(sorted_latencies) - 1, int(q * (len(sorted_latencies) - 1))
        )
        return sorted_latencies[index] * 1e3

    return {
        "p50": at(0.50),
        "p95": at(0.95),
        "p99": at(0.99),
        "max": sorted_latencies[-1] * 1e3,
        "samples": len(sorted_latencies),
    }


async def _kill_after_checkpoint(pool: WorkerPool, kill: KillSpec) -> None:
    """SIGKILL the target once it has durable checkpoints to resume from.

    Returns only once the supervisor has the shard serving again: a kill
    that lands after every instance has finished streaming would
    otherwise let the caller's report collection race the restart.
    """
    checkpoint_dir = pool.config.checkpoint_dir(kill.shard)
    while True:
        try:
            written = [
                name
                for name in os.listdir(checkpoint_dir)
                if name.startswith("instance-") and name.endswith(".json")
            ]
        except FileNotFoundError:
            written = []
        if len(written) >= kill.after_checkpoints:
            restarts = pool.restarts[kill.shard]
            pool.kill(kill.shard)
            while pool.restarts[kill.shard] == restarts:
                await asyncio.sleep(0.01)
            await wait_for_socket(pool.config.socket_path(kill.shard))
            return
        await asyncio.sleep(0.01)


def save_worker_reports(reports: List[dict], run_dir: str) -> List[str]:
    """Write per-worker report files (canonical JSON) under ``run_dir``."""
    paths = []
    for report in reports:
        path = os.path.join(run_dir, f"report-{report['shard']}.json")
        with open(path, "w") as fh:
            fh.write(canonical(report))
            fh.write("\n")
        paths.append(path)
    return paths
