"""The shard worker: one :class:`OnlinePipeline` per connected instance.

A worker owns one shard of the consistent-hash ring.  Each application
instance opens one connection and streams the subset of its obs events
whose request ids route here (plus the request-id-less broadcast events
every shard needs, e.g. ``run_start``).  Per instance the worker runs a
dedicated :class:`~repro.online.pipeline.OnlinePipeline` — TCP/unix
stream ordering preserves the instance's emission order, so every
pipeline's decision stream is a pure function of the instance spec, no
matter how connections from different instances interleave.

Durability: every ``checkpoint_every`` processed events the worker
writes the instance pipeline's full state as a ``repro-online-checkpoint``
document (atomic temp + rename, so a SIGKILL mid-write can never leave
a truncated file) and tells the instance the covered sequence number; the
instance then trims its retained replay tail.  A restarted worker loads
the checkpoints, rewrites its decision logs from the restored records,
and relies on the pipelines' seq cursors to deduplicate the replayed
tail — decisions come out byte-identical to an uninterrupted run.

Backpressure: the worker grants ``credit`` frames-in-flight at handshake
and returns one credit per processed events frame, so a slow worker
stalls its senders instead of buffering unboundedly.

Run a worker in-process via :class:`ShardWorker`, or as a subprocess via
``python -m repro.serve.worker`` (what the supervisor's failover path
SIGKILLs and restarts).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.identification import OnlineIdentifier
from repro.obs.trace import ObsEvent
from repro.online.checkpoint import (
    CheckpointError,
    checkpoint_to_json,
    load_checkpoint,
)
from repro.online.pipeline import (
    OnlineConfig,
    OnlinePipeline,
    check_identifier_window,
)
from repro.serve.aggregator import WORKER_REPORT_FORMAT, WORKER_REPORT_VERSION
from repro.serve.protocol import (
    PROTOCOL_FORMAT,
    PROTOCOL_VERSION,
    FrameStream,
    ProtocolError,
    check_version,
    decode_events,
)

BANK_FORMAT = "repro-serve-bank"
BANK_VERSION = 2


def save_bank(identifier: OnlineIdentifier, path: str) -> None:
    """Persist a trained signature bank for the worker pool (canonical)."""
    payload = {
        "format": BANK_FORMAT,
        "version": BANK_VERSION,
        "identifier": identifier.to_state(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def load_bank(path: str) -> OnlineIdentifier:
    """Read a bank file; a damaged one raises :class:`ValueError` naming
    the path and the bad field."""
    with open(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: malformed bank file: {error}") from None
    if not isinstance(payload, dict) or payload.get("format") != BANK_FORMAT:
        raise ValueError(f"{path}: not a repro serve bank file")
    if payload.get("version") != BANK_VERSION:
        raise ValueError(
            f"{path}: unsupported bank version {payload.get('version')!r}"
        )
    state = payload.get("identifier")
    if not isinstance(state, dict):
        raise ValueError(f"{path}: bank file has no identifier object")
    try:
        return OnlineIdentifier.from_state(state)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None


@dataclass
class WorkerConfig:
    """Everything one shard worker needs (CLI flags mirror the fields)."""

    shard: str
    socket_path: str
    checkpoint_dir: str
    decisions_dir: Optional[str] = None
    bank_path: Optional[str] = None
    #: Events processed per instance between checkpoints.
    checkpoint_every: int = 256
    #: Frames-in-flight granted to each instance connection.
    credit: int = 8
    window_instructions: float = 100_000.0
    anomaly_quantile: float = 0.9
    #: Classify likely fault causes of flagged requests (adds the
    #: attribution fields to decision records; off keeps legacy bytes).
    attribute: bool = False

    def __post_init__(self):
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.credit < 1:
            raise ValueError("credit must be >= 1")


class _InstanceState:
    """One connected instance's pipeline + durability bookkeeping."""

    __slots__ = ("pipeline", "events_since_checkpoint", "records_logged")

    def __init__(self, pipeline: OnlinePipeline):
        self.pipeline = pipeline
        self.events_since_checkpoint = 0
        self.records_logged = 0


class ShardWorker:
    """Asyncio server for one shard of the analysis pool."""

    def __init__(self, config: WorkerConfig):
        self.config = config
        # One pipeline config and bank for every instance, checked before
        # the worker listens: a setting no pipeline accepts fails here,
        # not on each instance connection.
        self.online_config = OnlineConfig(
            window_instructions=config.window_instructions,
            anomaly_quantile=config.anomaly_quantile,
            attribute=config.attribute,
        )
        self.identifier = (
            load_bank(config.bank_path) if config.bank_path else None
        )
        check_identifier_window(self.online_config, self.identifier)
        self.instances: Dict[int, _InstanceState] = {}
        self.frames_received = 0
        self.events_received = 0
        self.checkpoints_written = 0
        self.instances_restored = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped = asyncio.Event()
        os.makedirs(config.checkpoint_dir, exist_ok=True)
        if config.decisions_dir:
            os.makedirs(config.decisions_dir, exist_ok=True)
        self._restore_from_checkpoints()

    # -- durability -----------------------------------------------------

    def _checkpoint_path(self, instance: int) -> str:
        return os.path.join(
            self.config.checkpoint_dir, f"instance-{instance}.json"
        )

    def _decisions_path(self, instance: int) -> str:
        assert self.config.decisions_dir is not None
        return os.path.join(
            self.config.decisions_dir, f"instance-{instance}.jsonl"
        )

    def _restore_from_checkpoints(self) -> None:
        """Load every instance checkpoint left by a previous incarnation."""
        for name in sorted(os.listdir(self.config.checkpoint_dir)):
            if not (name.startswith("instance-") and name.endswith(".json")):
                continue
            instance = int(name[len("instance-"):-len(".json")])
            try:
                pipeline = load_checkpoint(self._checkpoint_path(instance))
            except CheckpointError as error:
                # Atomic writes make this unreachable in normal operation;
                # if it happens anyway, failing loudly beats silently
                # recomputing different decisions.
                raise CheckpointError(
                    f"shard {self.config.shard}, instance {instance}: {error}"
                ) from None
            state = _InstanceState(pipeline)
            self.instances[instance] = state
            self.instances_restored += 1
            if self.config.decisions_dir:
                # Rewrite the decision log from the restored records, then
                # keep appending: the final file is byte-identical to an
                # uninterrupted worker's.
                with open(self._decisions_path(instance), "w") as fh:
                    for record in pipeline.records:
                        fh.write(_record_line(record))
                state.records_logged = len(pipeline.records)

    def _write_checkpoint(self, instance: int, state: _InstanceState) -> int:
        """Atomically persist one instance pipeline; returns covered seq."""
        path = self._checkpoint_path(instance)
        temp = f"{path}.tmp"
        with open(temp, "w") as fh:
            fh.write(checkpoint_to_json(state.pipeline))
            fh.write("\n")
        os.replace(temp, path)
        self.checkpoints_written += 1
        state.events_since_checkpoint = 0
        return state.pipeline.last_seq

    def _append_decisions(self, instance: int, state: _InstanceState) -> None:
        records = state.pipeline.records
        if not self.config.decisions_dir or state.records_logged >= len(records):
            return
        with open(self._decisions_path(instance), "a") as fh:
            for record in records[state.records_logged:]:
                fh.write(_record_line(record))
        state.records_logged = len(records)

    # -- pipelines ------------------------------------------------------

    def _state_for(self, instance: int) -> _InstanceState:
        state = self.instances.get(instance)
        if state is None:
            state = _InstanceState(
                OnlinePipeline(
                    config=self.online_config, identifier=self.identifier
                )
            )
            self.instances[instance] = state
        return state

    # -- connections ----------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        stream = FrameStream(reader, writer)
        try:
            hello = await server_handshake_for(self, stream)
            if hello["role"] == "instance":
                await self._serve_instance(stream, int(hello["instance"]))
            else:
                await self._serve_control(stream)
        except (ProtocolError, ConnectionError, asyncio.IncompleteReadError):
            # A dead or misbehaving peer must not take the worker down;
            # instances reconnect and replay their retained tail.
            pass
        finally:
            await stream.close()

    async def _serve_instance(self, stream: FrameStream, instance: int) -> None:
        state = self._state_for(instance)
        while True:
            payload = await stream.read()
            if payload is None:
                return
            if payload["type"] == "events":
                self.frames_received += 1
                events = decode_events(
                    payload, where=f"frame {stream.frames_read - 1}"
                )
                process = state.pipeline.process_event
                for event in events:
                    process(event)
                self.events_received += len(events)
                state.events_since_checkpoint += len(events)
                self._append_decisions(instance, state)
                if state.events_since_checkpoint >= self.config.checkpoint_every:
                    covered = self._write_checkpoint(instance, state)
                    await stream.write(
                        {"type": "checkpoint", "through_seq": covered}
                    )
                await stream.write(
                    {
                        "type": "credit",
                        "n": 1,
                        "ack_seq": state.pipeline.last_seq,
                    }
                )
            elif payload["type"] == "end":
                self._append_decisions(instance, state)
                covered = self._write_checkpoint(instance, state)
                await stream.write(
                    {"type": "checkpoint", "through_seq": covered}
                )
                await stream.write(
                    {
                        "type": "end_ack",
                        "events_seen": state.pipeline.events_seen,
                        "records": len(state.pipeline.records),
                        "last_seq": state.pipeline.last_seq,
                    }
                )
                return
            else:
                raise ProtocolError(
                    f"unexpected {payload['type']!r} on an instance stream"
                )

    async def _serve_control(self, stream: FrameStream) -> None:
        while True:
            payload = await stream.read()
            if payload is None:
                return
            if payload["type"] == "report":
                await stream.write(
                    {
                        "type": "report_ack",
                        "report": self.build_report(),
                        "stats": self.stats(),
                    }
                )
            elif payload["type"] == "shutdown":
                await stream.write({"type": "shutdown_ack"})
                self._stopped.set()
                return
            else:
                raise ProtocolError(
                    f"unexpected {payload['type']!r} on a control stream"
                )

    # -- reporting ------------------------------------------------------

    def build_report(self) -> dict:
        """Deterministic worker report (decisions only, no wall-clock).

        Service counters (frames, checkpoints, restarts) deliberately
        live in :meth:`stats`: a failed-over worker made the same
        *decisions* as an uninterrupted one but wrote more checkpoints,
        and the report is the byte-identity comparison surface.
        """
        instances = {}
        for instance in sorted(self.instances):
            pipeline = self.instances[instance].pipeline
            instances[str(instance)] = {
                "workload": pipeline.workload_name,
                "seed": pipeline.seed,
                "events_seen": pipeline.events_seen,
                "periods": pipeline.periods_seen,
                "windows": pipeline.windows_seen,
                "last_seq": pipeline.last_seq,
                "records": list(pipeline.records),
                "class_errors": {
                    label: {
                        "n": errors.n,
                        "abs_sum": errors.abs_sum,
                        "sq_sum": errors.sq_sum,
                        "weight": errors.weight,
                    }
                    for label, errors in sorted(
                        pipeline.class_errors.items()
                    )
                },
            }
        return {
            "format": WORKER_REPORT_FORMAT,
            "version": WORKER_REPORT_VERSION,
            "shard": self.config.shard,
            "instances": instances,
        }

    def stats(self) -> dict:
        return {
            "shard": self.config.shard,
            "frames_received": self.frames_received,
            "events_received": self.events_received,
            "checkpoints_written": self.checkpoints_written,
            "instances_restored": self.instances_restored,
            "instances": len(self.instances),
        }

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        if os.path.exists(self.config.socket_path):
            os.unlink(self.config.socket_path)
        self._server = await asyncio.start_unix_server(
            self._handle, path=self.config.socket_path
        )

    async def serve_until_stopped(self) -> None:
        await self.start()
        try:
            await self._stopped.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            if os.path.exists(self.config.socket_path):
                os.unlink(self.config.socket_path)

    def request_stop(self) -> None:
        self._stopped.set()


async def server_handshake_for(worker: ShardWorker, stream: FrameStream) -> dict:
    """Handshake with per-role ack fields (credit grant, resume cursor)."""
    payload = await stream.expect("hello")
    try:
        check_version(payload)
        role = payload.get("role")
        if role not in ("instance", "control"):
            raise ProtocolError(f"unknown connection role {role!r}")
        if role == "instance" and not isinstance(payload.get("instance"), int):
            raise ProtocolError("instance hello must carry an integer id")
    except ProtocolError as error:
        await stream.write({"type": "error", "message": str(error)})
        raise
    ack = {
        "type": "hello_ack",
        "format": PROTOCOL_FORMAT,
        "version": PROTOCOL_VERSION,
        "shard": worker.config.shard,
    }
    if payload["role"] == "instance":
        instance = int(payload["instance"])
        state = worker.instances.get(instance)
        ack["credit"] = worker.config.credit
        ack["resume_seq"] = state.pipeline.last_seq if state else -1
    await stream.write(ack)
    return payload


def _record_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


# -- subprocess entry point ---------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve-worker",
        description="One shard worker of the repro.serve analysis pool "
        "(normally launched by the supervisor, not by hand)",
    )
    parser.add_argument("--shard", required=True)
    parser.add_argument("--socket", required=True, metavar="PATH")
    parser.add_argument("--checkpoint-dir", required=True, metavar="DIR")
    parser.add_argument("--decisions-dir", default=None, metavar="DIR")
    parser.add_argument("--bank", default=None, metavar="PATH")
    parser.add_argument("--checkpoint-every", type=int, default=256)
    parser.add_argument("--credit", type=int, default=8)
    parser.add_argument("--window", type=float, default=100_000.0)
    parser.add_argument("--quantile", type=float, default=0.9)
    parser.add_argument("--attribute", action="store_true")
    return parser


async def _run(config: WorkerConfig) -> None:
    worker = ShardWorker(config)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, worker.request_stop)
    await worker.serve_until_stopped()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = WorkerConfig(
        shard=args.shard,
        socket_path=args.socket,
        checkpoint_dir=args.checkpoint_dir,
        decisions_dir=args.decisions_dir,
        bank_path=args.bank,
        checkpoint_every=args.checkpoint_every,
        credit=args.credit,
        window_instructions=args.window,
        anomaly_quantile=args.quantile,
        attribute=args.attribute,
    )
    asyncio.run(_run(config))
    return 0


if __name__ == "__main__":
    sys.exit(main())
