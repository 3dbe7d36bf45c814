"""End-to-end serve-tier tests: in-process workers, subprocess pool, CLI.

Kept deliberately small (mbench_spin, single-digit request counts) so the
full service stack — simulator → instance client → sharded workers →
aggregation — stays inside the tier-1 time budget.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.aggregator import merge_worker_reports
from repro.serve.instance import (
    InstanceClient,
    InstanceSpec,
    StreamStats,
    generate_instance_events,
)
from repro.serve.protocol import (
    FrameStream,
    ProtocolError,
    hello,
    server_handshake,
)
from repro.serve.router import HashRing
from repro.serve.service import (
    LoadTestOptions,
    PoolConfig,
    WorkerPool,
    run_load_test,
    save_worker_reports,
    shard_name,
)
from repro.serve.worker import ShardWorker, WorkerConfig, load_bank, save_bank


def make_worker(tmp_path, shard="w0", **overrides) -> ShardWorker:
    overrides.setdefault("checkpoint_every", 8)
    return ShardWorker(
        WorkerConfig(
            shard=shard,
            socket_path=str(tmp_path / f"{shard}.sock"),
            checkpoint_dir=str(tmp_path / "ckpt" / shard),
            **overrides,
        )
    )


async def stream_instance_to(worker: ShardWorker, spec, events, **kwargs):
    """Run one in-process worker and stream one instance's events at it."""
    server = asyncio.create_task(worker.serve_until_stopped())
    try:
        while not os.path.exists(worker.config.socket_path):
            await asyncio.sleep(0.005)
        ring = HashRing([worker.config.shard])
        client = InstanceClient(
            spec,
            events,
            ring,
            {worker.config.shard: worker.config.socket_path},
            **kwargs,
        )
        return await client.run()
    finally:
        worker.request_stop()
        await server


async def stream_to_fake_worker(tmp_path, serve, spec, events, **kwargs):
    """Stream one instance at a scripted unix-socket worker.

    ``serve(stream, index)`` plays the worker's side of the link's
    ``index``-th connection.  The client run is bounded, so a link that
    hangs fails the test instead of blocking the suite.
    """
    path = str(tmp_path / "fake.sock")
    streams = []

    async def handle(reader, writer):
        stream = FrameStream(reader, writer)
        streams.append(stream)
        try:
            await serve(stream, len(streams) - 1)
        except (ConnectionError, ProtocolError):
            pass
        finally:
            await stream.close()

    server = await asyncio.start_unix_server(handle, path=path)
    try:
        client = InstanceClient(
            spec, events, HashRing(["w0"]), {"w0": path}, **kwargs
        )
        return await asyncio.wait_for(client.run(), timeout=10)
    finally:
        for stream in streams:
            stream.writer.close()
        server.close()
        await server.wait_closed()


async def serve_like_a_worker(stream, received, bad_checkpoint=None):
    """Credit every events frame; checkpoint and end_ack on ``end``.

    ``bad_checkpoint``, when given, is sent as a checkpoint frame right
    after the first events frame.
    """
    while True:
        payload = await stream.read()
        if payload is None:
            return
        if payload["type"] == "events":
            seqs = [event["seq"] for event in payload["events"]]
            received.extend(seqs)
            if bad_checkpoint is not None:
                await stream.write({"type": "checkpoint", **bad_checkpoint})
                bad_checkpoint = None
            await stream.write({"type": "credit", "n": 1, "ack_seq": seqs[-1]})
        elif payload["type"] == "end":
            last = received[-1] if received else -1
            await stream.write({"type": "checkpoint", "through_seq": last})
            await stream.write(
                {
                    "type": "end_ack",
                    "events_seen": len(received),
                    "records": 0,
                    "last_seq": last,
                }
            )
            return


def spin_events(requests=1):
    spec = InstanceSpec(instance=0, workload="mbench_spin", requests=requests)
    return spec, generate_instance_events(spec)


class TestInstanceEvents:
    def test_generation_is_deterministic(self):
        spec = InstanceSpec(instance=0, workload="mbench_spin", requests=4)
        first = [e.to_dict() for e in generate_instance_events(spec)]
        second = [e.to_dict() for e in generate_instance_events(spec)]
        assert first == second
        assert any(e["kind"] == "request_completed" for e in first)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="requests"):
            InstanceSpec(instance=0, workload="tpcc", requests=0)
        with pytest.raises(ValueError, match="concurrency"):
            InstanceSpec(instance=0, workload="tpcc", concurrency=0)

    def test_stream_stats_merge(self):
        a = StreamStats(events_sent=2, reconnects=1, ack_latencies=[0.1])
        a.merge(StreamStats(events_sent=3, events_shed=4, ack_latencies=[0.2]))
        assert a.events_sent == 5
        assert a.events_shed == 4
        assert a.reconnects == 1
        assert a.ack_latencies == [0.1, 0.2]


class TestPacingRate:
    @pytest.mark.parametrize(
        "rate", [0, 0.0, -100.0, float("nan"), float("inf"), -float("inf")]
    )
    def test_client_rejects_rates_that_cannot_pace(self, rate):
        spec, events = spin_events()
        with pytest.raises(ValueError, match="rate_events_per_s"):
            InstanceClient(
                spec, events, HashRing(["w0"]), {"w0": "w0.sock"},
                rate_events_per_s=rate,
            )

    def test_load_test_rejects_a_negative_rate(self, tmp_path):
        options = LoadTestOptions(
            workload="mbench_spin", instances=1, workers=1, requests=1,
            rate_events_per_s=-100.0,
        )
        with pytest.raises(ValueError, match="rate_events_per_s"):
            asyncio.run(run_load_test(options, str(tmp_path)))
        # Rejected before any worker started.
        assert not os.path.exists(tmp_path / "w0.sock")

    @pytest.mark.parametrize("rate", ["0", "-100", "nan", "inf", "fast"])
    def test_cli_rejects_rates_that_cannot_pace(self, rate, capsys):
        from repro.serve.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "load-test", "--workload", "mbench_spin", "--instances",
                "1", "--workers", "1", "--requests", "3", "--quiet",
                "--rate", rate,
            ])
        assert excinfo.value.code == 2
        assert "--rate" in capsys.readouterr().err


class TestWorkerLink:
    def test_acks_are_read_as_they_arrive(self, tmp_path):
        """At a 5 ms gap each event is its own frame.  A credit read
        only once the link runs out of credit would wait ~7 gaps."""
        spec, events = spin_events()
        stats = asyncio.run(
            stream_instance_to(
                make_worker(tmp_path), spec, events[:64],
                rate_events_per_s=200.0,
            )
        )
        assert stats.events_sent == 64
        assert len(stats.ack_latencies) == stats.frames_sent
        assert statistics.median(stats.ack_latencies) * 1e3 < 10.0

    def test_failover_while_waiting_for_credit(self, tmp_path):
        """A worker that grants one credit, takes one frame and dies
        leaves the link waiting for credit; the link must reconnect and
        replay instead of hanging."""
        spec, events = spin_events()
        received = []

        async def serve(stream, index):
            if index == 0:
                await server_handshake(stream, credit=1)
                await stream.expect("events")
                return  # close without acking
            await server_handshake(stream, credit=8)
            await serve_like_a_worker(stream, received)

        stats = asyncio.run(
            stream_to_fake_worker(tmp_path, serve, spec, events, batch=8)
        )
        assert stats.reconnects == 1
        # The replay resends the lost frame, then every later event once.
        assert received == [event.seq for event in events]
        assert stats.events_sent == len(events) + 8
        assert stats.checkpoint_acks == 1

    def test_connection_lost_mid_replay_loses_nothing(self, tmp_path):
        """A second worker death while the tail is being replayed must
        not drop the part of the tail not yet resent."""
        spec, events = spin_events()
        received = []

        async def serve(stream, index):
            if index < 2:
                # Die after two frames, then again one frame into the
                # replay, without acking anything.
                await server_handshake(stream, credit=8 if index == 0 else 1)
                for _ in range(2 - index):
                    await stream.expect("events")
                return
            await server_handshake(stream, credit=8)
            await serve_like_a_worker(stream, received)

        stats = asyncio.run(
            stream_to_fake_worker(tmp_path, serve, spec, events, batch=8)
        )
        assert stats.reconnects == 2
        assert received == [event.seq for event in events]

    @pytest.mark.parametrize(
        "ack",
        [
            {"credit": 0},
            {"credit": -1},
            {"credit": "eight"},
            {"credit": True},
            {"credit": 8.0},
            {},
        ],
        ids=["zero", "negative", "string", "bool", "float", "missing"],
    )
    def test_malformed_credit_grant_is_a_protocol_error(self, tmp_path, ack):
        spec, events = spin_events()

        async def serve(stream, index):
            await server_handshake(stream, **ack)
            while await stream.read() is not None:
                pass  # never credits anything

        with pytest.raises(ProtocolError, match="hello_ack frame: 'credit'"):
            asyncio.run(stream_to_fake_worker(tmp_path, serve, spec, events))

    @pytest.mark.parametrize(
        "checkpoint",
        [{}, {"through_seq": "12"}, {"through_seq": None}],
        ids=["missing", "string", "null"],
    )
    def test_malformed_checkpoint_is_a_protocol_error(
        self, tmp_path, checkpoint
    ):
        spec, events = spin_events()

        async def serve(stream, index):
            await server_handshake(stream, credit=8)
            await serve_like_a_worker(stream, [], bad_checkpoint=checkpoint)

        with pytest.raises(
            ProtocolError, match="checkpoint frame: 'through_seq'"
        ):
            asyncio.run(
                stream_to_fake_worker(tmp_path, serve, spec, events, batch=8)
            )


class TestShardWorker:
    def test_streams_and_reports(self, tmp_path):
        spec = InstanceSpec(instance=0, workload="mbench_spin", requests=4)
        events = generate_instance_events(spec)
        worker = make_worker(tmp_path)
        stats = asyncio.run(stream_instance_to(worker, spec, events))
        assert stats.events_sent == len(events)
        report = worker.build_report()
        view = report["instances"]["0"]
        assert view["events_seen"] == len(events)
        assert view["workload"] == "mbench_spin"
        assert len(view["records"]) == 4
        # Periodic + final checkpoints were written and acked.
        assert worker.checkpoints_written >= 2
        assert stats.checkpoint_acks >= 2
        assert os.path.exists(
            os.path.join(worker.config.checkpoint_dir, "instance-0.json")
        )

    def test_restored_worker_reports_identically(self, tmp_path):
        spec = InstanceSpec(instance=0, workload="mbench_spin", requests=4)
        events = generate_instance_events(spec)
        worker = make_worker(tmp_path)
        asyncio.run(stream_instance_to(worker, spec, events))
        original = json.dumps(worker.build_report(), sort_keys=True)

        reborn = make_worker(tmp_path)  # same dirs: restores checkpoints
        assert reborn.instances_restored == 1
        assert json.dumps(reborn.build_report(), sort_keys=True) == original

    def test_replay_is_idempotent(self, tmp_path):
        """Streaming the same events twice (tail replay after failover)
        changes nothing: the pipeline's seq cursor skips duplicates."""
        spec = InstanceSpec(instance=0, workload="mbench_spin", requests=4)
        events = generate_instance_events(spec)
        once = make_worker(tmp_path / "once")
        asyncio.run(stream_instance_to(once, spec, events))

        twice = make_worker(tmp_path / "twice")

        async def stream_twice():
            server = asyncio.create_task(twice.serve_until_stopped())
            try:
                while not os.path.exists(twice.config.socket_path):
                    await asyncio.sleep(0.005)
                ring = HashRing(["w0"])
                paths = {"w0": twice.config.socket_path}
                await InstanceClient(spec, events, ring, paths).run()
                await InstanceClient(spec, events, ring, paths).run()
            finally:
                twice.request_stop()
                await server

        asyncio.run(stream_twice())
        assert json.dumps(twice.build_report(), sort_keys=True) == json.dumps(
            once.build_report(), sort_keys=True
        )

    def test_version_skew_rejected_with_error_frame(self, tmp_path):
        worker = make_worker(tmp_path)

        async def scenario():
            server = asyncio.create_task(worker.serve_until_stopped())
            try:
                while not os.path.exists(worker.config.socket_path):
                    await asyncio.sleep(0.005)
                reader, writer = await asyncio.open_unix_connection(
                    worker.config.socket_path
                )
                stream = FrameStream(reader, writer)
                bad = hello("instance", instance=0)
                bad["version"] = 99
                await stream.write(bad)
                try:
                    await stream.expect("hello_ack")
                finally:
                    await stream.close()
            finally:
                worker.request_stop()
                await server

        with pytest.raises(ProtocolError, match="version 99"):
            asyncio.run(scenario())

    def test_unknown_role_rejected(self, tmp_path):
        worker = make_worker(tmp_path)

        async def scenario():
            server = asyncio.create_task(worker.serve_until_stopped())
            try:
                while not os.path.exists(worker.config.socket_path):
                    await asyncio.sleep(0.005)
                reader, writer = await asyncio.open_unix_connection(
                    worker.config.socket_path
                )
                stream = FrameStream(reader, writer)
                await stream.write(hello("janitor"))
                try:
                    await stream.expect("hello_ack")
                finally:
                    await stream.close()
            finally:
                worker.request_stop()
                await server

        with pytest.raises(ProtocolError, match="unknown connection role"):
            asyncio.run(scenario())

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            make_worker(tmp_path, checkpoint_every=0)


class TestLoadTest:
    def options(self, **overrides):
        defaults = dict(
            workload="mbench_spin",
            instances=2,
            workers=2,
            requests=4,
            seed=7,
            checkpoint_every=16,
        )
        defaults.update(overrides)
        return LoadTestOptions(**defaults)

    def test_end_to_end(self, tmp_path):
        result = asyncio.run(run_load_test(self.options(), str(tmp_path)))
        summary = result.fleet.summary
        assert summary["workers"] == 2
        assert summary["instances"] == 2
        assert summary["population"] == 8  # 2 instances x 4 requests
        assert result.stats["events_sent"] >= result.stats["events_generated"]
        assert result.stats["events_per_second"] > 0
        assert result.stats["ack_latency_ms"] is not None
        assert result.registry.counter("serve_events_sent").value > 0

    def test_fleet_report_deterministic_across_runs(self, tmp_path):
        first = asyncio.run(
            run_load_test(self.options(), str(tmp_path / "a"))
        )
        second = asyncio.run(
            run_load_test(self.options(), str(tmp_path / "b"))
        )
        assert first.fleet.to_json() == second.fleet.to_json()

    def test_worker_reports_merge_to_the_fleet_report(self, tmp_path):
        result = asyncio.run(run_load_test(self.options(), str(tmp_path)))
        remerged = merge_worker_reports(result.worker_reports)
        assert remerged.to_json() == result.fleet.to_json()

    def test_saved_worker_reports_round_trip(self, tmp_path):
        result = asyncio.run(run_load_test(self.options(), str(tmp_path)))
        paths = save_worker_reports(result.worker_reports, str(tmp_path))
        assert [os.path.basename(p) for p in paths] == [
            "report-w0.json",
            "report-w1.json",
        ]
        from repro.serve.aggregator import load_worker_report

        documents = [load_worker_report(path) for path in paths]
        assert merge_worker_reports(documents).to_json() == (
            result.fleet.to_json()
        )

    def test_shed_mode_counts_drops(self, tmp_path):
        options = self.options(
            backpressure="shed", queue_limit=1, batch=1, credit=1
        )
        result = asyncio.run(run_load_test(options, str(tmp_path)))
        stats = result.stats
        # Conservation: everything offered was either sent or shed
        # (run_start broadcasts make sent+shed exceed generated).
        assert stats["events_sent"] + stats["events_shed"] >= (
            stats["events_generated"]
        )

    def test_shard_name(self):
        assert [shard_name(i) for i in range(3)] == ["w0", "w1", "w2"]


class TestCli:
    def test_load_test_writes_report(self, tmp_path, capsys):
        from repro.serve.cli import main

        report_path = tmp_path / "fleet.json"
        code = main([
            "load-test", "--workload", "mbench_spin", "--instances", "2",
            "--workers", "2", "--requests", "4", "--quiet",
            "--report", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["format"] == "repro-serve-fleet-report"
        assert payload["summary"]["population"] == 8

    def test_report_mode_merges(self, tmp_path, capsys):
        from repro.serve.cli import main

        options = LoadTestOptions(
            workload="mbench_spin", instances=2, workers=2, requests=4
        )
        result = asyncio.run(run_load_test(options, str(tmp_path)))
        paths = save_worker_reports(result.worker_reports, str(tmp_path))
        out = tmp_path / "fleet.json"
        assert main(["report", *paths, "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == json.loads(
            result.fleet.to_json()
        )
        assert "fleet report" in capsys.readouterr().out

    def test_kill_worker_index_validated(self):
        from repro.serve.cli import main

        with pytest.raises(SystemExit):
            main(["load-test", "--workers", "2", "--kill-worker", "5"])

    def test_unknown_kind_target_is_usage_error(self, capsys):
        from repro.serve.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "load-test", "--workload", "tpcc",
                "--faults", "lock_stall:0.2%kind=neworder",
            ])
        assert excinfo.value.code == 2
        assert "workload 'tpcc' has no kind 'neworder'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "extra,message",
        (
            ([], "'closed' arrivals tag no tenants"),
            (["--arrivals", "zipf:400,1.1,4"], "'zipf' arrivals tag tenants"),
        ),
    )
    def test_unreachable_tenant_target_is_usage_error(
        self, extra, message, capsys
    ):
        from repro.serve.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "load-test", "--workload", "tpcc",
                "--faults", "lock_stall:0.2%tenant=9", *extra,
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "fault spec clause 'lock_stall:0.2%tenant=9'" in err
        assert message in err

    def test_malformed_arrivals_is_usage_error(self, capsys):
        from repro.serve.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["load-test", "--workload", "tpcc", "--arrivals", "zipf:1"])
        assert excinfo.value.code == 2
        assert "arrival spec 'zipf:1'" in capsys.readouterr().err

    def test_unknown_workload_rejected(self):
        from repro.serve.cli import main

        with pytest.raises(SystemExit):
            main(["load-test", "--workload", "not-a-workload"])


@pytest.fixture(scope="module")
def spin_bank(tmp_path_factory):
    """A small bank file trained at a 10,000-instruction window."""
    from repro.online.pipeline import train_identifier
    from repro.workloads.registry import make_workload

    identifier = train_identifier(
        make_workload("mbench_spin"),
        num_requests=3,
        seed=1,
        window_instructions=10_000.0,
    )
    path = tmp_path_factory.mktemp("bank") / "bank.json"
    save_bank(identifier, str(path))
    return path


def damaged_bank(tmp_path, spin_bank, damage) -> str:
    """A copy of ``spin_bank`` with ``damage(payload)`` applied."""
    payload = json.loads(spin_bank.read_text())
    damage(payload)
    path = tmp_path / "damaged-bank.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestFailLoud:
    """Banks and settings no worker pipeline accepts fail before any
    work starts, with the cause named."""

    def test_bank_without_identifier_names_path_and_field(
        self, tmp_path, spin_bank
    ):
        path = damaged_bank(tmp_path, spin_bank, lambda p: p.pop("identifier"))
        with pytest.raises(ValueError) as excinfo:
            load_bank(path)
        assert str(excinfo.value) == (
            f"{path}: bank file has no identifier object"
        )

    def test_damaged_identifier_names_path_and_field(self, tmp_path, spin_bank):
        path = damaged_bank(
            tmp_path,
            spin_bank,
            lambda p: p["identifier"].pop("window_instructions"),
        )
        with pytest.raises(ValueError) as excinfo:
            load_bank(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: ")
        assert "'window_instructions'" in message

    def test_version_one_bank_refused(self, tmp_path, spin_bank):
        path = damaged_bank(
            tmp_path, spin_bank, lambda p: p.update(version=1)
        )
        with pytest.raises(ValueError, match="unsupported bank version 1"):
            load_bank(path)

    def test_worker_builds_its_config_at_start(self, tmp_path):
        with pytest.raises(ValueError, match="anomaly_quantile"):
            make_worker(tmp_path, anomaly_quantile=1.5)

    def test_worker_refuses_a_bank_trained_at_another_window(
        self, tmp_path, spin_bank
    ):
        with pytest.raises(ValueError, match=r"10000\.0.*100000\.0"):
            make_worker(tmp_path, bank_path=str(spin_bank))

    def test_pool_config_refuses_settings_no_worker_accepts(self, tmp_path):
        with pytest.raises(ValueError, match="anomaly_quantile"):
            PoolConfig(run_dir=str(tmp_path), anomaly_quantile=1.5)
        with pytest.raises(ValueError, match="window_instructions"):
            PoolConfig(run_dir=str(tmp_path), window_instructions=0.0)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["load-test", "--quantile", "1.5"], "--quantile must be in (0, 1)"),
            (["load-test", "--window", "0"], "--window must be > 0"),
            (["serve", "--quantile", "0"], "--quantile must be in (0, 1)"),
            (["serve", "--window", "nan"], "--window must be > 0"),
            (["serve", "--bank", "{damaged}"], "has no identifier object"),
            (["serve", "--bank", "{missing}"], "No such file"),
            (["serve", "--bank", "{bank}"], "window_instructions=10000.0"),
        ],
    )
    def test_cli_exits_2_before_spawning_a_worker(
        self, argv, message, tmp_path, spin_bank, monkeypatch, capsys
    ):
        from repro.serve.cli import main

        def refuse(pool, shard):
            raise AssertionError(f"worker {shard} spawned")

        monkeypatch.setattr(WorkerPool, "_spawn", refuse)
        paths = {
            "{bank}": str(spin_bank),
            "{damaged}": damaged_bank(
                tmp_path, spin_bank, lambda p: p.pop("identifier")
            ),
            "{missing}": str(tmp_path / "no-such-bank.json"),
        }
        argv = [paths.get(arg, arg) for arg in argv]
        if argv[0] == "serve":
            argv += ["--run-dir", str(tmp_path / "run")]
        else:
            argv += ["--workload", "mbench_spin", "--requests", "1", "--quiet"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
