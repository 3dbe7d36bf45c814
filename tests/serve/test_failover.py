"""Kill/failover differential: SIGKILL must not change any decision.

The acceptance surface for the serve tier: a worker SIGKILLed mid-stream
is restarted by the supervisor, restores from its last atomic checkpoint,
and has the unacked tail replayed by the instance clients.  Every
decision artifact — per-instance decision logs, per-worker reports, the
merged fleet report — must come out byte-identical to an uninterrupted
run at the same seeds.
"""

from __future__ import annotations

import asyncio
import json
import os
from types import SimpleNamespace

from repro.serve.service import (
    KillSpec,
    LoadTestOptions,
    run_load_test,
    shard_name,
)

OPTIONS = dict(
    workload="mbench_spin",
    instances=3,
    workers=2,
    requests=5,
    seed=11,
    # Small interval so the kill lands after a mid-stream checkpoint
    # with plenty of unacked tail behind it.
    checkpoint_every=8,
    decisions=True,
)


def run(tmp_path, name, **overrides):
    options = LoadTestOptions(**{**OPTIONS, **overrides})
    run_dir = str(tmp_path / name)
    return run_load_test(options, run_dir), run_dir


def decision_logs(run_dir):
    logs = {}
    decisions_root = os.path.join(run_dir, "decisions")
    for shard in sorted(os.listdir(decisions_root)):
        for name in sorted(os.listdir(os.path.join(decisions_root, shard))):
            path = os.path.join(decisions_root, shard, name)
            with open(path) as fh:
                logs[f"{shard}/{name}"] = fh.read()
    return logs


def test_sigkilled_worker_resumes_byte_identically(tmp_path):
    async def scenario():
        baseline, baseline_dir = run(tmp_path, "baseline")
        killed, killed_dir = run(
            tmp_path, "killed", kill=KillSpec(shard=shard_name(0))
        )
        return (await baseline, baseline_dir), (await killed, killed_dir)

    (baseline, baseline_dir), (killed, killed_dir) = asyncio.run(scenario())

    # The kill actually happened and failover actually ran.
    assert killed.stats["worker_restarts"].get("w0", 0) >= 1
    assert killed.stats["reconnects"] >= 1
    assert all(n == 0 for n in baseline.stats["worker_restarts"].values())

    # Decision streams: byte-identical files, shard by shard.
    assert decision_logs(baseline_dir) == decision_logs(killed_dir)

    # Worker reports and the merged fleet view: byte-identical JSON.
    assert [r for r in killed.worker_reports] == [
        r for r in baseline.worker_reports
    ]
    assert killed.fleet.to_json() == baseline.fleet.to_json()


def test_attribution_decisions_survive_sigkill_byte_identically(tmp_path):
    """Failover with cause attribution on: the attributor's centroid state
    rides the checkpoint, so attribution decisions (and the fleet-level
    attribution scoring) must be byte-identical to an unkilled run."""
    overrides = dict(
        faults="lock_stall:0.3+gc_pause:0.2",
        attribute=True,
        train=6,
    )

    async def scenario():
        baseline, baseline_dir = run(tmp_path, "baseline", **overrides)
        killed, killed_dir = run(
            tmp_path, "killed", kill=KillSpec(shard=shard_name(0)),
            **overrides,
        )
        return (await baseline, baseline_dir), (await killed, killed_dir)

    (baseline, baseline_dir), (killed, killed_dir) = asyncio.run(scenario())

    assert killed.stats["worker_restarts"].get("w0", 0) >= 1
    # Attribution actually ran: every decision record carries the field
    # and the fleet report grew its scoring section.
    assert baseline.fleet.attribution is not None
    assert all(
        "attributed_cause" in record for record in baseline.fleet.requests
    )

    assert decision_logs(baseline_dir) == decision_logs(killed_dir)
    assert killed.worker_reports == baseline.worker_reports
    assert killed.fleet.to_json() == baseline.fleet.to_json()


def test_killing_the_other_worker_is_also_clean(tmp_path):
    async def scenario():
        baseline, _ = run(tmp_path, "baseline")
        killed, _ = run(
            tmp_path, "killed", kill=KillSpec(shard=shard_name(1))
        )
        return await baseline, await killed

    baseline, killed = asyncio.run(scenario())
    assert killed.stats["worker_restarts"].get("w1", 0) >= 1
    assert killed.fleet.to_json() == baseline.fleet.to_json()


def test_kill_returns_only_once_the_shard_serves_again(tmp_path):
    """A kill landing after every instance finished streaming must not let
    report collection race the restart: the kill waits for the restarted
    worker's socket before returning."""
    from repro.serve.service import _kill_after_checkpoint

    checkpoints = tmp_path / "ck"
    checkpoints.mkdir()
    (checkpoints / "instance-0.json").write_text("{}")
    socket_path = str(tmp_path / "w0.sock")

    class Pool:
        config = SimpleNamespace(
            checkpoint_dir=lambda shard: str(checkpoints),
            socket_path=lambda shard: socket_path,
        )
        restarts = {"w0": 0}
        killed = False

        def kill(self, shard):
            self.killed = True

    async def scenario():
        pool = Pool()
        serving = []

        async def supervise():
            while not pool.killed:
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.05)
            pool.restarts["w0"] += 1
            await asyncio.sleep(0.05)  # the new worker is still starting
            server = await asyncio.start_unix_server(
                lambda reader, writer: writer.close(), path=socket_path
            )
            serving.append(True)
            return server

        supervisor = asyncio.create_task(supervise())
        await asyncio.wait_for(
            _kill_after_checkpoint(pool, KillSpec(shard="w0")), timeout=10
        )
        returned_while_serving = bool(serving)
        server = await supervisor
        server.close()
        await server.wait_closed()
        return pool.killed, returned_while_serving

    assert asyncio.run(scenario()) == (True, True)


def test_serve_failover_smoke(tmp_path):
    """The CLI end to end: 3 tpcc instances stream to a 2-worker pool;
    one run SIGKILLs worker 0 after its first durable checkpoint.  The
    killed run must restart a worker, and its fleet report must be
    byte-identical to the uninterrupted run's."""
    from repro.serve.cli import main

    load_test = [
        "load-test", "--workload", "tpcc", "--instances", "3",
        "--workers", "2", "--requests", "12",
        "--faults", "lock_stall:0.25", "--train", "8",
        "--checkpoint-every", "32", "--quiet",
    ]
    clean = tmp_path / "fleet-clean.json"
    killed = tmp_path / "fleet-killed.json"
    stats_path = tmp_path / "serve-stats.json"
    assert main([*load_test, "--report", str(clean)]) == 0
    assert main([
        *load_test, "--kill-worker", "0", "--report", str(killed),
        "--stats-out", str(stats_path),
    ]) == 0

    assert clean.read_bytes() == killed.read_bytes()
    stats = json.loads(stats_path.read_text())
    restarts = sum(stats["worker_restarts"].values())
    assert restarts >= 1, "kill run never restarted a worker"
    assert stats["events_shed"] == 0, "block mode must not shed"
    summary = json.loads(clean.read_text())["summary"]
    assert summary["population"] == 36 and summary["injected"] > 0
    print(
        "serve smoke ok:",
        {key: summary[key] for key in
         ("workers", "instances", "population", "injected", "flagged")},
        f"restarts={restarts}",
        f"reconnects={stats['reconnects']}",
    )
