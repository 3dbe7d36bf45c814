"""The ``repro-serve`` command: run, load-test, and report on the fleet.

Three modes::

    # Foreground worker pool (instances connect to the printed sockets);
    # workers that die are restarted with checkpoint/tail-replay failover.
    repro-serve serve --workers 2 --run-dir /tmp/fleet

    # Self-contained load test: N instances stream to M workers, then the
    # fleet report and throughput/latency stats print.  --kill-worker
    # exercises failover mid-run; byte-identity with an unkilled run is
    # the determinism contract.
    repro-serve load-test --instances 3 --workers 2 --workload tpcc \\
        --requests 20 --faults lock_stall:0.2 --report fleet.json

    # Merge saved per-worker reports into the fleet view.
    repro-serve report run-dir/report-w0.json run-dir/report-w1.json
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import tempfile

from repro.analysis.report import format_metrics
from repro.cliargs import (
    fault_spec,
    non_negative_int,
    positive_float,
    positive_int,
)
from repro.online.pipeline import OnlineConfig, check_identifier_window
from repro.serve.aggregator import load_worker_report, merge_worker_reports
from repro.serve.service import (
    KillSpec,
    LoadTestOptions,
    PoolConfig,
    WorkerPool,
    run_load_test,
    save_worker_reports,
    shard_name,
)
from repro.serve.worker import load_bank
from repro.traffic import parse_arrivals
from repro.workloads.registry import available_workloads, parse_workload_faults


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Live sharded multi-client online-analysis service",
    )
    modes = parser.add_subparsers(dest="mode", required=True)

    serve = modes.add_parser(
        "serve", help="run a worker pool in the foreground"
    )
    serve.add_argument("--workers", type=positive_int, default=2)
    serve.add_argument("--run-dir", required=True, metavar="DIR")
    serve.add_argument("--bank", default=None, metavar="PATH",
                       help="shared signature-bank file (repro-serve-bank)")
    serve.add_argument("--checkpoint-every", type=positive_int, default=256)
    serve.add_argument("--credit", type=positive_int, default=8)
    serve.add_argument("--window", type=float, default=100_000.0)
    serve.add_argument("--quantile", type=float, default=0.9)
    serve.add_argument("--decisions", action="store_true",
                       help="write per-instance decision logs (JSONL)")
    serve.add_argument("--attribute", action="store_true",
                       help="classify likely fault causes of flagged "
                       "requests in every worker pipeline")

    load = modes.add_parser(
        "load-test", help="self-contained fleet load test"
    )
    load.add_argument("--workload", default="tpcc",
                      help=f"one of {', '.join(available_workloads())}")
    load.add_argument("--instances", type=positive_int, default=3)
    load.add_argument("--workers", type=positive_int, default=2)
    load.add_argument("--requests", type=positive_int, default=20,
                      help="requests per instance (default 20)")
    load.add_argument("--concurrency", type=positive_int, default=8)
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--faults", type=fault_spec, default=None,
                      metavar="SPEC",
                      help="composable fault schedule per instance, e.g. "
                      "lock_stall:0.2 or 'gc_pause:0.2+cache_thrash:0.1"
                      "@0-40' (see docs/faults.md)")
    load.add_argument("--arrivals", default=None, metavar="SPEC",
                      help="arrival process per instance "
                      "(poisson:<rps>, onoff:..., zipf:...)")
    load.add_argument("--train", type=non_negative_int, default=0,
                      metavar="N",
                      help="calibration requests for a shared signature "
                      "bank (0 disables identification; default 0)")
    load.add_argument("--rate", type=positive_float, default=None,
                      metavar="EV/S",
                      help="pace each instance's stream at this many "
                      "events/sec (default: as fast as credit allows)")
    load.add_argument("--backpressure", choices=("block", "shed"),
                      default="block")
    load.add_argument("--queue-limit", type=positive_int, default=64)
    load.add_argument("--batch", type=positive_int, default=32)
    load.add_argument("--checkpoint-every", type=positive_int, default=256)
    load.add_argument("--credit", type=positive_int, default=8)
    load.add_argument("--window", type=float, default=100_000.0)
    load.add_argument("--quantile", type=float, default=0.9)
    load.add_argument("--kill-worker", type=non_negative_int, default=None,
                      metavar="INDEX",
                      help="SIGKILL worker INDEX once it has checkpointed "
                      "(failover exercise; decisions must not change)")
    load.add_argument("--run-dir", default=None, metavar="DIR",
                      help="service scratch dir (default: a temp dir)")
    load.add_argument("--decisions", action="store_true",
                      help="write per-instance decision logs under the "
                      "run dir")
    load.add_argument("--attribute", action="store_true",
                      help="classify likely fault causes of flagged "
                      "requests and score them fleet-wide against "
                      "injected ground truth")
    load.add_argument("--report", default=None, metavar="PATH",
                      help="write the canonical fleet report JSON here")
    load.add_argument("--save-worker-reports", action="store_true",
                      help="write per-worker report files under the run dir")
    load.add_argument("--stats-out", default=None, metavar="PATH",
                      help="write wall-clock service stats (JSON; not "
                      "deterministic, kept out of the fleet report)")
    load.add_argument("--quiet", action="store_true")

    report = modes.add_parser(
        "report", help="merge saved worker reports into the fleet view"
    )
    report.add_argument("reports", nargs="+", metavar="WORKER_REPORT.json")
    report.add_argument("--out", default=None, metavar="PATH",
                        help="write the canonical fleet report JSON here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.mode == "report":
        return _mode_report(args)
    _check_pipeline_flags(args, parser)
    if args.mode == "serve":
        return _mode_serve(args)
    return _mode_load_test(args, parser)


def _check_pipeline_flags(args, parser) -> None:
    """Exit 2, before any worker starts, on settings no worker pipeline
    accepts: each worker would die at start, or refuse every instance."""
    if not args.window > 0:
        parser.error(f"--window must be > 0, got {args.window!r}")
    if not 0.0 < args.quantile < 1.0:
        parser.error(f"--quantile must be in (0, 1), got {args.quantile!r}")
    if getattr(args, "bank", None):
        try:
            check_identifier_window(
                OnlineConfig(window_instructions=args.window),
                load_bank(args.bank),
            )
        except (OSError, ValueError) as error:
            parser.error(f"--bank: {error}")


def _mode_serve(args) -> int:
    config = PoolConfig(
        run_dir=args.run_dir,
        workers=args.workers,
        bank_path=args.bank,
        checkpoint_every=args.checkpoint_every,
        credit=args.credit,
        window_instructions=args.window,
        anomaly_quantile=args.quantile,
        decisions=args.decisions,
        attribute=args.attribute,
    )

    async def _serve() -> None:
        pool = WorkerPool(config)
        await pool.start()
        for shard in config.shards:
            print(f"{shard}: {config.socket_path(shard)}")
        print(f"{args.workers} workers up; ^C to stop", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        try:
            await stop.wait()
        finally:
            await pool.stop()

    asyncio.run(_serve())
    return 0


def _mode_load_test(args, parser) -> int:
    if args.workload not in available_workloads():
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"available: {', '.join(available_workloads())}"
        )
    try:
        arrivals = parse_arrivals(args.arrivals) if args.arrivals else None
        if args.faults:
            parse_workload_faults(args.workload, args.faults, arrivals)
    except ValueError as error:
        parser.error(str(error))
    if args.kill_worker is not None and args.kill_worker >= args.workers:
        parser.error(
            f"--kill-worker {args.kill_worker} out of range "
            f"(workers 0..{args.workers - 1})"
        )
    options = LoadTestOptions(
        workload=args.workload,
        instances=args.instances,
        workers=args.workers,
        requests=args.requests,
        concurrency=args.concurrency,
        seed=args.seed,
        faults=args.faults,
        arrivals=args.arrivals,
        train=args.train,
        batch=args.batch,
        queue_limit=args.queue_limit,
        backpressure=args.backpressure,
        rate_events_per_s=args.rate,
        checkpoint_every=args.checkpoint_every,
        credit=args.credit,
        window_instructions=args.window,
        anomaly_quantile=args.quantile,
        decisions=args.decisions,
        attribute=args.attribute,
        kill=(
            KillSpec(shard=shard_name(args.kill_worker))
            if args.kill_worker is not None
            else None
        ),
    )

    if args.run_dir is not None:
        result = asyncio.run(run_load_test(options, args.run_dir))
        run_dir = args.run_dir
    else:
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as run_dir:
            result = asyncio.run(run_load_test(options, run_dir))

    if not args.quiet:
        print(result.fleet.render())
        print()
        print(_stats_lines(result.stats))
        metrics = format_metrics(result.registry.snapshot())
        if metrics:
            print()
            print(metrics)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(result.fleet.to_json())
            fh.write("\n")
        print(f"fleet report written to {args.report}")
    if args.save_worker_reports:
        if args.run_dir is None:
            parser.error("--save-worker-reports requires --run-dir")
        paths = save_worker_reports(result.worker_reports, args.run_dir)
        print(f"worker reports written: {', '.join(paths)}")
    if args.stats_out:
        import json

        with open(args.stats_out, "w") as fh:
            json.dump(result.stats, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"service stats written to {args.stats_out}")
    return 0


def _stats_lines(stats: dict) -> str:
    latency = stats["ack_latency_ms"]
    latency_text = (
        "n/a"
        if latency is None
        else (
            f"p50={latency['p50']:.2f}ms p95={latency['p95']:.2f}ms "
            f"p99={latency['p99']:.2f}ms max={latency['max']:.2f}ms"
        )
    )
    restarts = sum(stats["worker_restarts"].values())
    return "\n".join(
        [
            "service stats —",
            f"  events: generated={stats['events_generated']}  "
            f"sent={stats['events_sent']}  shed={stats['events_shed']}  "
            f"frames={stats['frames_sent']}",
            f"  sustained: {stats['events_per_second']:.0f} events/s "
            f"over {stats['streaming_seconds']:.2f}s",
            f"  detection latency (frame ack): {latency_text}",
            f"  failover: reconnects={stats['reconnects']}  "
            f"worker_restarts={restarts}",
        ]
    )


def _mode_report(args) -> int:
    documents = [load_worker_report(path) for path in args.reports]
    fleet = merge_worker_reports(documents)
    print(fleet.render())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(fleet.to_json())
            fh.write("\n")
        print(f"fleet report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
