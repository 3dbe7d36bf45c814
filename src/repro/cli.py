"""Command-line simulation driver.

Usage examples::

    repro-simulate tpcc --requests 60 --sampling interrupt:100
    repro-simulate webserver --sampling syscall:8,60 --export traces.json
    repro-simulate tpch --scheduler contention --requests 40 --summary-metric cpi
    repro-simulate tpcc --requests 80 --classify 4 --jobs 4
    repro-simulate tpcc --trace events.jsonl --metrics-out metrics.json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.report import format_table
from repro.cliargs import fault_spec, non_negative_int, positive_int
from repro.core.clustering import distance_matrix, k_medoids
from repro.core.distances import l1_distance, unequal_length_penalty
from repro.core.distengine import DistanceEngine
from repro.core.variation import captured_variation, inter_request_variation
from repro.hardware.platform import WOODCREST, serial_machine
from repro.kernel.contention import ContentionEasingScheduler
from repro.kernel.sampling import SamplingMode, SamplingPolicy
from repro.kernel.scheduler import RoundRobinScheduler
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.kernel.trace_io import save_traces
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import StageProfiler, activated
from repro.obs.trace import TraceCollector, save_events
from repro.workloads.registry import (
    SERVER_APPS,
    available_workloads,
    make_faulted_workload,
    make_workload,
    parse_workload_faults,
)


def _spec_float(text: str, spec: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"invalid sampling spec {spec!r}: {text!r} is not a number"
        ) from None


def parse_sampling(text: str) -> SamplingPolicy:
    """Parse ``interrupt:<period_us>``, ``syscall:<tmin>,<tbackup>``,
    ``ctx`` into a sampling policy."""
    kind, _, args = text.partition(":")
    if kind == "interrupt":
        return SamplingPolicy.interrupt(_spec_float(args or "100", text))
    if kind == "syscall":
        t_min, _, t_backup = args.partition(",")
        if not t_min or not t_backup:
            raise ValueError("syscall sampling needs '<tmin_us>,<tbackup_us>'")
        return SamplingPolicy.syscall_triggered(
            _spec_float(t_min, text), _spec_float(t_backup, text)
        )
    if kind == "ctx":
        return SamplingPolicy(mode=SamplingMode.CONTEXT_SWITCH_ONLY)
    raise ValueError(f"unknown sampling spec {text!r}")


def parse_scheduler(text: str, threshold: float):
    if text == "roundrobin":
        return RoundRobinScheduler()
    if text == "contention":
        return ContentionEasingScheduler(
            high_usage_threshold=threshold, adaptive_threshold=True
        )
    raise ValueError(f"unknown scheduler {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Simulate a server workload and report request behavior",
    )
    parser.add_argument("workload", help=f"one of {', '.join(SERVER_APPS)}")
    parser.add_argument(
        "--requests", type=positive_int, default=40,
        help="number of requests to simulate (>= 1, default 40)",
    )
    parser.add_argument(
        "--concurrency", type=positive_int, default=None,
        help="closed-loop clients (>= 1, default 8 on 4 cores, 1 on 1)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--cores", type=int, choices=(1, 4), default=4,
        help="1 = serial baseline machine, 4 = the paper's Woodcrest",
    )
    parser.add_argument(
        "--sampling", default=None,
        help="interrupt:<period_us> | syscall:<tmin_us>,<tbackup_us> | ctx "
        "(default: interrupt at the workload's paper frequency)",
    )
    parser.add_argument(
        "--scheduler", choices=("roundrobin", "contention"), default="roundrobin"
    )
    parser.add_argument(
        "--threshold", type=float, default=0.01,
        help="contention scheduler warm-up high-usage threshold (miss/ins)",
    )
    parser.add_argument(
        "--export",
        help="write traces to this file (.jsonl = line-oriented stream, "
        "otherwise a JSON document)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record structured observability events (admission, scheduling, "
        "phase transitions, samples, syscalls) and export them as JSONL",
    )
    parser.add_argument(
        "--trace-capacity", type=positive_int, default=1_000_000,
        help="event ring-buffer capacity for --trace (oldest events drop "
        "beyond this, default 1000000)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a metrics snapshot (counters/gauges/histograms plus "
        "stage timings) to this JSON file",
    )
    parser.add_argument(
        "--top", type=non_negative_int, default=5,
        help="how many requests to print (>= 0, default 5)",
    )
    parser.add_argument(
        "--classify", type=positive_int, default=None, metavar="K",
        help="cluster the requests into K groups by CPI-variation L1 "
        "distance (k-medoids) and print a per-cluster summary",
    )
    parser.add_argument(
        "--jobs", type=positive_int, default=1,
        help="worker processes for the --classify pairwise-distance "
        "matrix (default 1)",
    )
    parser.add_argument(
        "--faults", type=fault_spec, default=None, metavar="SPEC",
        help="inject ground-truth faults from a composable schedule, e.g. "
        "lock_stall:0.2 or 'gc_pause:0.2+cache_thrash:0.1@0-40' (clauses "
        "joined by +; options: @lo-hi window, %%kind=NAME / %%tenant=N "
        "targets, *N bursts; see docs/faults.md)",
    )
    parser.add_argument(
        "--arrivals", default=None, metavar="SPEC",
        help="open-loop arrival process: poisson:<rate_rps> | "
        "onoff:<ron>,<roff>,<on_ms>,<off_ms> | diurnal:<rate>,<period_ms>,"
        "<depth> | zipf:<rate>,<s>,<tenants> | replay:<path> | closed "
        "(default: closed loop at --concurrency)",
    )
    parser.add_argument(
        "--offered-load", type=float, default=None, metavar="RPS",
        help="shorthand for --arrivals poisson:<RPS>",
    )
    parser.add_argument(
        "--dispatch", default=None, metavar="POLICY",
        help="core dispatch policy: rr | random | jsq | low | classaware "
        "(default rr)",
    )
    parser.add_argument(
        "--admission-limit", type=positive_int, default=None, metavar="N",
        help="bound the admission queue at N in-flight requests; open-loop "
        "arrivals beyond it are shed (counted, not executed)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print a stage-timing table (generate/simulate/distance/cluster "
        "split) after the run, mirroring repro-experiments --profile",
    )
    parser.add_argument(
        "--online", action="store_true",
        help="attach the streaming online pipeline (prediction + anomaly "
        "detection) to the run and print its scored report",
    )
    parser.add_argument(
        "--attribute", action="store_true",
        help="with --online: classify the likely fault cause of each "
        "flagged request and score attribution against injected ground "
        "truth",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH",
        help="with --online: write the pipeline's versioned checkpoint "
        "after the run",
    )
    return parser


def classify_requests(traces, window_instructions: float, k: int, seed: int,
                      jobs: int = 1) -> str:
    """k-medoids cluster summary of simulated requests (L1 on CPI series)."""
    series = [t.series("cpi", window_instructions).values for t in traces]
    rng = np.random.default_rng(seed)
    penalty = unequal_length_penalty(np.concatenate(series), rng)
    engine = DistanceEngine(jobs=jobs)
    matrix = distance_matrix(
        series,
        lambda a, b: l1_distance(a, b, penalty=penalty),
        engine=engine,
    )
    clusters = k_medoids(
        matrix, k=min(k, len(traces)), rng=np.random.default_rng(seed)
    )
    cpu_times = np.array([t.cpu_time_us() for t in traces])
    cpis = np.array([t.overall_cpi() for t in traces])
    rows = []
    for cluster, medoid in enumerate(clusters.medoids):
        members = clusters.members(cluster)
        rows.append(
            {
                "cluster": cluster,
                "size": int(members.size),
                "medoid": traces[int(medoid)].spec.request_id,
                "kind": traces[int(medoid)].spec.kind,
                "mean_cpu_us": float(cpu_times[members].mean()),
                "mean_cpi": float(cpis[members].mean()),
            }
        )
    return format_table(rows, title=f"k-medoids clusters (k={len(rows)})")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.workload not in available_workloads():
        print(
            f"unknown workload {args.workload!r}; "
            f"available: {', '.join(available_workloads())}",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint and not args.online:
        parser.error("--checkpoint requires --online")
    if args.offered_load is not None and args.arrivals is not None:
        parser.error("--offered-load is shorthand for --arrivals poisson:<RPS>; "
                     "give one or the other")

    traffic = None
    arrivals_spec = args.arrivals
    if args.offered_load is not None:
        arrivals_spec = f"poisson:{args.offered_load}"
    if arrivals_spec is not None or args.dispatch or args.admission_limit:
        from repro.traffic import TrafficConfig, parse_arrivals, parse_dispatch

        try:
            traffic = TrafficConfig(
                arrivals=parse_arrivals(arrivals_spec or "closed"),
                dispatch=parse_dispatch(args.dispatch or "rr"),
                admission_limit=args.admission_limit,
            )
        except ValueError as error:
            parser.error(str(error))
    arrivals = traffic.arrivals if traffic is not None else None
    if args.faults:
        try:
            parse_workload_faults(args.workload, args.faults, arrivals)
        except ValueError as error:
            parser.error(str(error))

    profiler = StageProfiler()
    collector = None
    pipeline = None
    if args.trace:
        collector = TraceCollector(capacity=args.trace_capacity)
    if args.attribute and not args.online:
        parser.error("--attribute requires --online")
    if args.online:
        from repro.online.pipeline import (
            SUBSCRIBED_KINDS,
            OnlineConfig,
            OnlinePipeline,
        )

        if collector is None:
            # Online-only runs stream just the kinds the pipeline reads,
            # retaining nothing (dispatch-only).
            collector = TraceCollector(capacity=0, kinds=SUBSCRIBED_KINDS)
        if args.attribute:
            pipeline = OnlinePipeline(config=OnlineConfig(attribute=True))
        else:
            pipeline = OnlinePipeline()
        collector.subscribe(pipeline.process_event)
    with activated(profiler):
        workload = (
            make_faulted_workload(args.workload, args.faults, arrivals)
            if args.faults
            else make_workload(args.workload)
        )
        try:
            sampling = (
                parse_sampling(args.sampling)
                if args.sampling
                else SamplingPolicy.interrupt(workload.sampling_period_us)
            )
            scheduler = parse_scheduler(args.scheduler, args.threshold)
        except ValueError as error:
            parser.error(str(error))
        machine = WOODCREST if args.cores == 4 else serial_machine()
        concurrency = args.concurrency or (8 if args.cores == 4 else 1)
        config = SimConfig(
            machine=machine,
            sampling=sampling,
            scheduler=scheduler,
            num_requests=args.requests,
            concurrency=concurrency,
            seed=args.seed,
            collector=collector,
            traffic=traffic,
        )
        result = ServerSimulator(workload, config).run()

    cpis = result.request_cpis()
    cpu_times = np.array([t.cpu_time_us() for t in result.traces])
    print(
        f"{args.workload}: {len(result.traces)} requests on {args.cores} "
        f"core(s), {result.sampler_stats.total_samples} counter samples, "
        f"{result.wall_cycles / 3e9 * 1000:.1f} simulated ms"
    )
    print(
        f"request CPI: mean {cpis.mean():.2f}, p90 "
        f"{np.percentile(cpis, 90):.2f}, max {cpis.max():.2f}"
    )
    print(
        f"request CPU: mean {cpu_times.mean():.0f} us, p90 "
        f"{np.percentile(cpu_times, 90):.0f} us"
    )
    for metric in ("cpi", "l2_refs_per_ins", "l2_miss_ratio"):
        inter = inter_request_variation(result.traces, metric)
        intra = captured_variation(result.traces, metric)
        print(f"{metric}: inter-request CoV {inter:.3f}, with intra {intra:.3f}")

    if result.latency is not None:
        summary = result.latency.summary()
        lat, queue = summary["latency_us"], summary["queue_us"]
        print(
            f"traffic: {summary['completed']} completed, "
            f"{summary['shed']} shed, "
            f"throughput {summary['throughput_rps']:.0f} req/s"
        )
        if lat["p50"] is not None:
            print(
                f"latency: p50 {lat['p50']:.0f} us, p95 {lat['p95']:.0f} us, "
                f"p99 {lat['p99']:.0f} us "
                f"(queueing p99 {queue['p99']:.0f} us)"
            )
        kind_rows = result.latency.rows_by_kind()
        if kind_rows:
            print()
            print(format_table(kind_rows, title="latency by request kind"))

    rows = [
        {
            "id": t.spec.request_id,
            "kind": t.spec.kind,
            "instructions": int(t.total_instructions),
            "cpu_us": t.cpu_time_us(),
            "cpi": t.overall_cpi(),
            "periods": t.num_periods,
        }
        for t in result.traces[: args.top]
    ]
    print()
    print(format_table(rows, title=f"first {len(rows)} requests"))

    if args.classify:
        print()
        with activated(profiler):
            summary = classify_requests(
                result.traces,
                workload.window_instructions,
                k=args.classify,
                seed=args.seed,
                jobs=args.jobs,
            )
        print(summary)

    if args.profile:
        rows = [
            {**row, "seconds": round(row["seconds"], 3)}
            for row in profiler.rows()
        ]
        print()
        print(format_table(rows, title=f"-- {args.workload} stage profile --"))

    if pipeline is not None:
        from repro.online.checkpoint import save_checkpoint
        from repro.online.report import build_report

        print()
        print(build_report(pipeline).render())
        if args.checkpoint:
            save_checkpoint(pipeline, args.checkpoint)
            print(f"checkpoint written to {args.checkpoint}")

    if args.export:
        save_traces(result.traces, args.export)
        print(f"\ntraces written to {args.export}")
    if args.trace:
        save_events(collector, args.trace)
        print(
            f"\n{len(collector)} observability events written to {args.trace} "
            f"({collector.dropped} dropped)"
        )
    if args.metrics_out:
        registry = MetricsRegistry()
        result.register_metrics(registry)
        extra = {
            "workload": args.workload,
            "seed": args.seed,
            "stages": profiler.snapshot(),
        }
        if collector is not None:
            extra["trace_events"] = len(collector)
            extra["trace_dropped"] = collector.dropped
        registry.write_json(args.metrics_out, extra=extra)
        print(f"metrics written to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
