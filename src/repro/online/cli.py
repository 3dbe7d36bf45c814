"""The ``repro-online`` command: streaming analysis of a simulated run.

Live mode attaches an :class:`~repro.online.pipeline.OnlinePipeline` to the
simulator's event stream as it runs::

    repro-online tpcc --requests 80 --faults lock_stall:0.2 --train 30
    repro-online tpcc --requests 60 --faults slowdown:0.15 \\
        --report report.json --checkpoint state.json --events-out run.jsonl

Replay mode re-processes a recorded event stream, optionally resuming from
a mid-stream checkpoint (decisions are byte-identical either way)::

    repro-online tpcc --events run.jsonl --restore state.json --report r.json
"""

from __future__ import annotations

import argparse
import sys

from repro.cliargs import fault_spec, non_negative_int, positive_int
from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceCollector, load_events, save_events
from repro.online.checkpoint import load_checkpoint, save_checkpoint
from repro.online.pipeline import (
    SUBSCRIBED_KINDS,
    OnlineConfig,
    OnlinePipeline,
    train_identifier,
)
from repro.online.report import build_report
from repro.workloads.registry import (
    SERVER_APPS,
    available_workloads,
    make_faulted_workload,
    make_workload,
    parse_workload_faults,
)


#: The pipeline settings a checkpoint fixes, with their flag defaults.
PIPELINE_DEFAULTS = {
    "window": 100_000.0, "quantile": 0.9, "attribute": False, "train": 24,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-online",
        description="Stream a simulated run through the online analysis "
        "pipeline (identification, prediction, anomaly detection)",
    )
    parser.add_argument("workload", help=f"one of {', '.join(SERVER_APPS)}")
    parser.add_argument(
        "--requests", type=positive_int, default=60,
        help="requests to simulate in live mode (default 60)",
    )
    parser.add_argument("--concurrency", type=positive_int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--faults", type=fault_spec, default=None, metavar="SPEC",
        help="inject ground-truth faults from a composable schedule, "
        "e.g. lock_stall:0.2 or 'gc_pause:0.2+cache_thrash:0.1@0-40' "
        "(clauses joined by +; options: @lo-hi window, %%kind=NAME / "
        "%%tenant=N targets, *N bursts; see docs/faults.md)",
    )
    parser.add_argument(
        "--attribute", action="store_true", default=None,
        help="classify the likely fault cause of each flagged request "
        "from its counter signature and score the attribution against "
        "injected ground truth in the report",
    )
    parser.add_argument(
        "--train", type=non_negative_int, default=None, metavar="N",
        help="calibration requests (clean workload, offset seed) used to "
        "fit the signature bank; 0 disables the identification stage "
        "(default 24)",
    )
    parser.add_argument(
        "--window", type=float, default=None,
        help="pattern window in instructions (default 100000)",
    )
    parser.add_argument(
        "--quantile", type=float, default=None,
        help="adaptive anomaly threshold quantile in (0,1) (default 0.9)",
    )
    parser.add_argument(
        "--report", metavar="PATH",
        help="write the scored detection report as canonical JSON",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH",
        help="write a versioned pipeline checkpoint after the run",
    )
    parser.add_argument(
        "--events", metavar="PATH",
        help="replay a recorded obs JSONL stream instead of simulating",
    )
    parser.add_argument(
        "--restore", metavar="PATH",
        help="resume from a checkpoint before replaying (requires --events)",
    )
    parser.add_argument(
        "--events-out", metavar="PATH",
        help="record the live run's event stream as JSONL (for replay)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the online pipeline's metrics snapshot to this JSON file",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.restore and not args.events:
        parser.error("--restore requires --events (replay mode)")
    if args.events_out and args.events:
        parser.error("--events-out only applies to live runs")
    # A checkpoint fixes these settings, so with --restore a given one
    # is refused (once the checkpoint is read, to name its value).
    fixed = [flag for flag in PIPELINE_DEFAULTS if getattr(args, flag) is not None]
    for flag, default in PIPELINE_DEFAULTS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    if not 0.0 < args.quantile < 1.0:
        parser.error("--quantile must be in (0, 1)")
    if args.window <= 0:
        parser.error("--window must be positive")
    if args.workload not in available_workloads():
        print(
            f"unknown workload {args.workload!r}; "
            f"available: {', '.join(available_workloads())}",
            file=sys.stderr,
        )
        return 2
    if args.faults:
        try:
            parse_workload_faults(args.workload, args.faults)
        except ValueError as error:
            parser.error(str(error))

    registry = MetricsRegistry()

    if args.events:
        try:
            events, _ = load_events(args.events)
            if args.restore:
                pipeline = load_checkpoint(args.restore, registry=registry)
        except (OSError, ValueError) as error:
            parser.error(str(error))
        if args.restore and fixed:
            parser.error(
                f"--{fixed[0]} does not apply with --restore: the checkpoint "
                f"fixes {_checkpoint_setting(pipeline, fixed[0])}"
            )
        if not args.restore:
            pipeline = _fresh_pipeline(args, registry)
        pipeline.process_events(events)
    else:
        pipeline = _fresh_pipeline(args, registry)
        workload = (
            make_faulted_workload(args.workload, args.faults)
            if args.faults
            else make_workload(args.workload)
        )
        # Dispatch-only unless the subscribed event stream is being kept
        # for export (--events-out needs the buffered records).
        collector = TraceCollector(
            capacity=None if args.events_out else 0, kinds=SUBSCRIBED_KINDS
        )
        collector.subscribe(pipeline.process_event)
        config = SimConfig(
            sampling=SamplingPolicy.interrupt(workload.sampling_period_us),
            num_requests=args.requests,
            concurrency=min(args.concurrency, args.requests),
            seed=args.seed,
            collector=collector,
        )
        try:
            simulator = ServerSimulator(workload, config)
        except ValueError as error:
            parser.error(str(error))
        simulator.run()
        if args.events_out:
            save_events(collector, args.events_out)
            print(f"event stream written to {args.events_out}")

    report = build_report(pipeline)
    print(report.render())
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"report written to {args.report}")
    if args.checkpoint:
        save_checkpoint(pipeline, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    if args.metrics_out:
        registry.write_json(
            args.metrics_out,
            extra={"workload": args.workload, "seed": args.seed},
        )
        print(f"metrics written to {args.metrics_out}")
    return 0


def _checkpoint_setting(pipeline: OnlinePipeline, flag: str) -> str:
    """How a restored checkpoint fixes the setting behind ``flag``."""
    config = pipeline.config
    return {
        "window": f"window_instructions={config.window_instructions!r}",
        "quantile": f"anomaly_quantile={config.anomaly_quantile!r}",
        "attribute": f"attribute={config.attribute!r}",
        "train": (
            "no signature bank" if pipeline.identifier is None
            else "its signature bank"
        ),
    }[flag]


def _fresh_pipeline(args, registry) -> OnlinePipeline:
    config = OnlineConfig(
        window_instructions=float(args.window),
        anomaly_quantile=args.quantile,
        attribute=args.attribute,
    )
    identifier = None
    if args.train > 0:
        # The signature bank must come from unperturbed traffic, and from a
        # different seed than the streamed run (no training-set leakage).
        identifier = train_identifier(
            make_workload(args.workload),
            num_requests=args.train,
            seed=args.seed + 10_000,
            window_instructions=config.window_instructions,
        )
    return OnlinePipeline(config=config, identifier=identifier, registry=registry)


if __name__ == "__main__":
    sys.exit(main())
