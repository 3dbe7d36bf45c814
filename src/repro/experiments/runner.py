"""Command-line runner for the paper's tables and figures.

Usage::

    repro-experiments --list
    repro-experiments fig1 fig3 --scale 0.5
    repro-experiments all --scale 1.0 --out EXPERIMENTS_RUN.md
    repro-experiments all --jobs 4 --cache   # parallel ids + distance cache
    repro-experiments fig7 --profile --metrics-out fig7-metrics.json
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time

from repro.cliargs import positive_float, positive_int
from repro.experiments.base import EXPERIMENTS, get_experiment
from repro.jsondoc import atomic_write
from repro.obs.profiling import StageProfiler, activated
from repro.parallel import ordered_map


def normalize_experiment_ids(requested) -> list:
    """Expand ``all`` in place and deduplicate, preserving first-seen order.

    ``all`` may be mixed with explicit ids (``repro-experiments all fig1``)
    and ids may repeat; each experiment runs exactly once.  Unknown ids
    raise ``ValueError``.
    """
    expanded = []
    for exp_id in requested:
        if exp_id == "all":
            expanded.extend(EXPERIMENTS)
        else:
            expanded.append(exp_id)
    unknown = sorted({e for e in expanded if e not in EXPERIMENTS})
    if unknown:
        raise ValueError(f"unknown experiment ids: {unknown}")
    seen = set()
    ordered = []
    for exp_id in expanded:
        if exp_id not in seen:
            seen.add(exp_id)
            ordered.append(exp_id)
    return ordered


def _call_run(module, scale: float, jobs: int, cache_dir, profile: bool = False):
    """Invoke ``module.run``, passing jobs/cache_dir only where supported.

    With ``profile`` a fresh :class:`StageProfiler` captures the pipeline
    stages (generate → simulate → distance → cluster) and its snapshot is
    attached to the result as ``stage_seconds``.
    """
    kwargs = {"scale": scale}
    parameters = inspect.signature(module.run).parameters
    if "jobs" in parameters:
        kwargs["jobs"] = jobs
    if "cache_dir" in parameters and cache_dir is not None:
        kwargs["cache_dir"] = cache_dir
    if not profile:
        return module.run(**kwargs)
    profiler = StageProfiler()
    with activated(profiler):
        result = module.run(**kwargs)
    if hasattr(result, "stage_seconds"):
        result.stage_seconds = profiler.snapshot()
    return result


def run_experiments(exp_ids, scale: float, jobs: int = 1, cache_dir=None,
                    profile: bool = False):
    """Run experiments by id, yielding (exp_id, result, seconds).

    With ``jobs > 1`` and several ids, independent experiments run in
    forked workers through :func:`repro.parallel.ordered_map` (one
    experiment each, so inner distance work stays serial); a single
    experiment instead runs in-process and receives the whole ``jobs``
    budget for its pairwise-distance matrices.  Yield order always
    follows ``exp_ids``.  ``profile`` attaches per-stage wall-clock
    timings to each result (captured inside the worker for parallel runs,
    so timings stay per-experiment).
    """
    exp_ids = list(exp_ids)
    inner_jobs = jobs if len(exp_ids) == 1 else 1

    def run_one(exp_id: str):
        module = get_experiment(exp_id)
        start = time.perf_counter()
        result = _call_run(module, scale, inner_jobs, cache_dir, profile)
        return result, time.perf_counter() - start

    for exp_id, (result, elapsed) in zip(
        exp_ids, ordered_map(run_one, exp_ids, jobs)
    ):
        yield exp_id, result, elapsed


def _format_profile(exp_id: str, stage_seconds: dict) -> str:
    """Render a ``--profile`` stage table for one experiment."""
    from repro.analysis.report import format_table

    rows = [
        {
            "stage": name,
            "calls": entry["calls"],
            "seconds": round(entry["seconds"], 3),
        }
        for name, entry in stage_seconds.items()
    ]
    return format_table(rows, title=f"-- {exp_id} stage profile --")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce tables/figures from 'Request Behavior "
        "Variations' (ASPLOS 2010)",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (fig1..fig13, table1, table2, sec32, stream, "
        "sweep) or 'all' (mixable with explicit ids; duplicates run once)",
    )
    parser.add_argument(
        "--scale",
        type=positive_float,
        default=1.0,
        help="request-count scale factor (> 0; smaller = faster, default 1.0)",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="worker processes: parallelizes independent experiment ids, or "
        "the pairwise-distance matrices of a single experiment (default 1)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="persist pairwise-distance results under results/.cache/ so "
        "reruns skip recomputation",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--out",
        help="also write rendered output to this file (atomic replace; "
        "concurrent runs cannot interleave)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="time each pipeline stage (generate/simulate/distance/cluster) "
        "per experiment and print a profile table",
    )
    parser.add_argument(
        "--metrics-out",
        help="write per-experiment timing/profile metrics to this JSON file",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for exp_id, (_, description) in EXPERIMENTS.items():
            print(f"{exp_id:8s}  {description}")
        return 0

    try:
        exp_ids = normalize_experiment_ids(args.experiments)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    cache_dir = "results/.cache" if args.cache else None
    profile = args.profile or bool(args.metrics_out)
    outputs = []
    metrics = {}
    for exp_id, result, elapsed in run_experiments(
        exp_ids, args.scale, jobs=args.jobs, cache_dir=cache_dir, profile=profile
    ):
        text = result.render()
        print(text)
        if args.profile and result.stage_seconds:
            print(_format_profile(exp_id, result.stage_seconds))
        print(f"[{exp_id} finished in {elapsed:.1f}s]\n")
        outputs.append(text + f"\n[{elapsed:.1f}s]\n")
        metrics[exp_id] = {
            "seconds": elapsed,
            "stages": result.stage_seconds,
        }
    if args.out:
        # Write-to-temp-then-rename: appending would interleave two runs
        # sharing a report file, and a crash mid-write would leave a torn
        # one.  The rename publishes the whole report or nothing.
        atomic_write(
            args.out, "\n\n".join(o.rstrip("\n") for o in outputs) + "\n"
        )
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
