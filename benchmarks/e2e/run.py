"""End-to-end benchmark runner: five workloads, checked outputs, one JSON result.

Run from a source checkout (no install needed)::

    python3 benchmarks/e2e/run.py                          # every workload
    python3 benchmarks/e2e/run.py --workload sim_closed --seed 3
    python3 benchmarks/e2e/run.py --workload classify --trace 1
    python3 benchmarks/e2e/run.py --seed 1 --out results.json

With no ``--workload`` each workload runs in its own fresh subprocess, one
after another.  A single-workload run sets up three times (here and in two
fresh processes, so set-up includes importing the program and filling its
caches), runs a warm-up round as part of each set-up, then repeats
fixed-size timed rounds for ``--seconds``.  Each metric is the median over
rounds (set-ups for ``setup_s``); quartiles go to ``--out``.  Every
round's outputs are hashed and checked: a round whose digest differs from
the warm-up round's, or that breaks an invariant, counts as failed, and
the run exits 1.

Host times are normalized to a reference machine speed: a fixed
interpreter-and-numpy loop that never calls the program is timed before
and after every round and set-up, and a time measured while that loop ran
slower than ``REFERENCE_S`` is scaled down by the same factor.  The
unscaled numbers are kept in the result's ``report`` section.

``--trace 1`` alternates untraced and traced rounds.  Traced rounds wrap
the program's layers from outside (``layertrace.py``); the per-layer
metrics come from them and the spans are written under
``benchmarks/e2e/out/``.  Metric names, units and the default
``--seconds`` come from ``BENCHMARK.json`` at the repository root.  The
last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}`` holding the end-to-end metrics, or
with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from layertrace import LAYERS, NullTracer, Tracer
from scenarios import SCENARIOS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = Path("benchmarks") / "e2e" / "out"

#: Set-ups per run: this process plus fresh subprocesses.
SETUPS = 3
#: Every run completes at least this many cycles through its round kinds.
MIN_CYCLES = 3
#: Seconds ``reference_loop`` takes on an idle 2-vCPU Intel Xeon VM
#: (Python 3.11, numpy 2.4); host times are expressed at that speed.
REFERENCE_S = 0.021


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def reference_loop() -> float:
    """Seconds for a fixed mix of interpreter and small-numpy work.

    It never calls the program, so its time tracks only how fast the
    (shared) machine runs right now.
    """
    import numpy as np

    started = time.perf_counter()
    counts = {}
    total = 0.0
    for i in range(100_000):
        key = i % 97
        counts[key] = counts.get(key, 0) + 1
        total += (i * 0.5) ** 0.5
    values = np.arange(2000.0)
    for _ in range(500):
        values = np.minimum.accumulate(np.abs(values - 1.5) + 0.1)
    return time.perf_counter() - started


def summarize(values) -> dict:
    """Median with the quartiles ``statistics.quantiles`` gives."""
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def machine() -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


# -- one workload -----------------------------------------------------------

def set_up(name: str, seed: int):
    """Build inputs and run the warm-up round, timed together."""
    # Relative to the repository root (the working directory): unix
    # socket paths under it must stay short.
    work_dir = str(OUT_DIR / f"{name}-seed{seed}-pid{os.getpid()}")
    scenario = SCENARIOS[name](seed, work_dir)
    started = time.perf_counter()
    scenario.setup()
    kind = scenario.kinds[0]
    warm_started = time.perf_counter()
    outputs = scenario.execute(kind, NullTracer())
    warm_wall = time.perf_counter() - warm_started
    setup_s = time.perf_counter() - started
    speed = REFERENCE_S / reference_loop()
    warm = scenario.inspect(kind, outputs, warm_wall, traced=False)
    warm.speed = speed
    return scenario, setup_s, speed, warm


def setup_only(name: str, seed: int) -> int:
    scenario, setup_s, speed, warm = set_up(name, seed)
    try:
        print(json.dumps({
            "setup_s": setup_s,
            "speed": speed,
            "inputs": scenario.input_digest(),
            "outputs": warm.digest,
        }))
    finally:
        scenario.close()
    return 0


def fresh_setups(name: str, seed: int, count: int) -> list:
    """Set-up times, speeds and digests from ``count`` fresh processes."""
    results = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"set-up subprocess for {name} failed:\n{done.stderr}"
            )
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def run_rounds(scenario, seconds: float, trace: bool, tracer, reference: str):
    """Cycle through the round kinds until ``seconds`` have passed."""
    rounds = []
    plan = [
        (kind, traced)
        for kind in scenario.kinds
        for traced in ((False, True) if trace else (False,))
    ]
    before = reference_loop()
    started = time.perf_counter()
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() - started < seconds:
        for kind, traced in plan:
            active = tracer if traced else NullTracer()
            active.start_round(len(rounds))
            with tracer.installed() if traced else nullcontext():
                begin = time.perf_counter()
                with active.span("bench.round"):
                    outputs = scenario.execute(kind, active)
                wall = time.perf_counter() - begin
            after = reference_loop()
            round_ = scenario.inspect(kind, outputs, wall, traced)
            round_.speed = 2 * REFERENCE_S / (before + after)
            before = after
            if round_.digest != reference:
                round_.problems.append(
                    f"round {len(rounds)} ({kind}) output digest "
                    f"{round_.digest[:16]} differs from the warm-up's "
                    f"{reference[:16]}"
                )
            rounds.append(round_)
        cycles += 1
    return rounds


def per_round(rounds, measure) -> list:
    """``measure(round)`` over untraced rounds, skipping None."""
    values = [measure(r) for r in rounds if not r.traced]
    return [value for value in values if value is not None]


def per_layer(scenario, rounds, tracer) -> dict:
    """Per-layer numbers: medians over traced rounds of the first kind."""
    kind = scenario.kinds[0]
    traced = [(i, r) for i, r in enumerate(rounds) if r.traced and r.kind == kind]
    samples = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    for index, round_ in traced:
        span = next(
            s for s in tracer.spans
            if s["round"] == index and s["name"] == "bench.round"
        )
        wall = span["end"] - span["start"]
        calls = tracer.call_counts(index)
        layer_seconds = dict.fromkeys(LAYERS + ("bench",), 0.0)
        for name, seconds in tracer.frame_self_seconds(index).items():
            add(f"{name}_frac", seconds / wall)
            add(f"{name}_s", seconds)
            layer_seconds[name.split(".", 1)[0]] += seconds
        for layer, seconds in layer_seconds.items():
            add(f"{layer}.self_frac", seconds / wall)
            add(f"{layer}.self_s", seconds)
        add(
            "trace.layer_cover_frac",
            sum(layer_seconds[layer] for layer in LAYERS) / wall,
        )
        add("trace.round_ms", wall * 1e3)
        requests = calls.get("workloads.generate", 0)
        add("workloads.requests", requests)
        add(
            "workloads.block_frac",
            calls.get("workloads.block_items", 0) / requests if requests else 0.0,
        )
        add("traffic.dispatch_calls", calls.get("traffic.dispatch", 0))
        add("core.one_to_many_calls", calls.get("core.one_to_many", 0))
        samples_taken = round_.values.get("kernel.samples", 0)
        add(
            "kernel.us_per_sample",
            layer_seconds["kernel"] / samples_taken * 1e6 if samples_taken else 0.0,
        )
        for name, value in round_.values.items():
            add(name, value)
    values = {name: statistics.median(v) for name, v in samples.items()}
    # Traced against untraced rounds, both at the reference speed.
    walls = {
        traced: statistics.median(
            r.wall_s * r.speed for r in rounds
            if r.traced == traced and r.kind == kind
        )
        for traced in (False, True)
    }
    values["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    values.update(scenario.layer_extras(rounds))
    return values


def run_workload(args, benchmark: dict) -> dict:
    name = args.workload
    scenario, setup_s, speed, warm = set_up(name, args.seed)
    tracer = Tracer() if args.trace else NullTracer()
    setups = [(setup_s, speed)]
    try:
        inputs = scenario.input_digest()
        if not args.trace:
            for fresh in fresh_setups(name, args.seed, SETUPS - 1):
                setups.append((fresh["setup_s"], fresh["speed"]))
                if (fresh["inputs"], fresh["outputs"]) != (inputs, warm.digest):
                    warm.problems.append(
                        "a fresh process built different inputs or outputs"
                    )
        rounds = run_rounds(scenario, args.seconds, args.trace, tracer, warm.digest)
    finally:
        scenario.close()

    all_rounds = [warm] + rounds
    attempted = sum(r.items for r in all_rounds)
    failed = sum(r.items for r in all_rounds if r.problems)
    problems = [p for r in all_rounds for p in r.problems]

    e2e = {
        "throughput_per_s": summarize(per_round(rounds, scenario.throughput)),
        "latency_ms": summarize(per_round(rounds, scenario.latency_ms)),
        "setup_s": summarize([seconds * speed for seconds, speed in setups]),
        "peak_rss_mb": summarize(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        ),
    }
    raw = summarize(per_round(rounds, scenario.raw_throughput))["value"]
    report = {
        scenario.throughput_name: (raw, "1/s"),
        "setup_raw_s": (statistics.median(s for s, _ in setups), "s"),
        "machine_speed": (
            statistics.median(r.speed for r in all_rounds if not r.traced), "frac"
        ),
        "failed_frac": (failed / attempted, "frac"),
        **scenario.report(all_rounds),
    }
    metrics = {
        m["name"]: {**e2e[m["name"]], "unit": m["unit"]}
        for m in benchmark["end_to_end"]
    }
    layers, detail, trace_file = {}, {}, None
    if args.trace:
        values = per_layer(scenario, rounds, tracer)
        layer_units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        layers = {
            metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
            for metric, unit in layer_units.items()
        }
        detail = {
            k: {"value": v, "unit": _detail_unit(k)}
            for k, v in values.items()
            if k not in layer_units and _detail_unit(k) and v
        }
        trace_file = str(OUT_DIR / f"trace-{name}-seed{args.seed}.json")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(trace_file, {"workload": name, "seed": args.seed})

    return {
        "benchmark": "repro-e2e",
        "version": 1,
        "workload": name,
        "why": scenario.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "scale": {
            key: getattr(scenario, key)
            for key in dir(type(scenario)) if key.isupper()
        },
        "machine": machine(),
        "git_sha": git_sha(),
        "started_at": args.started_at,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": {"inputs": inputs, "outputs": warm.digest},
        "rounds": [
            {"kind": r.kind, "traced": r.traced, "wall_s": r.wall_s,
             "items": r.items, "busy_s": r.busy_s, "speed": r.speed}
            for r in all_rounds
        ],
        "setups": [{"seconds": s, "speed": v} for s, v in setups],
        "metrics": metrics,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "per_layer": layers,
        "per_layer_detail": detail,
        "trace_file": trace_file,
    }


def _detail_unit(name: str):
    """Unit of a per-layer detail value kept out of BENCHMARK.json
    (absolute times, which read zero on workloads that skip a layer)."""
    for suffix, unit in (("_ms", "ms"), ("us_per_sample", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return None


def print_result(result: dict) -> None:
    print(
        f"workload {result['workload']}  seed {result['seed']}  "
        f"{len(result['rounds']) - 1} timed rounds  "
        f"trace {'on' if result['trace'] else 'off'}"
    )
    print(f"  outputs digest {result['digest']['outputs']}")
    sections = [("end-to-end", result["metrics"]), ("report", result["report"])]
    if result["trace"]:
        sections.append(("per-layer", result["per_layer"]))
        sections.append(("per-layer detail", result["per_layer_detail"]))
    for title, metrics in sections:
        print(f"  {title}:")
        for name, metric in metrics.items():
            value = metric["value"]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"    {name:32s} {shown:>14s} {metric['unit']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def final_line(result: dict) -> dict:
    metrics = result["per_layer"] if result["trace"] else result["metrics"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics.items()
        },
    }


# -- every workload -----------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own fresh subprocess, never two at once."""
    results = []
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in SCENARIOS:
        out = OUT_DIR / f"result-{name}-seed{args.seed}.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out),
        ]
        subprocess.run(command, timeout=600)
        with open(out) as fh:
            results.append(json.load(fh))
    combined = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            f"{r['workload']}.{name}": metric
            for r in results
            for name, metric in final_line(r)["metrics"].items()
        },
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": results}, fh, indent=1)
            fh.write("\n")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(
        description="Run the repository's end-to-end benchmark."
    )
    parser.add_argument("--workload", choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=benchmark["run_seconds"],
        help="measured time per run (default from BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: alternate traced rounds and report per-layer metrics",
    )
    parser.add_argument("--out", help="write the full JSON result here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.started_at = time.time()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        return setup_only(args.workload, args.seed)
    if args.workload is None:
        return run_all(args)
    result = run_workload(args, benchmark)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    print_result(result)
    print(json.dumps(final_line(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
