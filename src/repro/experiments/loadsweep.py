"""Experiment ``loadsweep``: throughput vs tail latency under open load.

The paper's evaluation is closed-loop (a fixed thread pool replays
requests back-to-back), which can never show the queueing knee an open
system has: as offered load approaches capacity, queueing delay — and
with it p99 latency — diverges long before throughput stops growing.
This experiment sweeps an open-loop Poisson arrival process over a
ladder of offered loads for several dispatch policies and tabulates the
throughput-vs-percentile curve, including the overload regime where the
bounded admission queue starts shedding.

Every cell is an independent seeded simulation, so cells run in forked
workers under ``--jobs N`` through :func:`repro.parallel.ordered_map`;
rows are collected in ladder order, making the rendered table
byte-identical for any jobs count.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.hardware.platform import WOODCREST
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.parallel import ordered_map
from repro.traffic import PoissonArrivals, TrafficConfig, parse_dispatch
from repro.workloads.registry import make_workload

#: Offered arrival rates (requests/s).  WOODCREST runs the TPCC mix at
#: roughly 3k requests/s flat out on 4 cores, so the ladder spans from
#: comfortably underloaded to ~2.7x overloaded.
OFFERED_LOADS = (500, 1000, 2000, 4000, 8000)

#: Dispatch policies to contrast at each load point.
POLICIES = ("rr", "random", "jsq", "low")

#: Bounded admission queue: arrivals finding this many requests in
#: flight are shed, which keeps the overload rows finite and makes
#: backpressure visible as a shed count instead of an unbounded queue.
ADMISSION_LIMIT = 32

WORKLOAD = "tpcc"
SEED = 42


def _cell_config(rate_per_s: float, policy: str, requests: int) -> SimConfig:
    return SimConfig(
        machine=WOODCREST,
        num_requests=requests,
        concurrency=ADMISSION_LIMIT,
        seed=SEED,
        traffic=TrafficConfig(
            arrivals=PoissonArrivals(rate_per_s),
            dispatch=parse_dispatch(policy),
            admission_limit=ADMISSION_LIMIT,
        ),
    )


def _run_cell(args) -> dict:
    """One (offered load, policy) grid cell."""
    rate_per_s, policy, requests = args
    workload = make_workload(WORKLOAD)
    result = ServerSimulator(
        workload, _cell_config(rate_per_s, policy, requests)
    ).run()
    summary = result.latency.summary()
    latency = summary["latency_us"]
    queue = summary["queue_us"]
    offered = requests + summary["shed"]
    return {
        "offered_rps": int(rate_per_s),
        "dispatch": policy,
        "completed": summary["completed"],
        "shed": summary["shed"],
        "shed_frac": round(summary["shed"] / offered, 3) if offered else 0.0,
        "throughput_rps": round(summary["throughput_rps"], 1),
        "p50_us": round(latency["p50"], 1),
        "p95_us": round(latency["p95"], 1),
        "p99_us": round(latency["p99"], 1),
        "queue_p99_us": round(queue["p99"], 1),
    }


def run(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    requests = max(40, int(round(200 * scale)))
    cells = [
        (float(rate), policy, requests)
        for rate in OFFERED_LOADS
        for policy in POLICIES
    ]
    rows = list(ordered_map(_run_cell, cells, jobs))

    knee = next(
        (row for row in rows if row["dispatch"] == "rr" and row["shed"] > 0),
        None,
    )
    notes = [
        f"{WORKLOAD} on {WOODCREST.num_cores} cores, open-loop Poisson arrivals, "
        f"{requests} requests/cell, admission queue bounded at "
        f"{ADMISSION_LIMIT} (arrivals beyond it are shed).",
        "Closed-loop replay cannot produce these curves: offered load is an "
        "independent axis only in an open system.",
    ]
    if knee is not None:
        notes.append(
            f"Backpressure knee (rr): first shedding at "
            f"{knee['offered_rps']} req/s offered."
        )
    return ExperimentResult(
        exp_id="loadsweep",
        title="Load sweep: throughput vs tail latency by dispatch policy",
        rows=rows,
        notes=notes,
    )
