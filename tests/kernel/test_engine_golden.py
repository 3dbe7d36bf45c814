"""Golden byte grid for the simulator engine.

Every cell runs one seeded configuration and hashes *everything
observable* into one sha256: the serialized JSONL event stream, wall
cycles, the shed count, sampler tallies, the high-usage timeline and
per-core busy cycles, the open-system latency records and summary, and
for each completed request its ids, times, syscall events and eleven
counter arrays (compensated and raw), so a single flipped bit anywhere
in a run shows up as a digest mismatch.  Every digest in
``tests/golden/engine_grid.json`` was reproduced by both this engine and
the reference event loop it replaced, under both the block-stamping and
the scalar reference request generators.  The workload-grid and fault
cells of the server apps still run under both generator families: the
registry's block-stamping generators and the scalar oracle in
``tests/workloads/reference.py`` must drive the engine to the same
digest.

The grid crosses the axes that exercise different parts of the engine:
all registry workloads under all four sampling techniques (interrupt
rows, ratecall rows, the trigger predicate), every fault kind plus a
composed schedule, open- vs. closed-loop arrivals with non-trivial
dispatch and overload shedding, the contention-easing scheduler
(resched events), distributed tier placement (network hand-offs), the
high-usage timeline, and the shapes the speed benchmarks run.

Running this module as a script rewrites the digests.  Do that only for
an intended output change, never to make a failing cell pass::

    PYTHONPATH=src python -m tests.kernel.test_engine_golden
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import struct

import pytest

from repro.faults.schedule import ScheduledFaultWorkload, parse_fault_schedule
from repro.hardware.platform import cluster_machine
from repro.kernel.contention import ContentionEasingScheduler
from repro.kernel.sampling import SamplingMode, SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.obs.trace import TraceCollector, events_to_jsonl
from repro.traffic import (
    JoinShortestQueue,
    LeastOutstandingWork,
    OnOffArrivals,
    PoissonArrivals,
    RandomDispatch,
    TrafficConfig,
    parse_arrivals,
    parse_dispatch,
)
from repro.workloads.registry import (
    SERVER_APPS,
    available_workloads,
    make_faulted_workload,
    make_workload,
)
from tests.workloads.reference import REFERENCE_FACTORIES

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden", "engine_grid.json"
)

TRACE_FIELDS = (
    "start",
    "end",
    "core",
    "cycles",
    "instructions",
    "l2_refs",
    "l2_misses",
    "raw_cycles",
    "raw_instructions",
    "raw_l2_refs",
    "raw_l2_misses",
)

SAMPLING_POLICIES = {
    "cs_only": SamplingPolicy(mode=SamplingMode.CONTEXT_SWITCH_ONLY),
    "interrupt": SamplingPolicy.interrupt(50.0),
    "syscall": SamplingPolicy.syscall_triggered(80.0, 400.0),
    "transition": SamplingPolicy.transition_signal(
        80.0, 400.0, {"read", "stat", "write"}
    ),
}

#: One spec per taxonomy kind plus a composed schedule (concurrent
#: clauses, an activation window, a correlated burst): the fault layer
#: rewrites request specs before simulation.
FAULT_SPECS = (
    "lock_stall:0.4",
    "lock_convoy:0.4",
    "cache_thrash:0.35",
    "membw_saturation:0.35",
    "gc_pause:0.3",
    "slowdown:0.4",
    "slow_replica:0.4",
    "gray_degradation:0.5",
    "cache_thrash:0.3+gc_pause:0.2@0-10*2",
)

#: Requests per app in the closed-loop benchmark shape.
SIM_CLOSED_REQUESTS = {
    "tpcc": 80,
    "webserver": 80,
    "tpch": 40,
    "rubis": 60,
    "webwork": 12,
}


class Cell:
    """One golden configuration: a workload and fresh config kwargs.

    ``config`` is a factory so stateful objects (schedulers learn across
    runs, dispatch policies keep streams) are built anew for every run.
    ``check`` asserts the scenario really exercised what it is for.
    """

    def __init__(self, workload, config=dict, faults=None, check=None):
        self.workload = workload
        self.config = config
        self.faults = faults
        self.check = check

    def build_workload(self):
        if self.faults:
            return make_faulted_workload(self.workload, self.faults)
        return make_workload(self.workload)

    def build_reference_workload(self):
        """The same workload over the scalar reference generator."""
        inner = REFERENCE_FACTORIES[self.workload]()
        if self.faults:
            return ScheduledFaultWorkload(
                inner=inner, schedule=parse_fault_schedule(self.faults)
            )
        return inner

    def run(self, workload):
        collector = TraceCollector(capacity=500_000)
        kwargs = {"num_requests": 20, "seed": 7}
        kwargs.update(self.config())
        result = ServerSimulator(
            workload, SimConfig(collector=collector, **kwargs)
        ).run()
        return result, collector


def _injected(result):
    assert any(
        trace.spec.metadata.get("injected_fault") is not None
        for trace in result.traces
    ), "the fault schedule injected nothing"


def _sheds(result):
    assert result.requests_shed > 0, "the scenario never shed an arrival"


def _interrupt_at_app_period(app):
    return SamplingPolicy.interrupt(make_workload(app).sampling_period_us)


def _cells():
    cells = {}
    # 28: every registry workload x every sampling technique.
    for workload, policy in itertools.product(
        available_workloads(), SAMPLING_POLICIES
    ):
        cells[f"grid-{workload}-{policy}"] = Cell(
            workload, lambda p=policy: {"sampling": SAMPLING_POLICIES[p]}
        )
    # 9: every fault kind and one composed schedule, on tpcc.
    for spec in FAULT_SPECS:
        cells[f"fault-{spec}"] = Cell(
            "tpcc",
            lambda: {"sampling": SAMPLING_POLICIES["interrupt"]},
            faults=spec,
            check=_injected,
        )
    # 4: open-loop arrivals, dispatch policies, shedding.
    cells["traffic-poisson-jsq-overload"] = Cell(
        "webserver",
        lambda: {
            "traffic": TrafficConfig(
                arrivals=PoissonArrivals(rate_per_s=20_000.0),
                dispatch=JoinShortestQueue(),
                admission_limit=6,
            ),
            "num_requests": 40,
            "concurrency": 6,
        },
        check=_sheds,
    )
    cells["traffic-onoff-random"] = Cell(
        "tpcc",
        lambda: {
            "traffic": TrafficConfig(
                arrivals=OnOffArrivals(
                    rate_on_per_s=8_000.0,
                    rate_off_per_s=200.0,
                    on_ms=2.0,
                    off_ms=2.0,
                ),
                dispatch=RandomDispatch(),
            ),
            "sampling": SAMPLING_POLICIES["syscall"],
            "num_requests": 24,
        },
    )
    cells["traffic-least-work"] = Cell(
        "webwork",
        lambda: {
            "traffic": TrafficConfig(
                arrivals=PoissonArrivals(rate_per_s=4_000.0),
                dispatch=LeastOutstandingWork(),
            ),
            "num_requests": 24,
        },
    )
    cells["traffic-legacy-rate"] = Cell(
        "mbench_data",
        lambda: {"traffic": TrafficConfig(arrivals=PoissonArrivals(5_000.0))},
    )
    # 4: resched events, cross-machine hand-offs, the high-usage timeline.
    cells["sched-contention-easing"] = Cell(
        "webserver",
        lambda: {
            "scheduler": ContentionEasingScheduler(resched_interval_us=500.0),
            "sampling": SAMPLING_POLICIES["interrupt"],
        },
    )
    cells["sched-adaptive-contention"] = Cell(
        "webwork",
        lambda: {
            "scheduler": ContentionEasingScheduler(
                adaptive_threshold=True, adaptive_warmup=20
            ),
            "num_requests": 12,
        },
    )
    cells["sched-tier-placement"] = Cell(
        "rubis",
        lambda: {
            "machine": cluster_machine(2, 4),
            "tier_placement": {"mysql": 1, "jboss": 1},
            "network_delay_us": 80.0,
            "num_requests": 12,
        },
    )
    cells["sched-high-usage-timeline"] = Cell(
        "tpcc", lambda: {"high_usage_mpi_threshold": 0.004}
    )
    # 4: the speed benchmark's byte-identity configurations.
    for workload in ("mbench_spin", "webserver"):
        cells[f"bench-closed-{workload}"] = Cell(
            workload,
            lambda: {
                "sampling": SamplingPolicy.interrupt(10.0),
                "num_requests": 15,
                "concurrency": 8,
                "seed": 1,
            },
        )
    for workload in ("webserver", "tpcc"):
        cells[f"bench-poisson-{workload}"] = Cell(
            workload,
            lambda: {
                "sampling": SamplingPolicy.interrupt(10.0),
                "num_requests": 20,
                "concurrency": 8,
                "seed": 1,
                "traffic": TrafficConfig(
                    arrivals=PoissonArrivals(rate_per_s=50_000.0)
                ),
            },
        )
    # 5: the closed-loop benchmark workload's shape, one cell per app.
    for app in SERVER_APPS:
        cells[f"sim_closed-{app}"] = Cell(
            app,
            lambda a=app: {
                "sampling": _interrupt_at_app_period(a),
                "num_requests": SIM_CLOSED_REQUESTS[a],
                "concurrency": 8,
                "seed": 1,
            },
        )
    # 1: the open-loop benchmark workload's shape.
    cells["sim_open-tpcc"] = Cell(
        "tpcc",
        lambda: {
            "sampling": SamplingPolicy.syscall_triggered(8.0, 60.0),
            "scheduler": ContentionEasingScheduler(
                high_usage_threshold=0.01, adaptive_threshold=True
            ),
            "num_requests": 300,
            "concurrency": 8,
            "seed": 2,
            "traffic": TrafficConfig(
                arrivals=parse_arrivals("poisson:2400"),
                dispatch=parse_dispatch("jsq"),
                admission_limit=32,
            ),
        },
        check=_sheds,
    )
    return cells


CELLS = _cells()

#: Cells whose workload has a scalar reference generator besides the
#: registry's block-stamping one (the microbenchmarks have only one).
REFERENCE_GENERATOR_CELLS = [
    name
    for name, cell in CELLS.items()
    if name.startswith(("grid-", "fault-"))
    and cell.workload in REFERENCE_FACTORIES
]


def _float(h, value) -> None:
    h.update(struct.pack("<d", value))


def _text(h, value) -> None:
    data = value.encode()
    h.update(struct.pack("<Q", len(data)))
    h.update(data)


def run_digest(result, collector) -> str:
    """sha256 over everything one run makes observable."""
    h = hashlib.sha256()
    _text(h, events_to_jsonl(collector.events, dropped=collector.dropped))
    _float(h, result.wall_cycles)
    h.update(struct.pack("<q", result.requests_shed))
    _text(h, json.dumps(result.sampler_stats.as_dict(), sort_keys=True))
    h.update(result.timeline_cycles.tobytes())
    h.update(result.busy_cycles_per_core.tobytes())
    store = result.latency
    if store is None:
        _text(h, "no latency store")
    else:
        _text(
            h,
            repr([
                (r.request_id, r.kind, r.tenant, r.arrival_cycle,
                 r.start_cycle, r.completion_cycle)
                for r in store.records
            ]),
        )
        h.update(struct.pack("<q", store.shed))
        _text(h, json.dumps(store.summary(), sort_keys=True))
    h.update(struct.pack("<q", len(result.traces)))
    for trace in result.traces:
        _text(h, repr(trace.spec.request_id))
        _float(h, trace.arrival_cycle)
        _float(h, trace.completion_cycle)
        _text(h, repr(trace.syscall_events))
        for field in TRACE_FIELDS:
            array = getattr(trace, field)
            _text(h, array.dtype.str)
            h.update(struct.pack("<Q", array.size))
            h.update(array.tobytes())
    return h.hexdigest()


def cell_digest(name: str, reference_generators: bool = False) -> str:
    """Run one cell, check its scenario, and digest its output."""
    cell = CELLS[name]
    if reference_generators:
        workload = cell.build_reference_workload()
    else:
        workload = cell.build_workload()
    result, collector = cell.run(workload)
    if cell.check is not None:
        cell.check(result)
    return run_digest(result, collector)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_exactly_the_grid(golden):
    assert sorted(golden) == sorted(CELLS)
    assert len(CELLS) == 55


@pytest.mark.parametrize("name", list(CELLS))
def test_cell(name, golden):
    assert cell_digest(name) == golden[name], (
        f"{name}: engine output diverged from the golden digest"
    )


@pytest.mark.parametrize("name", REFERENCE_GENERATOR_CELLS)
def test_reference_generators(name, golden):
    assert cell_digest(name, reference_generators=True) == golden[name], (
        f"{name}: the reference generators drove the engine off the "
        "golden digest"
    )


if __name__ == "__main__":
    digests = {name: cell_digest(name) for name in CELLS}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(CELLS)} digests to {os.path.normpath(GOLDEN_PATH)}")
