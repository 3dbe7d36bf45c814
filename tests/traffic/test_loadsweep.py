"""Open-loop integration tests: simulator + traffic layer end to end."""

import re

import numpy as np
import pytest

from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.traffic import (
    ClosedLoop,
    PoissonArrivals,
    RoundRobinDispatch,
    TraceReplay,
    TrafficConfig,
    ZipfArrivals,
    parse_dispatch,
    save_schedule,
)
from repro.workloads.registry import make_workload


def open_run(seed=0, rate=4000.0, n=60, dispatch="rr", limit=None, app="tpcc"):
    config = SimConfig(
        num_requests=n,
        concurrency=32,
        seed=seed,
        traffic=TrafficConfig(
            arrivals=PoissonArrivals(rate),
            dispatch=parse_dispatch(dispatch),
            admission_limit=limit,
        ),
    )
    return ServerSimulator(make_workload(app), config).run()


class TestClosedLoopEquivalence:
    """Explicit closed-loop traffic is byte-identical to no traffic at all."""

    def test_traces_match_exactly(self):
        base = SimConfig(num_requests=20, concurrency=4, seed=7)
        explicit = SimConfig(
            num_requests=20,
            concurrency=4,
            seed=7,
            traffic=TrafficConfig(
                arrivals=ClosedLoop(), dispatch=RoundRobinDispatch()
            ),
        )
        a = ServerSimulator(make_workload("tpcc"), base).run()
        b = ServerSimulator(make_workload("tpcc"), explicit).run()
        assert a.wall_cycles == b.wall_cycles
        assert [
            (t.spec.request_id, t.arrival_cycle, t.completion_cycle)
            for t in a.traces
        ] == [
            (t.spec.request_id, t.arrival_cycle, t.completion_cycle)
            for t in b.traces
        ]
        assert np.array_equal(a.request_cpis(), b.request_cpis())
        # The explicit config measures latency; the legacy one doesn't.
        assert a.latency is None
        assert b.latency is not None
        assert b.latency.completed == 20


class TestDispatchPolicies:
    def test_deterministic_per_policy(self):
        for policy in ("rr", "random", "jsq", "low", "classaware"):
            a = open_run(seed=11, dispatch=policy, n=40)
            b = open_run(seed=11, dispatch=policy, n=40)
            assert a.latency.summary() == b.latency.summary(), policy

    def test_policies_actually_differ(self):
        summaries = {
            policy: open_run(seed=11, dispatch=policy, n=40).latency.summary()
            for policy in ("rr", "random", "jsq")
        }
        assert (
            summaries["rr"] != summaries["random"]
            or summaries["rr"] != summaries["jsq"]
        )

    def test_metamorphic_jsq_tail_beats_random_at_high_load(self):
        """Queue-aware placement can't be worse than blind placement in
        expectation; compare seed-averaged p99 well past saturation."""
        seeds = (0, 2, 3)

        def mean_p99(policy):
            return np.mean(
                [
                    open_run(
                        seed=s, rate=6000.0, n=100, dispatch=policy
                    ).latency.summary()["latency_us"]["p99"]
                    for s in seeds
                ]
            )

        assert mean_p99("jsq") <= mean_p99("random")


class TestBackpressure:
    def test_admission_limit_sheds_under_overload(self):
        run = open_run(seed=1, rate=20000.0, n=60, limit=8)
        assert run.requests_shed > 0
        assert run.latency.shed == run.requests_shed
        assert run.latency.completed + run.requests_shed == 60
        # Every completed request still produced a full trace.
        assert len(run.traces) == run.latency.completed

    def test_no_shedding_under_light_load(self):
        run = open_run(seed=1, rate=300.0, n=30, limit=8)
        assert run.requests_shed == 0
        assert run.latency.completed == 30

    def test_shed_events_are_observable(self):
        from repro.obs.trace import TraceCollector

        collector = TraceCollector(capacity=100_000)
        config = SimConfig(
            num_requests=60,
            concurrency=32,
            seed=1,
            collector=collector,
            traffic=TrafficConfig(
                arrivals=PoissonArrivals(20000.0),
                dispatch=RoundRobinDispatch(),
                admission_limit=8,
            ),
        )
        result = ServerSimulator(make_workload("tpcc"), config).run()
        shed_events = [e for e in collector.events if e.kind == "request_shed"]
        assert len(shed_events) == result.requests_shed > 0


class TestTenantsAndReplay:
    def test_zipf_tenants_flow_into_latency_rows(self):
        config = SimConfig(
            num_requests=50,
            concurrency=16,
            seed=5,
            traffic=TrafficConfig(arrivals=ZipfArrivals(3000.0, 1.2, 4)),
        )
        result = ServerSimulator(make_workload("tpcc"), config).run()
        rows = result.latency.rows_by_tenant()
        assert rows
        assert sum(r["requests"] for r in rows) == 50
        assert all(0 <= r["tenant"] < 4 for r in rows)

    def test_replay_reproduces_recorded_arrivals(self, tmp_path):
        path = str(tmp_path / "arrivals.jsonl")
        save_schedule([(50.0 * (i + 1), None) for i in range(20)], path)
        config = SimConfig(
            num_requests=20,
            concurrency=16,
            seed=9,
            traffic=TrafficConfig(arrivals=TraceReplay(path)),
        )
        result = ServerSimulator(make_workload("tpcc"), config).run()
        arrivals = sorted(t.arrival_cycle for t in result.traces)
        expected = [50.0 * (i + 1) * 3e3 for i in range(20)]
        assert arrivals == pytest.approx(expected)


class TestLoadsweepExperiment:
    def test_rows_cover_the_grid_and_jobs_do_not_matter(self):
        from repro.experiments.loadsweep import OFFERED_LOADS, POLICIES, run

        serial = run(scale=0.2, jobs=1)
        parallel = run(scale=0.2, jobs=4)
        assert serial.rows == parallel.rows
        assert serial.render() == parallel.render()
        assert len(serial.rows) == len(OFFERED_LOADS) * len(POLICIES)
        assert [r["offered_rps"] for r in serial.rows[:: len(POLICIES)]] == [
            int(rate) for rate in OFFERED_LOADS
        ]

    def test_cli_report_is_identical_under_jobs_1_and_4(self, tmp_path, capsys):
        """``repro-experiments loadsweep --scale 0.25 --out`` writes the
        same report under ``--jobs 1`` and ``--jobs 4`` once the
        ``[N.Ns]`` timing lines are stripped (CI runs this by node id)."""
        from repro.experiments.runner import main

        stripped = []
        for jobs in ("1", "4"):
            out = tmp_path / f"loadsweep-j{jobs}.md"
            argv = ["loadsweep", "--scale", "0.25", "--jobs", jobs]
            assert main(argv + ["--out", str(out)]) == 0
            stripped.append([
                line for line in out.read_text().splitlines()
                if not re.fullmatch(r"\[[0-9.]+s\]", line)
            ])
        capsys.readouterr()
        assert stripped[0] and stripped[0] == stripped[1]

    def test_tail_latency_grows_with_offered_load(self):
        from repro.experiments.loadsweep import run

        rows = [r for r in run(scale=0.2).rows if r["dispatch"] == "rr"]
        assert rows[-1]["p99_us"] > 2.0 * rows[0]["p99_us"]
