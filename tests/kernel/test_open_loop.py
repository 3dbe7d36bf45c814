"""Tests for open-loop (Poisson) request arrivals."""

import numpy as np
import pytest

from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.traffic import PoissonArrivals, TrafficConfig
from repro.workloads.registry import make_workload


def open_loop_run(rate, num_requests=40, seed=1, app="tpcc"):
    config = SimConfig(
        sampling=SamplingPolicy.interrupt(100.0),
        num_requests=num_requests,
        seed=seed,
        traffic=TrafficConfig(arrivals=PoissonArrivals(rate)),
    )
    return ServerSimulator(make_workload(app), config).run()


class TestOpenLoop:
    def test_all_requests_complete(self):
        run = open_loop_run(400.0)
        assert len(run.traces) == 40

    def test_arrivals_follow_the_rate(self):
        run = open_loop_run(500.0, num_requests=80)
        arrivals = np.sort([t.arrival_cycle for t in run.traces])
        span_s = (arrivals[-1] - arrivals[0]) / 3e9
        measured_rate = (len(arrivals) - 1) / span_s
        assert measured_rate == pytest.approx(500.0, rel=0.35)

    def test_arrivals_independent_of_completions(self):
        """Unlike the closed loop, arrival times never exceed the drawn
        schedule regardless of service backlog."""
        light = open_loop_run(100.0, num_requests=30, seed=3)
        heavy = open_loop_run(2000.0, num_requests=30, seed=3)
        # Same seed -> same workload mix; heavy load compresses arrivals.
        assert max(t.arrival_cycle for t in heavy.traces) < max(
            t.arrival_cycle for t in light.traces
        )

    def test_latency_grows_with_load(self):
        def mean_latency(rate):
            run = open_loop_run(rate, num_requests=60, seed=5)
            return np.mean(
                [t.completion_cycle - t.arrival_cycle for t in run.traces]
            )

        assert mean_latency(2500.0) > mean_latency(100.0)

    def test_queueing_when_overloaded(self):
        """Far beyond capacity, requests visibly queue (latency >> CPU)."""
        run = open_loop_run(8000.0, num_requests=50, seed=7)
        latencies = np.array(
            [(t.completion_cycle - t.arrival_cycle) / 3000.0 for t in run.traces]
        )
        cpu_times = np.array([t.cpu_time_us() for t in run.traces])
        assert latencies.mean() > 2.0 * cpu_times.mean()

    def test_closed_loop_unaffected(self):
        config = SimConfig(
            sampling=SamplingPolicy.interrupt(100.0),
            num_requests=10,
            concurrency=4,
            seed=1,
        )
        run = ServerSimulator(make_workload("tpcc"), config).run()
        # Closed loop keeps only `concurrency` in flight.
        intervals = [(t.arrival_cycle, t.completion_cycle) for t in run.traces]
        for s, e in intervals:
            mid = (s + e) / 2
            in_flight = sum(1 for s2, e2 in intervals if s2 <= mid < e2)
            assert in_flight <= 4

    def test_deterministic(self):
        a = open_loop_run(300.0, seed=9)
        b = open_loop_run(300.0, seed=9)
        assert np.allclose(a.request_cpis(), b.request_cpis())
