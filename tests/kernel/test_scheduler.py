"""Tests for the baseline scheduler policy and the scheduler timings."""

import pytest

from repro.kernel.contention import ContentionEasingScheduler
from repro.kernel.scheduler import RoundRobinScheduler, SchedulerPolicy


class TestRoundRobin:
    def test_picks_head(self):
        sched = RoundRobinScheduler()
        assert sched.pick(0, ["t1", "t2"], {0: None}) == 0

    def test_empty_queue_idles(self):
        sched = RoundRobinScheduler()
        assert sched.pick(0, [], {0: None}) is None

    def test_never_preempts(self):
        sched = RoundRobinScheduler()
        assert sched.should_preempt(0, "cur", ["t"], {0: "cur"}) is None

    def test_no_resched_interval(self):
        assert RoundRobinScheduler().resched_interval_us is None

    def test_quantum_default_100ms(self):
        assert RoundRobinScheduler().quantum_us == 100_000.0

    def test_dispatch_counter(self):
        sched = RoundRobinScheduler()
        sched.pick(0, ["t"], {})
        sched.pick(0, [], {})
        assert sched.stats["dispatches"] == 1

    def test_on_sample_is_noop(self):
        SchedulerPolicy().on_sample(None, 1.0, 1.0, 1.0)


NAN = float("nan")
INF = float("inf")


def construct(scheduler):
    """A simulator over ``scheduler``; constructing it runs nothing."""
    from repro.kernel.simulator import ServerSimulator, SimConfig
    from repro.workloads.registry import make_workload

    config = SimConfig(scheduler=scheduler, num_requests=5, seed=1)
    return ServerSimulator(make_workload("tpcc"), config)


class TestTimingsChecked:
    """The simulator converts the scheduler timings to cycles once, at
    construction; a timing no run can use is refused there, naming the
    field.  Nothing here runs a simulation: an unchecked negative quantum
    makes ``run`` loop forever."""

    @pytest.mark.parametrize("quantum_us", [-5.0, 0.0, NAN, INF])
    def test_quantum_must_be_finite_and_positive(self, quantum_us):
        with pytest.raises(ValueError, match="quantum_us"):
            construct(RoundRobinScheduler(quantum_us=quantum_us))

    @pytest.mark.parametrize("quantum_us", [-5.0, NAN])
    def test_an_assigned_quantum_is_checked_too(self, quantum_us):
        sched = RoundRobinScheduler()
        sched.quantum_us = quantum_us
        with pytest.raises(ValueError, match="quantum_us"):
            construct(sched)

    @pytest.mark.parametrize("interval_us", [-1.0, 0.0, NAN, INF])
    def test_resched_interval_must_be_none_or_finite_and_positive(
        self, interval_us
    ):
        for sched in (
            RoundRobinScheduler(resched_interval_us=interval_us),
            ContentionEasingScheduler(resched_interval_us=interval_us),
        ):
            with pytest.raises(ValueError, match="resched_interval_us"):
                construct(sched)


class TestQuantumOutlastsItsSample:
    """Every dispatch injects an in-kernel sample of 1,270 + 104 x
    footprint cycles under the default cost model: 1,374 at full
    pollution, 0.458 us at 3 GHz.  A quantum no longer than that expires
    before its task retires anything, so a run never ends."""

    @pytest.mark.parametrize("quantum_us", [0.1, 0.45])
    def test_refused(self, quantum_us):
        with pytest.raises(ValueError) as excinfo:
            construct(RoundRobinScheduler(quantum_us=quantum_us))
        message = str(excinfo.value)
        assert "quantum_us" in message
        assert f"got {quantum_us!r}" in message
        assert "0.458 us" in message

    def test_quantum_past_the_cost_is_accepted(self):
        construct(RoundRobinScheduler(quantum_us=0.46))


class TestContentionThresholdChecked:
    @pytest.mark.parametrize("threshold", [NAN, INF, -1.0])
    def test_constructor_refuses(self, threshold):
        with pytest.raises(ValueError, match="high_usage_threshold"):
            ContentionEasingScheduler(high_usage_threshold=threshold)

    def test_zero_is_a_threshold(self):
        sched = ContentionEasingScheduler(high_usage_threshold=0.0)
        assert sched.current_threshold() == 0.0

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_simulate_exits_2_before_simulating(
        self, threshold, monkeypatch, capsys
    ):
        from repro import cli

        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(cli.ServerSimulator, "run", refuse)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["tpcc", "--requests", "5", "--scheduler", "contention",
                      "--threshold", threshold])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro-simulate: error:" in err
        assert "high_usage_threshold" in err
