"""Tests for sampling policies and accounting."""

import pytest

from repro.hardware.counters import SamplingContext, SamplingCostModel
from repro.kernel.sampling import SamplerStats, SamplingMode, SamplingPolicy


class TestSamplingPolicy:
    def test_interrupt_factory(self):
        p = SamplingPolicy.interrupt(10.0)
        assert p.mode is SamplingMode.INTERRUPT
        assert p.interrupt_period_us == 10.0

    def test_syscall_factory(self):
        p = SamplingPolicy.syscall_triggered(50.0, 200.0)
        assert p.mode is SamplingMode.SYSCALL_TRIGGERED
        assert p.wants_syscall_events()

    def test_transition_factory(self):
        p = SamplingPolicy.transition_signal(10.0, 50.0, ["writev", "poll"])
        assert p.accepts_trigger("writev")
        assert not p.accepts_trigger("read")

    def test_syscall_mode_accepts_any_name(self):
        p = SamplingPolicy.syscall_triggered(10.0, 50.0)
        assert p.accepts_trigger("anything")

    def test_interrupt_mode_rejects_triggers(self):
        p = SamplingPolicy.interrupt(10.0)
        assert not p.accepts_trigger("writev")
        assert not p.wants_syscall_events()

    def test_backup_must_exceed_min(self):
        with pytest.raises(ValueError):
            SamplingPolicy.syscall_triggered(100.0, 50.0)

    def test_transition_requires_triggers(self):
        with pytest.raises(ValueError):
            SamplingPolicy(mode=SamplingMode.TRANSITION_SIGNAL)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            SamplingPolicy.interrupt(0.0)

    def test_context_switch_only(self):
        p = SamplingPolicy(mode=SamplingMode.CONTEXT_SWITCH_ONLY)
        assert not p.wants_syscall_events()
        assert not p.accepts_trigger("read")


NAN = float("nan")


class TestNanTimingsRefused:
    """NaN passes a ``<= 0`` test; every timing check must fail it."""

    def test_interrupt_period(self):
        with pytest.raises(ValueError, match="interrupt_period_us must be positive"):
            SamplingPolicy.interrupt(NAN)

    @pytest.mark.parametrize("t_min, t_backup", [(NAN, 60.0), (8.0, NAN), (NAN, NAN)])
    def test_syscall_timings(self, t_min, t_backup):
        with pytest.raises(ValueError, match="syscall-triggered timings must be positive"):
            SamplingPolicy.syscall_triggered(t_min, t_backup)
        with pytest.raises(ValueError, match="syscall-triggered timings must be positive"):
            SamplingPolicy.transition_signal(t_min, t_backup, {"read"})

    @pytest.mark.parametrize("spec", ["interrupt:nan", "syscall:nan,60", "syscall:8,nan"])
    def test_simulate_exits_2_before_simulating(self, spec, monkeypatch, capsys):
        from repro import cli

        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(cli.ServerSimulator, "run", refuse)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["tpcc", "--requests", "5", "--sampling", spec])
        assert excinfo.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_sweep_spec_refused(self):
        from repro.sweep.spec import SweepSpec

        with pytest.raises(ValueError, match="interrupt_period_us must be positive"):
            SweepSpec(
                name="nan", workloads=("tpcc",), sampling=("interrupt:nan",),
                seeds=(0,), requests=5,
            )


class TestSamplerStats:
    def test_record_by_context(self):
        stats = SamplerStats()
        stats.record(SamplingContext.IN_KERNEL, mandatory=False)
        stats.record(SamplingContext.INTERRUPT, mandatory=False)
        stats.record(SamplingContext.IN_KERNEL, mandatory=True)
        assert stats.in_kernel_samples == 1
        assert stats.interrupt_samples == 1
        assert stats.context_switch_samples == 1
        assert stats.total_samples == 3

    def test_overhead_uses_minimum_costs(self):
        stats = SamplerStats(in_kernel_samples=10, interrupt_samples=5)
        model = SamplingCostModel()
        expected = 10 * 1270 + 5 * 2276
        assert stats.overhead_cycles(model) == pytest.approx(expected)

    def test_mandatory_samples_excluded_from_overhead(self):
        stats = SamplerStats(context_switch_samples=100)
        assert stats.overhead_cycles(SamplingCostModel()) == 0.0


def construct(sampling):
    """A simulator over ``sampling``; constructing it runs nothing."""
    from repro.kernel.simulator import ServerSimulator, SimConfig
    from repro.workloads.registry import make_workload

    config = SimConfig(sampling=sampling, num_requests=5, seed=1)
    return ServerSimulator(make_workload("tpcc"), config)


class TestTimingsOutlastTheirSample:
    """An interrupt sample injects 2,276 + 112 x footprint cycles under
    the default cost model: 2,388 at full pollution, 0.796 us at 3 GHz.
    A period or backup interval no longer than that fires inside the
    stall its previous sample injected, so a run never ends; the
    simulator refuses it at construction, naming the field and the
    bound.  Nothing here runs a simulation."""

    @pytest.mark.parametrize("period_us", [0.1, 0.79])
    def test_interrupt_period_is_refused(self, period_us):
        with pytest.raises(ValueError) as excinfo:
            construct(SamplingPolicy.interrupt(period_us))
        message = str(excinfo.value)
        assert "interrupt_period_us" in message
        assert f"got {period_us!r}" in message
        assert "0.796 us" in message

    def test_backup_interval_is_refused(self):
        with pytest.raises(ValueError, match=r"t_backup_int_us .*0\.796 us; got 0\.1"):
            construct(SamplingPolicy.syscall_triggered(0.01, 0.1))

    def test_period_past_the_cost_is_accepted(self):
        construct(SamplingPolicy.interrupt(0.8))

    def test_bound_follows_the_runs_cost_model(self):
        from repro.kernel.simulator import ServerSimulator, SimConfig
        from repro.workloads.registry import make_workload

        cheap = SamplingCostModel(interrupt_cycles=100.0)
        config = SimConfig(
            sampling=SamplingPolicy.interrupt(0.1),
            cost_model=cheap,
            num_requests=5,
            seed=1,
        )
        ServerSimulator(make_workload("tpcc"), config)

    @pytest.mark.parametrize(
        "spec", ["interrupt:0.1", "interrupt:0.75", "syscall:0.01,0.1"]
    )
    def test_simulate_exits_2_before_simulating(self, spec, monkeypatch, capsys):
        from repro import cli

        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(cli.ServerSimulator, "run", refuse)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["tpcc", "--requests", "5", "--sampling", spec])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro-simulate: error:" in err
        assert "0.796 us" in err

    def test_online_live_mode_exits_2_before_simulating(
        self, monkeypatch, capsys
    ):
        from repro.online import cli
        from repro.workloads.tpcc import TpccWorkload

        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(cli.ServerSimulator, "run", refuse)
        monkeypatch.setattr(TpccWorkload, "sampling_period_us", 0.5)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["tpcc", "--requests", "5", "--train", "0"])
        assert excinfo.value.code == 2
        assert "interrupt_period_us" in capsys.readouterr().err
