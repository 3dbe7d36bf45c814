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
