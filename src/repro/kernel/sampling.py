"""Counter-sampling policies and accounting (Sections 3.1 and 3.2).

Four techniques from the paper:

* **context-switch sampling** is always on — it is required to attribute
  counter events to the right request across switches;
* **interrupt-based sampling** (Section 3.1) fires an APIC-style interrupt
  every ``interrupt_period_us`` — each sample pays the expensive
  user/kernel domain-switch cost;
* **system-call-triggered sampling** (Section 3.2) samples at the kernel
  entrance of a system call if at least ``t_syscall_min_us`` elapsed since
  the last sample, with a backup interrupt at ``t_backup_int_us`` covering
  long syscall-free stretches — in-kernel samples are ~45% cheaper;
* **transition-signal sampling** restricts the syscall triggers to a subset
  of syscall names learned to precede behavior transitions (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import FrozenSet, Optional

from repro.hardware.counters import SamplingContext, SamplingCostModel


class SamplingMode(Enum):
    """The counter-sampling technique in force (Sections 3.1-3.2)."""

    #: Context-switch samples only (the mandatory minimum).
    CONTEXT_SWITCH_ONLY = "context_switch_only"
    INTERRUPT = "interrupt"
    SYSCALL_TRIGGERED = "syscall_triggered"
    TRANSITION_SIGNAL = "transition_signal"


@dataclass(frozen=True)
class SamplingPolicy:
    """Configuration of the online counter-sampling technique."""

    mode: SamplingMode = SamplingMode.INTERRUPT
    #: Period of interrupt-based sampling (INTERRUPT mode).
    interrupt_period_us: float = 100.0
    #: Minimum elapsed time before a syscall entry triggers a new sample.
    t_syscall_min_us: float = 80.0
    #: Backup interrupt delay covering syscall-free stretches; substantially
    #: larger than t_syscall_min so no interrupts fire when syscalls are
    #: frequent.
    t_backup_int_us: float = 400.0
    #: Syscall names acting as triggers in TRANSITION_SIGNAL mode.
    trigger_syscalls: Optional[FrozenSet[str]] = None

    def __post_init__(self):
        # Each check is written so that NaN fails it: a NaN timing would
        # put NaN deadlines in the simulator's event calendar.
        if self.mode is SamplingMode.INTERRUPT and not self.interrupt_period_us > 0:
            raise ValueError("interrupt_period_us must be positive")
        if self.mode in (SamplingMode.SYSCALL_TRIGGERED, SamplingMode.TRANSITION_SIGNAL):
            if not (self.t_syscall_min_us > 0 and self.t_backup_int_us > 0):
                raise ValueError("syscall-triggered timings must be positive")
            if not self.t_backup_int_us >= self.t_syscall_min_us:
                raise ValueError("t_backup_int_us must be >= t_syscall_min_us")
        if self.mode is SamplingMode.TRANSITION_SIGNAL and not self.trigger_syscalls:
            raise ValueError("TRANSITION_SIGNAL mode needs trigger_syscalls")

    @classmethod
    def interrupt(cls, period_us: float) -> "SamplingPolicy":
        return cls(mode=SamplingMode.INTERRUPT, interrupt_period_us=period_us)

    @classmethod
    def syscall_triggered(
        cls, t_syscall_min_us: float, t_backup_int_us: float
    ) -> "SamplingPolicy":
        return cls(
            mode=SamplingMode.SYSCALL_TRIGGERED,
            t_syscall_min_us=t_syscall_min_us,
            t_backup_int_us=t_backup_int_us,
        )

    @classmethod
    def transition_signal(
        cls, t_syscall_min_us: float, t_backup_int_us: float, triggers
    ) -> "SamplingPolicy":
        return cls(
            mode=SamplingMode.TRANSITION_SIGNAL,
            t_syscall_min_us=t_syscall_min_us,
            t_backup_int_us=t_backup_int_us,
            trigger_syscalls=frozenset(triggers),
        )

    def wants_syscall_events(self) -> bool:
        return self.mode in (
            SamplingMode.SYSCALL_TRIGGERED,
            SamplingMode.TRANSITION_SIGNAL,
        )

    def accepts_trigger(self, name: str) -> bool:
        """Whether a syscall of this name may trigger a sample."""
        if self.mode is SamplingMode.SYSCALL_TRIGGERED:
            return True
        if self.mode is SamplingMode.TRANSITION_SIGNAL:
            return name in self.trigger_syscalls
        return False

    def trigger_acceptor(self):
        """A ``name -> bool`` callable equivalent to :meth:`accepts_trigger`.

        The policy is frozen, so the mode dispatch can be resolved once
        per run instead of per syscall: the returned callable is a
        constant predicate or a bare frozenset membership test.
        """
        if self.mode is SamplingMode.SYSCALL_TRIGGERED:
            return lambda name: True
        if self.mode is SamplingMode.TRANSITION_SIGNAL:
            return self.trigger_syscalls.__contains__
        return lambda name: False


@dataclass
class SamplerStats:
    """Sample counts and overhead accounting for one simulation run."""

    in_kernel_samples: int = 0
    interrupt_samples: int = 0
    #: Context-switch samples, tallied separately: they are mandatory for
    #: request attribution under every policy, so overhead comparisons
    #: (Figure 5) count only the samples a policy *adds*.
    context_switch_samples: int = 0

    def record(self, context: SamplingContext, mandatory: bool) -> None:
        if mandatory:
            self.context_switch_samples += 1
        elif context is SamplingContext.IN_KERNEL:
            self.in_kernel_samples += 1
        else:
            self.interrupt_samples += 1

    @property
    def total_samples(self) -> int:
        return (
            self.in_kernel_samples
            + self.interrupt_samples
            + self.context_switch_samples
        )

    def as_dict(self) -> dict:
        return {
            "in_kernel_samples": self.in_kernel_samples,
            "interrupt_samples": self.interrupt_samples,
            "context_switch_samples": self.context_switch_samples,
        }

    def register_metrics(self, registry) -> None:
        """Surface the sample tallies as counters in a metrics registry."""
        for name, value in self.as_dict().items():
            registry.counter(name).inc(value)

    def overhead_cycles(self, cost_model: SamplingCostModel) -> float:
        """Policy-added overhead using the measured minimum per-sample cost.

        This mirrors the paper's overhead estimation: count the samples,
        multiply by the measured Mbench-Spin per-sample cost of Table 1.
        """
        in_kernel = cost_model.minimum_cost(SamplingContext.IN_KERNEL).cycles
        interrupt = cost_model.minimum_cost(SamplingContext.INTERRUPT).cycles
        return (
            self.in_kernel_samples * in_kernel
            + self.interrupt_samples * interrupt
        )
