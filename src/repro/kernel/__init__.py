"""Discrete-event operating-system simulator.

This package substitutes the paper's instrumented Linux 2.6.18 kernel: it
schedules request tasks over the simulated multicore, generates the
OS-visible event stream (context switches, system-call entries, APIC-style
interrupts), runs the paper's counter-sampling techniques at those events,
tracks request contexts across tier hand-offs, and serializes per-request
counter timelines.
"""

from repro.kernel.contention import ContentionEasingScheduler
from repro.kernel.sampling import SamplerStats, SamplingMode, SamplingPolicy
from repro.kernel.scheduler import RoundRobinScheduler, SchedulerPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig, SimResult, run_workload
from repro.kernel.task import Task, TaskState
from repro.kernel.tracker import RequestTrace, RequestTracker

__all__ = [
    "ContentionEasingScheduler",
    "RequestTrace",
    "RequestTracker",
    "RoundRobinScheduler",
    "SamplerStats",
    "SamplingMode",
    "SamplingPolicy",
    "SchedulerPolicy",
    "ServerSimulator",
    "SimConfig",
    "SimResult",
    "Task",
    "TaskState",
    "run_workload",
]
