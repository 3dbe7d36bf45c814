"""A finished simulation is freed by refcount, not by the cyclic GC.

Each test runs one simulation with the cyclic collector disabled, drops
the simulator and its result, and demands that ``gc.collect()`` then
finds nothing unreachable.  A reference cycle anywhere in the simulator
(for example a helper object pointing back at it) would keep the whole
run — traces, specs, stages, phases — alive until a full collection,
which shows up as peak memory on long sweeps.  Inputs the caller owns
(workload, config, collector) stay referenced throughout, so only
objects the run itself created can be counted.
"""

import gc

import pytest

from repro.kernel.contention import ContentionEasingScheduler
from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.obs.trace import TraceCollector
from repro.traffic import (
    ClassAwareDispatch,
    JoinShortestQueue,
    PoissonArrivals,
    TrafficConfig,
)
from repro.workloads.registry import make_faulted_workload, make_workload


def _unreachable_after_run(workload, config) -> int:
    """Cyclic garbage left by one run, once its simulator and result drop."""
    gc.collect()
    gc.disable()
    try:
        sim = ServerSimulator(workload, config)
        result = sim.run()
        assert result.traces, "the run completed no requests"
        del sim, result
        return gc.collect()
    finally:
        gc.enable()


def _interrupt(workload) -> SamplingPolicy:
    return SamplingPolicy.interrupt(workload.sampling_period_us)


def test_closed_loop_interrupt_sampling_is_freed():
    workload = make_workload("tpcc")
    config = SimConfig(
        sampling=_interrupt(workload), num_requests=40, concurrency=8, seed=1
    )
    assert _unreachable_after_run(workload, config) == 0


def test_open_loop_jsq_shedding_syscall_easing_is_freed():
    """The open-loop benchmark shape: Poisson just above capacity."""
    workload = make_workload("tpcc")
    config = SimConfig(
        sampling=SamplingPolicy.syscall_triggered(8.0, 60.0),
        scheduler=ContentionEasingScheduler(
            high_usage_threshold=0.01, adaptive_threshold=True
        ),
        num_requests=60,
        concurrency=8,
        seed=2,
        traffic=TrafficConfig(
            arrivals=PoissonArrivals(2400.0),
            dispatch=JoinShortestQueue(),
            admission_limit=32,
        ),
    )
    assert _unreachable_after_run(workload, config) == 0


def test_faulted_run_with_trace_collector_is_freed():
    workload = make_faulted_workload(
        "tpcc", "lock_stall:0.1+cache_thrash:0.1+gc_pause:0.05"
    )
    collector = TraceCollector(capacity=None)
    config = SimConfig(
        sampling=_interrupt(workload),
        num_requests=40,
        concurrency=8,
        seed=3,
        collector=collector,
    )
    assert _unreachable_after_run(workload, config) == 0
    assert collector.events, "the collector recorded nothing"


def test_classaware_dispatch_is_freed():
    workload = make_workload("rubis")
    config = SimConfig(
        sampling=_interrupt(workload),
        num_requests=40,
        concurrency=8,
        seed=4,
        traffic=TrafficConfig(dispatch=ClassAwareDispatch()),
    )
    assert _unreachable_after_run(workload, config) == 0


@pytest.mark.parametrize("name", ["mbench_data"])
def test_microbenchmark_is_freed(name):
    workload = make_workload(name)
    config = SimConfig(
        sampling=SamplingPolicy.interrupt(100.0),
        num_requests=4,
        concurrency=4,
        seed=5,
    )
    assert _unreachable_after_run(workload, config) == 0
