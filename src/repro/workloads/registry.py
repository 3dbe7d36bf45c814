"""Registry mapping application names to workload generator factories."""

from __future__ import annotations

from repro.faults.schedule import ScheduledFaultWorkload, parse_fault_schedule
from repro.obs.profiling import profiled_stage
from repro.workloads.genfast import FAST_FACTORIES
from repro.workloads.microbench import MbenchData, MbenchSpin

#: The five server workloads generate through their block-stamping
#: generators (:mod:`repro.workloads.genfast`).
_FACTORIES = {
    **FAST_FACTORIES,
    "mbench_spin": MbenchSpin,
    "mbench_data": MbenchData,
}

#: The paper's five server applications, in its presentation order.
SERVER_APPS = ("webserver", "tpcc", "tpch", "rubis", "webwork")


def available_workloads() -> tuple:
    """All registered workload names."""
    return tuple(_FACTORIES)


def make_workload(name: str):
    """Instantiate a workload generator by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {sorted(_FACTORIES)}"
        ) from None
    with profiled_stage("generate"):
        return factory()


def make_faulted_workload(name: str, fault_spec: str) -> ScheduledFaultWorkload:
    """Instantiate a workload with ground-truth fault injection.

    ``fault_spec`` is the composable schedule grammar; the legacy
    ``kind:rate`` syntax is a single-clause schedule and produces a
    byte-identical request stream to the original single-kind wrapper.
    """
    schedule = parse_fault_schedule(fault_spec)
    return ScheduledFaultWorkload(inner=make_workload(name), schedule=schedule)


class FixedKindWorkload:
    """Wrapper generating only one request kind of an application.

    Used by the anomaly case studies, which need a population of requests
    sharing application-level semantics (e.g. all TPC-H Q20, or all
    WeBWorK renderings of problem 954).
    """

    def __init__(self, app: str, kind: str):
        self._inner = make_workload(app)
        if kind not in self._inner.kinds:
            raise ValueError(f"workload {app!r} has no kind {kind!r}")
        self.kind = kind
        self.name = f"{app}:{kind}"
        self.sampling_period_us = self._inner.sampling_period_us
        self.window_instructions = self._inner.window_instructions

    def sample_request(self, rng, request_id):
        inner = self._inner
        if hasattr(inner, "build_query"):
            return inner.build_query(rng, request_id, self.kind)
        if hasattr(inner, "build_problem"):
            problem_id = int(self.kind.rsplit("_", 1)[1])
            return inner.build_problem(rng, request_id, problem_id)
        if hasattr(inner, "build_transaction"):
            return inner.build_transaction(rng, request_id, self.kind)
        # Rejection sampling for generators without a kind-specific builder.
        for _ in range(10_000):
            spec = inner.sample_request(rng, request_id)
            if spec.kind == self.kind:
                return spec
        raise RuntimeError(f"could not draw kind {self.kind!r} from {inner.name}")
