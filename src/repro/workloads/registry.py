"""Registry mapping application names to workload generator factories."""

from __future__ import annotations

from repro.faults.schedule import (
    FaultSchedule,
    ScheduledFaultWorkload,
    parse_fault_schedule,
)
from repro.obs.profiling import profiled_stage
from repro.workloads.microbench import MbenchData, MbenchSpin
from repro.workloads.rubis import RubisWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.tpch import TpchWorkload
from repro.workloads.webserver import WebServerWorkload
from repro.workloads.webwork import WeBWorKWorkload

_FACTORIES = {
    "webserver": WebServerWorkload,
    "tpcc": TpccWorkload,
    "tpch": TpchWorkload,
    "rubis": RubisWorkload,
    "webwork": WeBWorKWorkload,
    "mbench_spin": MbenchSpin,
    "mbench_data": MbenchData,
}

#: The paper's five server applications, in its presentation order.
SERVER_APPS = ("webserver", "tpcc", "tpch", "rubis", "webwork")


def available_workloads() -> tuple:
    """All registered workload names."""
    return tuple(_FACTORIES)


def _factory(name: str):
    try:
        return _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {sorted(_FACTORIES)}"
        ) from None


def make_workload(name: str):
    """Instantiate a workload generator by name."""
    factory = _factory(name)
    with profiled_stage("generate"):
        return factory()


def parse_workload_faults(
    name: str, fault_spec: str, arrivals=None
) -> FaultSchedule:
    """Parse ``fault_spec`` for workload ``name`` under ``arrivals``.

    Beyond the grammar, every ``%kind=`` target must be a request kind
    the workload draws, and every ``%tenant=`` target a tenant tag the
    arrival process draws (``arrivals`` is a
    :class:`~repro.traffic.arrivals.ArrivalProcess`; ``None`` is the
    closed loop, which tags no tenants).  A clause that fails either
    would never match and inject nothing, silently.
    """
    schedule = parse_fault_schedule(fault_spec)
    kinds = _factory(name).kinds
    for clause in schedule.clauses:
        target = clause.target_kind
        if target is not None and target not in kinds:
            listed = (
                ", ".join(kinds) if len(kinds) <= 20
                else f"{kinds[0]} .. {kinds[-1]}"
            )
            raise ValueError(
                f"fault spec clause {clause.to_spec()!r}: workload {name!r} "
                f"has no kind {target!r} (kinds: {listed})"
            )
    targeted = [c for c in schedule.clauses if c.target_tenant is not None]
    if targeted:
        tags = arrivals.tenant_tags() if arrivals is not None else frozenset()
        for clause in targeted:
            if clause.target_tenant not in tags:
                process = "closed" if arrivals is None else arrivals.kind
                drawn = f"tenants {sorted(tags)}" if tags else "no tenants"
                raise ValueError(
                    f"fault spec clause {clause.to_spec()!r}: {process!r} "
                    f"arrivals tag {drawn}, so tenant "
                    f"{clause.target_tenant} never arrives"
                )
    return schedule


def make_faulted_workload(
    name: str, fault_spec: str, arrivals=None
) -> ScheduledFaultWorkload:
    """Instantiate a workload with ground-truth fault injection.

    ``fault_spec`` is the composable schedule grammar, checked against
    the workload and the arrival process ``arrivals`` (``None``: the
    closed loop) by :func:`parse_workload_faults`; the legacy
    ``kind:rate`` syntax is a single-clause schedule.
    """
    schedule = parse_workload_faults(name, fault_spec, arrivals)
    return ScheduledFaultWorkload(inner=make_workload(name), schedule=schedule)


class FixedKindWorkload:
    """Wrapper generating only one request kind of an application.

    Used by the anomaly case studies, which need a population of requests
    sharing application-level semantics (e.g. all TPC-H Q20, or all
    WeBWorK renderings of problem 954).  Every request comes from the
    application's ``build`` entry point with the kind fixed.
    """

    def __init__(self, app: str, kind: str):
        self._inner = make_workload(app)
        if not hasattr(self._inner, "build"):
            raise ValueError(
                f"workload {app!r} cannot build requests of a chosen kind"
            )
        if kind not in self._inner.kinds:
            raise ValueError(f"workload {app!r} has no kind {kind!r}")
        self.kind = kind
        self.name = f"{app}:{kind}"
        self.sampling_period_us = self._inner.sampling_period_us
        self.window_instructions = self._inner.window_instructions

    def sample_request(self, rng, request_id):
        return self._inner.build(rng, request_id, self.kind)
