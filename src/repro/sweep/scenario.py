"""Single-scenario execution: one grid point, end to end.

:func:`run_scenario` is the worker function the sweep executor runs
(in-process or in a forked shard); it is also the reference semantics the
differential suite holds the orchestrator to — the same scenario built by
hand from :class:`~repro.kernel.simulator.ServerSimulator` and
:class:`~repro.online.pipeline.OnlinePipeline` must serialize to the very
same bytes.  The orchestration layer above therefore adds zero observer
effect: sharding, retries, caching, and kill/resume can only change *when*
a scenario runs, never *what* it produces.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.hardware.platform import (
    WOODCREST,
    cluster_machine,
    serial_machine,
)
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceCollector
from repro.online.pipeline import (
    SUBSCRIBED_KINDS,
    OnlineConfig,
    OnlinePipeline,
    train_identifier,
)
from repro.online.report import build_report
from repro.sweep.spec import (
    NO_FAULTS,
    Scenario,
    canonical_json,
    parse_placement,
)
from repro.workloads.registry import make_faulted_workload, make_workload

__all__ = [
    "RESULT_FORMAT",
    "RESULT_VERSION",
    "build_machine",
    "build_sim_config",
    "build_traffic",
    "result_to_json",
    "run_scenario",
    "validate_result_document",
]

RESULT_FORMAT = "repro-sweep-result"
RESULT_VERSION = 1

#: Training runs must not share a seed with the swept run (no training-set
#: leakage); same offset convention as the repro-online CLI.
TRAIN_SEED_OFFSET = 10_000


def build_machine(scenario: Scenario):
    """The machine (and tier placement) a scenario's placement spec names."""
    machines, tier_placement = parse_placement(scenario.placement)
    if tier_placement is not None:
        return cluster_machine(num_machines=machines), tier_placement
    return (WOODCREST if scenario.cores == 4 else serial_machine()), None


def build_traffic(scenario: Scenario):
    """The :class:`TrafficConfig` a scenario's traffic axes describe.

    Returns ``None`` at the default axes (closed loop, round-robin) so the
    simulator takes the legacy path and the golden corpus stays
    byte-identical.
    """
    if scenario._default_traffic:
        return None
    from repro.traffic import TrafficConfig, parse_arrivals, parse_dispatch

    return TrafficConfig(
        arrivals=parse_arrivals(scenario.arrivals),
        dispatch=parse_dispatch(scenario.dispatch),
    )


def build_sim_config(scenario: Scenario, collector=None) -> SimConfig:
    """The :class:`SimConfig` a scenario describes (pure, no side effects)."""
    from repro.cli import parse_sampling

    machine, tier_placement = build_machine(scenario)
    return SimConfig(
        machine=machine,
        sampling=parse_sampling(scenario.sampling),
        num_requests=scenario.requests,
        concurrency=min(scenario.concurrency, scenario.requests),
        seed=scenario.seed,
        tier_placement=tier_placement,
        collector=collector,
        traffic=build_traffic(scenario),
    )


def _build_pipeline(scenario: Scenario) -> OnlinePipeline:
    identifier = None
    if scenario.train > 0:
        # The signature bank must come from unperturbed traffic.
        identifier = train_identifier(
            make_workload(scenario.workload),
            num_requests=scenario.train,
            seed=scenario.seed + TRAIN_SEED_OFFSET,
        )
    if scenario.attribute:
        return OnlinePipeline(
            identifier=identifier, config=OnlineConfig(attribute=True)
        )
    return OnlinePipeline(identifier=identifier)


def run_scenario(scenario: Scenario) -> Dict:
    """Execute one scenario and return its canonical result document.

    The document is a pure function of the scenario description: workload
    generation, simulation, metrics registration, and (optionally) the
    streaming online pipeline all run from the scenario's seed with no
    wall-clock or filesystem dependence.
    """
    traffic = build_traffic(scenario)
    workload = (
        make_faulted_workload(
            scenario.workload, scenario.faults, traffic and traffic.arrivals
        )
        if scenario.faults != NO_FAULTS
        else make_workload(scenario.workload)
    )
    pipeline: Optional[OnlinePipeline] = None
    collector = None
    if scenario.online:
        pipeline = _build_pipeline(scenario)
        collector = TraceCollector(capacity=0, kinds=SUBSCRIBED_KINDS)
        collector.subscribe(pipeline.process_event)
    config = build_sim_config(scenario, collector=collector)
    result = ServerSimulator(workload, config).run()

    registry = MetricsRegistry()
    result.register_metrics(registry)

    cpis = result.request_cpis()
    busy = float(result.busy_cycles_per_core.sum())
    overhead = result.sampler_stats.overhead_cycles(config.cost_model)
    injected = sum(
        1
        for trace in result.traces
        if trace.spec.metadata.get("injected_fault") is not None
    )
    online = None
    if pipeline is not None:
        report = build_report(pipeline)
        online = {
            "summary": report.summary,
            "per_class": report.per_class,
            "requests": report.requests,
        }
        # Attribution scoring appears only when the axis is enabled so
        # detection-only result documents keep their pinned bytes.
        if report.attribution is not None:
            online["attribution"] = report.attribution
    document = {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "scenario": scenario.to_dict(),
        "scenario_id": scenario.scenario_id,
        "summary": {
            "requests": len(result.traces),
            "wall_cycles": float(result.wall_cycles),
            "busy_cycles": busy,
            "total_samples": int(result.sampler_stats.total_samples),
            "overhead_cycles": float(overhead),
            "overhead_fraction": float(overhead) / busy if busy > 0 else 0.0,
            "mean_cpi": float(cpis.mean()),
            "p90_cpi": float(np.percentile(cpis, 90)),
            "injected": injected,
        },
        "metrics": registry.snapshot(),
        "online": online,
    }
    # Latency appears only for open-loop scenarios, leaving the bytes of
    # every closed-loop (golden-pinned) result document untouched.
    if result.latency is not None:
        document["latency"] = result.latency.summary()
        document["summary"]["requests_shed"] = int(result.requests_shed)
    return document


def result_to_json(document: Dict) -> str:
    """Canonical serialization of a scenario result document."""
    return canonical_json(document)


def validate_result_document(document, scenario_id: Optional[str] = None) -> Dict:
    """Loudly check a (cached or persisted) result document's envelope."""
    if not isinstance(document, dict):
        raise ValueError(f"scenario result must be an object, got {document!r}")
    if document.get("format") != RESULT_FORMAT:
        raise ValueError(
            f"not a {RESULT_FORMAT} document: format={document.get('format')!r}"
        )
    if document.get("version") != RESULT_VERSION:
        raise ValueError(
            f"unsupported {RESULT_FORMAT} version {document.get('version')!r} "
            f"(supported: {RESULT_VERSION})"
        )
    if scenario_id is not None and document.get("scenario_id") != scenario_id:
        raise ValueError(
            f"result document is for scenario {document.get('scenario_id')!r}, "
            f"expected {scenario_id!r}"
        )
    return document
