"""Streaming detection: the online pipeline scored against injected faults.

The paper detects anomalies post-hoc and argues about their causes; the
:mod:`repro.online` subsystem makes the detection *streaming* — incremental
group centroids plus an adaptive P-square quantile threshold over live
per-request sample events.  This experiment validates that detector the
way later work on request-flow anomaly detection does: inject known faults
(lock stalls, cache thrashing, uniform slowdowns) into a TPCC stream at a
known rate and score precision, recall, and median time-to-detect (in
retired instructions) against the ground truth, alongside the online
identification commit earliness and vaEWMA prediction error that share the
same event stream.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.common import scaled
from repro.faults.taxonomy import LEGACY_FAULT_KINDS
from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.obs.trace import TraceCollector
from repro.online.pipeline import (
    SUBSCRIBED_KINDS,
    OnlinePipeline,
    train_identifier,
)
from repro.online.report import build_report
from repro.workloads.registry import make_faulted_workload, make_workload

APP = "tpcc"
FAULT_RATE = 0.2


def stream_run(fault_kind: str, num_requests: int, seed: int, identifier):
    """One live streaming run over a fault-injected workload."""
    workload = make_faulted_workload(APP, f"{fault_kind}:{FAULT_RATE}")
    collector = TraceCollector(capacity=0, kinds=SUBSCRIBED_KINDS)
    pipeline = OnlinePipeline(identifier=identifier)
    collector.subscribe(pipeline.process_event)
    config = SimConfig(
        sampling=SamplingPolicy.interrupt(workload.sampling_period_us),
        num_requests=num_requests,
        concurrency=8,
        seed=seed,
        collector=collector,
    )
    ServerSimulator(workload, config).run()
    return build_report(pipeline)


def run(scale: float = 1.0, seed: int = 11) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="stream",
        title="streaming fault detection scored against injected ground truth",
    )
    num_requests = scaled(80, scale, minimum=30)
    identifier = train_identifier(
        make_workload(APP),
        num_requests=scaled(24, scale, minimum=12),
        seed=seed + 10_000,
    )
    reports = {}
    for fault_kind in LEGACY_FAULT_KINDS:
        report = stream_run(fault_kind, num_requests, seed, identifier)
        reports[fault_kind] = report
        s = report.summary
        result.rows.append(
            {
                "fault": fault_kind,
                "requests": s["population"],
                "injected": s["injected"],
                "flagged": s["flagged"],
                "precision": s["precision"],
                "recall": s["recall"],
                "median_ttd_ins": s["median_time_to_detect_instructions"],
                "commit_accuracy": s["label_accuracy"],
                "predict_rms": s["prediction_rms_error"],
            }
        )

    # Kinds that injected nothing have no recall.
    recalls = [
        r.summary["recall"] for r in reports.values()
        if r.summary["recall"] is not None
    ]
    mean_recall = f"{sum(recalls) / len(recalls):.2f}" if recalls else "n/a"
    result.notes.append(
        "detector: incremental per-kind centroids + adaptive P-square "
        "quantile threshold over the live event stream (bounded memory, "
        "no post-hoc distance matrix)"
    )
    result.notes.append(
        f"faults injected at rate {FAULT_RATE} into {APP}; mean recall "
        f"across kinds {mean_recall}; time-to-detect "
        "counts retired instructions from request admission to flag"
    )
    result.notes.append(
        "identification commits after a stable signature-match streak; "
        "commit_accuracy is the fraction of committed labels matching the "
        "request's true kind"
    )
    return result
