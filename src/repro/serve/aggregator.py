"""Fleet-wide aggregation of per-worker detection reports.

Each shard worker reports what *it* decided: per-instance completed
records plus the per-class prediction-error sums.  One worker's view is
a hash-sharded sample of the fleet; the operator question — how much
anomalous traffic is the fleet seeing, which request classes predict
poorly, is one instance unhealthy — needs the merge this module does.

Determinism is part of the contract: workers are merged in sorted shard
order, instances in sorted id order, and the per-class float sums are
accumulated in that fixed order, so the fleet report is byte-identical
across reruns at fixed seeds — and identical whether or not a worker was
killed and failed over mid-run (the differential test's comparison
surface).  Wall-clock service stats (throughput, restarts, sheds) are
deliberately *not* part of the canonical document; the load-test harness
reports them separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.report import format_table
from repro.online.report import _fmt, _share, score_records

#: What each shard worker writes / reports over the control socket.
#: Defined here (not in worker.py) so importing the package does not
#: pre-import the worker module that ``python -m repro.serve.worker``
#: then executes again as ``__main__``.
WORKER_REPORT_FORMAT = "repro-serve-worker-report"
WORKER_REPORT_VERSION = 1

FLEET_REPORT_FORMAT = "repro-serve-fleet-report"
FLEET_REPORT_VERSION = 1


def validate_worker_report(document: dict, where: str = "worker report") -> dict:
    """Loud structural validation of one worker-report document."""
    if not isinstance(document, dict) or document.get("format") != WORKER_REPORT_FORMAT:
        raise ValueError(f"{where}: not a repro serve worker report")
    if document.get("version") != WORKER_REPORT_VERSION:
        raise ValueError(
            f"{where}: unsupported worker-report version "
            f"{document.get('version')!r}"
        )
    if not isinstance(document.get("shard"), str):
        raise ValueError(f"{where}: missing shard name")
    if not isinstance(document.get("instances"), dict):
        raise ValueError(f"{where}: missing instances object")
    return document


def load_worker_report(path: str) -> dict:
    with open(path) as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: malformed worker report: {error}") from None
    return validate_worker_report(document, where=path)


@dataclass
class FleetReport:
    """The merged fleet-wide view (JSON-ready, canonical)."""

    summary: Dict = field(default_factory=dict)
    per_worker: List[Dict] = field(default_factory=list)
    per_instance: List[Dict] = field(default_factory=list)
    per_class: List[Dict] = field(default_factory=list)
    requests: List[Dict] = field(default_factory=list)
    attribution: Optional[Dict] = None

    def to_json(self) -> str:
        """Canonical serialization (the byte-identity surface)."""
        payload = {
            "format": FLEET_REPORT_FORMAT,
            "version": FLEET_REPORT_VERSION,
            "summary": self.summary,
            "per_worker": self.per_worker,
            "per_instance": self.per_instance,
            "per_class": self.per_class,
            "requests": self.requests,
        }
        # Cause-attribution scoring appears only when workers ran with
        # --attribute, keeping detection-only fleet reports byte-stable.
        if self.attribution is not None:
            payload["attribution"] = self.attribution
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def render(self) -> str:
        """ASCII fleet dashboard for the CLI."""
        s = self.summary
        lines = [
            f"fleet report — {s['workers']} workers, "
            f"{s['instances']} instances",
            f"  requests={s['population']}  events={s['events']}  "
            f"periods={s['periods']}  windows={s['windows']}",
            f"  anomaly: injected={s['injected']}  flagged={s['flagged']}  "
            f"precision={_share(s['precision'])}  recall={_share(s['recall'])}  "
            f"median_ttd_ins={_fmt(s['median_time_to_detect_instructions'])}",
            f"  identify: committed={s['committed']}/{s['population']}  "
            f"label_accuracy={_fmt(s['label_accuracy'])}",
            f"  predict: rms_error={_fmt(s['prediction_rms_error'])}  "
            f"mean_abs_error={_fmt(s['prediction_mean_abs_error'])}",
        ]
        if self.per_worker:
            lines.append("")
            lines.append(
                format_table(
                    self.per_worker,
                    columns=["shard", "instances", "requests", "flagged",
                             "events"],
                    title="per-worker shard view",
                )
            )
        if self.per_instance:
            lines.append("")
            lines.append(
                format_table(
                    self.per_instance,
                    columns=["instance", "workload", "seed", "requests",
                             "injected", "flagged"],
                    title="per-instance fleet view",
                )
            )
        if self.per_class:
            lines.append("")
            lines.append(
                format_table(
                    self.per_class,
                    columns=["class", "requests", "prediction_rms_error",
                             "prediction_mean_abs_error"],
                    title="per-class prediction error",
                )
            )
        if self.attribution is not None:
            a = self.attribution
            accuracy = (
                f"{a['accuracy']:.3f}" if a["accuracy"] is not None else "n/a"
            )
            lines.append("")
            lines.append(
                f"  attribute: detected={a['detected']}  "
                f"correct={a['correct']}  accuracy={accuracy}  "
                f"false_attributions={a['false_attributions']}"
            )
            if a["per_kind"]:
                lines.append(
                    format_table(
                        a["per_kind"],
                        columns=["kind", "injected", "detected", "correct",
                                 "recall", "precision"],
                        title="per-kind cause attribution",
                    )
                )
        return "\n".join(lines)


def merge_worker_reports(documents: List[dict]) -> FleetReport:
    """Merge validated worker reports into one :class:`FleetReport`.

    Duplicate shards are an error (a failed-over worker replaces its
    predecessor, never coexists with it in a report set).
    """
    if not documents:
        raise ValueError("no worker reports to merge")
    by_shard: Dict[str, dict] = {}
    for document in documents:
        validate_worker_report(document)
        shard = document["shard"]
        if shard in by_shard:
            raise ValueError(f"duplicate worker report for shard {shard!r}")
        by_shard[shard] = document

    requests: List[Dict] = []
    per_worker: List[Dict] = []
    instance_rows: Dict[int, Dict] = {}
    class_sums: Dict[str, Dict[str, float]] = {}
    events = periods = windows = 0

    for shard in sorted(by_shard):
        document = by_shard[shard]
        shard_requests = 0
        shard_flagged = 0
        shard_events = 0
        instances = document["instances"]
        for instance_key in sorted(instances, key=int):
            instance = int(instance_key)
            view = instances[instance_key]
            shard_events += view["events_seen"]
            events += view["events_seen"]
            periods += view["periods"]
            windows += view["windows"]
            row = instance_rows.get(instance)
            if row is None:
                row = instance_rows[instance] = {
                    "instance": instance,
                    "workload": view["workload"],
                    "seed": view["seed"],
                    "requests": 0,
                    "injected": 0,
                    "flagged": 0,
                }
            for record in view["records"]:
                tagged = dict(record)
                tagged["instance"] = instance
                tagged["shard"] = shard
                requests.append(tagged)
                shard_requests += 1
                row["requests"] += 1
                if record["injected_fault"] is not None:
                    row["injected"] += 1
                if record["flagged"]:
                    row["flagged"] += 1
                    shard_flagged += 1
            # Fixed accumulation order (sorted shard, then sorted
            # instance, then sorted label): float addition must round
            # identically on every rerun for byte-identity.
            for label in sorted(view["class_errors"]):
                sums = view["class_errors"][label]
                accumulator = class_sums.get(label)
                if accumulator is None:
                    accumulator = class_sums[label] = {
                        "n": 0, "abs_sum": 0.0, "sq_sum": 0.0, "weight": 0.0,
                    }
                accumulator["n"] += sums["n"]
                accumulator["abs_sum"] += sums["abs_sum"]
                accumulator["sq_sum"] += sums["sq_sum"]
                accumulator["weight"] += sums["weight"]
        per_worker.append(
            {
                "shard": shard,
                "instances": len(instances),
                "requests": shard_requests,
                "flagged": shard_flagged,
                "events": shard_events,
            }
        )

    # Request ids restart per instance; score on fleet-unique keys.
    scores, per_class, attribution = score_records(
        requests,
        key=lambda record: (record["instance"], record["request_id"]),
        class_errors=class_sums,
        attribute=any("attributed_cause" in record for record in requests),
    )
    summary = {
        "workers": len(by_shard),
        "instances": len(instance_rows),
        **scores,
        "events": events,
        "periods": periods,
        "windows": windows,
    }
    return FleetReport(
        summary=summary,
        per_worker=per_worker,
        per_instance=[
            instance_rows[instance] for instance in sorted(instance_rows)
        ],
        per_class=per_class,
        requests=requests,
        attribution=attribution,
    )
