"""Scored detection report built from the streaming pipeline's records.

The online pipeline's deliverable is a :class:`DetectionReport`: per-request
outcomes (committed label, commit earliness, anomaly flag, time-to-detect)
plus a summary scoring the anomaly stage against the injected-fault ground
truth (precision / recall / median time-to-detect in instructions) and the
identification + prediction stages against the known request kinds.

``to_json`` is canonical (sorted keys, no whitespace), so two runs that
made identical decisions serialize byte-identically — the property the
checkpoint/restore tests compare.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.analysis.report import format_table
from repro.jsondoc import canonical
from repro.online.attribution import score_attribution, score_detection


def _median(values: List[float]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class DetectionReport:
    """Everything the streaming run concluded, in JSON-ready form."""

    summary: Dict = field(default_factory=dict)
    per_class: List[Dict] = field(default_factory=list)
    requests: List[Dict] = field(default_factory=list)
    #: Cause-attribution scoring; present only when the pipeline ran with
    #: attribution enabled (keeps pre-attribution report bytes unchanged).
    attribution: Optional[Dict] = None

    def to_json(self) -> str:
        """Canonical serialization (byte-identity comparison surface)."""
        payload = {
            "format": "repro-online-report",
            "version": 1,
            "summary": self.summary,
            "per_class": self.per_class,
            "requests": self.requests,
        }
        if self.attribution is not None:
            payload["attribution"] = self.attribution
        return canonical(payload)

    def render(self) -> str:
        """Human-readable report for the CLI."""
        s = self.summary
        lines = [
            f"online streaming report — workload={s.get('workload')} "
            f"seed={s.get('seed')}",
            f"  requests={s['population']}  periods={s['periods']}  "
            f"windows={s['windows']}",
            f"  anomaly: injected={s['injected']}  flagged={s['flagged']}  "
            f"precision={_share(s['precision'])}  recall={_share(s['recall'])}  "
            f"median_ttd_ins={_fmt(s['median_time_to_detect_instructions'])}",
            f"  identify: committed={s['committed']}/{s['population']}  "
            f"label_accuracy={_fmt(s['label_accuracy'])}  "
            f"median_commit_ins={_fmt(s['median_commit_instructions'])}",
            f"  predict: rms_error={_fmt(s['prediction_rms_error'])}  "
            f"mean_abs_error={_fmt(s['prediction_mean_abs_error'])}",
        ]
        if self.per_class:
            lines.append("")
            lines.append(
                format_table(
                    self.per_class,
                    columns=[
                        "class",
                        "requests",
                        "prediction_rms_error",
                        "prediction_mean_abs_error",
                    ],
                    title="per-class prediction error",
                )
            )
        if self.attribution is not None:
            a = self.attribution
            lines.append("")
            lines.append(
                f"  attribute: detected={a['detected']}  "
                f"correct={a['correct']}  accuracy={_fmt(a['accuracy'])}  "
                f"false_attributions={a['false_attributions']}"
            )
            if a["per_kind"]:
                lines.append(
                    format_table(
                        a["per_kind"],
                        columns=[
                            "kind",
                            "injected",
                            "detected",
                            "correct",
                            "recall",
                            "precision",
                        ],
                        title="per-kind cause attribution",
                    )
                )
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4g}"


def _share(value) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def score_records(
    records: List[Dict],
    key: Callable[[Dict], Hashable],
    class_errors: Dict[str, Dict],
    attribute: bool,
) -> Tuple[Dict, List[Dict], Optional[Dict]]:
    """Score completed records; the scoring a pipeline's report and a
    fleet's merged report share.

    ``key`` names each record for detection scoring (its request id in
    one pipeline; ``(instance, request_id)`` across a fleet, where ids
    restart per instance).  ``class_errors`` maps each prediction class
    to its ``abs_sum``, ``sq_sum`` and ``weight``.  Returns the scored
    summary fields, the per-class rows, and the attribution section
    (``None`` unless ``attribute``).
    """
    flagged = [key(r) for r in records if r["flagged"]]
    injected = [key(r) for r in records if r["injected_fault"] is not None]
    detection = score_detection(flagged, injected, population=len(records))

    true_positive_ttds = [
        float(r["time_to_detect_instructions"])
        for r in records
        if r["flagged"]
        and r["injected_fault"] is not None
        and r["time_to_detect_instructions"] is not None
    ]
    commits = [r for r in records if r["committed_label"] is not None]
    commit_ins = [float(r["commit_instructions"]) for r in commits]
    correct = [r for r in commits if r["label_correct"]]

    # Sum in sorted-label order: a restored pipeline rebuilds its class
    # dict in sorted order, a fleet merges shards in sorted order, and
    # float addition must round identically on every side for the
    # byte-identity contract.
    per_class = []
    total_abs = total_sq = total_weight = 0.0
    for label in sorted(class_errors):
        errors = class_errors[label]
        weight = errors["weight"]
        total_abs += errors["abs_sum"]
        total_sq += errors["sq_sum"]
        total_weight += weight
        per_class.append(
            {
                "class": label,
                "requests": sum(
                    1
                    for r in records
                    if (r["committed_label"] or r["kind"]) == label
                ),
                "prediction_rms_error": (
                    (errors["sq_sum"] / weight) ** 0.5 if weight > 0 else None
                ),
                "prediction_mean_abs_error": (
                    errors["abs_sum"] / weight if weight > 0 else None
                ),
            }
        )

    scores = {
        "population": detection["population"],
        "injected": detection["injected"],
        "flagged": detection["flagged"],
        "precision": detection["precision"],
        "recall": detection["recall"],
        "median_time_to_detect_instructions": _median(true_positive_ttds),
        "committed": len(commits),
        "label_accuracy": len(correct) / len(commits) if commits else None,
        "median_commit_instructions": _median(commit_ins),
        "prediction_rms_error": (
            (total_sq / total_weight) ** 0.5 if total_weight > 0 else None
        ),
        "prediction_mean_abs_error": (
            total_abs / total_weight if total_weight > 0 else None
        ),
    }
    attribution = score_attribution(records) if attribute else None
    return scores, per_class, attribution


def build_report(pipeline) -> DetectionReport:
    """Fold an :class:`~repro.online.pipeline.OnlinePipeline`'s completed
    records into a scored :class:`DetectionReport`."""
    records = pipeline.records
    scores, per_class, attribution = score_records(
        records,
        key=lambda record: record["request_id"],
        class_errors={
            label: asdict(errors)
            for label, errors in pipeline.class_errors.items()
        },
        attribute=pipeline.attributor is not None,
    )
    summary = {
        "workload": pipeline.workload_name,
        "seed": pipeline.seed,
        **scores,
        "events": pipeline.events_seen,
        "periods": pipeline.periods_seen,
        "windows": pipeline.windows_seen,
    }
    return DetectionReport(
        summary=summary,
        per_class=per_class,
        requests=list(records),
        attribution=attribution,
    )
