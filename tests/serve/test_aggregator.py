"""Fleet aggregation: merge math, determinism, loud validation."""

from __future__ import annotations

import json

import pytest

from repro.serve.aggregator import (
    FLEET_REPORT_FORMAT,
    WORKER_REPORT_FORMAT,
    WORKER_REPORT_VERSION,
    FleetReport,
    load_worker_report,
    merge_worker_reports,
    validate_worker_report,
)


def record(request_id, *, kind="query", flagged=False, injected=None,
           committed=None, correct=None):
    """One decision record in the pipeline's canonical shape."""
    return {
        "request_id": request_id,
        "kind": kind,
        "flagged": flagged,
        "injected_fault": injected,
        "time_to_detect_instructions": 500.0 if flagged else None,
        "committed_label": committed,
        "label_correct": correct,
        "commit_instructions": 300.0 if committed else None,
    }


def worker_report(shard, instances):
    return {
        "format": WORKER_REPORT_FORMAT,
        "version": WORKER_REPORT_VERSION,
        "shard": shard,
        "instances": instances,
    }


def instance_view(records, *, workload="tpcc", seed=0, events=100,
                  periods=50, windows=10, class_errors=None):
    return {
        "workload": workload,
        "seed": seed,
        "events_seen": events,
        "periods": periods,
        "windows": windows,
        "last_seq": events - 1,
        "records": records,
        "class_errors": class_errors or {},
    }


def two_worker_fixture():
    """Workers w0/w1 sharing instances 0 and 1."""
    w0 = worker_report("w0", {
        "0": instance_view(
            [record(0), record(2, flagged=True, injected="lock_stall")],
            class_errors={"query": {"n": 2, "abs_sum": 1.0, "sq_sum": 1.0,
                                    "weight": 2.0}},
        ),
        "1": instance_view([record(1, committed="query", correct=True)],
                           seed=1000),
    })
    w1 = worker_report("w1", {
        "0": instance_view([record(1), record(3, flagged=True)]),
        "1": instance_view(
            [record(0, committed="query", correct=False)],
            seed=1000,
            class_errors={"query": {"n": 1, "abs_sum": 0.5, "sq_sum": 0.25,
                                    "weight": 1.0}},
        ),
    })
    return [w0, w1]


class TestValidation:
    def test_foreign_document_rejected(self):
        with pytest.raises(ValueError, match="not a repro-serve-worker-report document"):
            validate_worker_report({"format": "something-else"})

    def test_version_skew_rejected(self):
        document = worker_report("w0", {})
        document["version"] = 99
        with pytest.raises(ValueError, match="version 99"):
            validate_worker_report(document)

    def test_missing_shard_rejected(self):
        document = worker_report("w0", {})
        del document["shard"]
        with pytest.raises(ValueError, match="missing shard"):
            validate_worker_report(document)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda view: view.pop("events_seen"),
             "instance 0: events_seen missing or not a count"),
            (lambda view: view.update(workload=None),
             "instance 0: workload missing or not a string"),
            (lambda view: view.update(records={}),
             "instance 0: records missing or not a list"),
            (lambda view: view["records"][1].pop("flagged"),
             "instance 0: records[1]: flagged missing or not a boolean"),
            (lambda view: view["records"][0].update(request_id=[]),
             "instance 0: records[0]: request_id missing or not an integer"),
            (lambda view: view["records"][0].update(
                time_to_detect_instructions="x"),
             "records[0]: time_to_detect_instructions missing or not null or "
             "a number"),
            (lambda view: view["class_errors"]["query"].pop("weight"),
             "instance 0: class_errors['query']: weight missing"),
        ],
        ids=["events_seen", "workload", "records", "flagged", "request_id",
             "time_to_detect", "class_weight"],
    )
    def test_instance_fields_the_merge_reads_are_named(
        self, tmp_path, damage, message
    ):
        document = two_worker_fixture()[0]
        damage(document["instances"]["0"])
        path = tmp_path / "report-w0.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError) as excinfo:
            merge_worker_reports([load_worker_report(str(path))])
        assert str(excinfo.value).startswith(f"{path}: ")
        assert message in str(excinfo.value)

    def test_load_malformed_file_names_path(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{truncated")
        with pytest.raises(ValueError, match="report.json.*malformed"):
            load_worker_report(str(path))

    def test_load_round_trips(self, tmp_path):
        path = tmp_path / "report.json"
        document = worker_report("w0", {})
        path.write_text(json.dumps(document))
        assert load_worker_report(str(path)) == document


class TestMerge:
    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="no worker reports"):
            merge_worker_reports([])

    def test_duplicate_shard_rejected(self):
        document = worker_report("w0", {})
        with pytest.raises(ValueError, match="duplicate worker report"):
            merge_worker_reports([document, dict(document)])

    def test_recall_undefined_without_injections(self):
        fleet = merge_worker_reports([worker_report("w0", {
            "0": instance_view([record(0), record(1, flagged=True)]),
        })])
        assert fleet.summary["injected"] == 0
        assert fleet.summary["recall"] is None
        assert '"recall":null' in fleet.to_json()
        assert "precision=0.000  recall=n/a  " in fleet.render()

    def test_precision_undefined_without_flags(self):
        fleet = merge_worker_reports([worker_report("w0", {
            "0": instance_view([record(0), record(1, injected="slowdown")]),
        })])
        assert fleet.summary["flagged"] == 0
        assert fleet.summary["precision"] is None
        assert '"precision":null' in fleet.to_json()
        assert "precision=n/a  recall=0.000  " in fleet.render()

    def test_summary_counts(self):
        fleet = merge_worker_reports(two_worker_fixture())
        s = fleet.summary
        assert s["workers"] == 2
        assert s["instances"] == 2
        assert s["population"] == 6
        assert s["injected"] == 1
        assert s["flagged"] == 2
        assert s["precision"] == 0.5  # 1 true positive of 2 flagged
        assert s["recall"] == 1.0
        assert s["committed"] == 2
        assert s["label_accuracy"] == 0.5
        assert s["events"] == 400
        assert s["periods"] == 200
        assert s["windows"] == 40

    def test_class_error_sums(self):
        fleet = merge_worker_reports(two_worker_fixture())
        (row,) = fleet.per_class
        assert row["class"] == "query"
        assert row["prediction_mean_abs_error"] == pytest.approx(1.5 / 3.0)
        assert row["prediction_rms_error"] == pytest.approx(
            (1.25 / 3.0) ** 0.5
        )

    def test_per_instance_rows_sorted_and_merged(self):
        fleet = merge_worker_reports(two_worker_fixture())
        assert [row["instance"] for row in fleet.per_instance] == [0, 1]
        instance0 = fleet.per_instance[0]
        assert instance0["requests"] == 4  # 2 on each worker
        assert instance0["flagged"] == 2
        assert instance0["injected"] == 1

    def test_per_worker_rows(self):
        fleet = merge_worker_reports(two_worker_fixture())
        assert [row["shard"] for row in fleet.per_worker] == ["w0", "w1"]
        assert all(row["instances"] == 2 for row in fleet.per_worker)

    def test_requests_tagged_with_instance_and_shard(self):
        fleet = merge_worker_reports(two_worker_fixture())
        assert all("instance" in r and "shard" in r for r in fleet.requests)

    def test_merge_is_input_order_independent(self):
        documents = two_worker_fixture()
        forward = merge_worker_reports(documents).to_json()
        backward = merge_worker_reports(list(reversed(documents))).to_json()
        assert forward == backward

    def test_to_json_is_canonical(self):
        text = merge_worker_reports(two_worker_fixture()).to_json()
        payload = json.loads(text)
        assert payload["format"] == FLEET_REPORT_FORMAT
        # Canonical: re-encoding with the same convention is a no-op.
        assert text == json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )

    def test_render_mentions_the_headline_numbers(self):
        rendered = merge_worker_reports(two_worker_fixture()).render()
        assert "2 workers" in rendered
        assert "2 instances" in rendered
        assert "per-worker shard view" in rendered
        assert "per-instance fleet view" in rendered

    def test_render_handles_empty_sections(self):
        fleet = merge_worker_reports([worker_report("w0", {})])
        rendered = fleet.render()
        assert "1 workers" in rendered
        assert isinstance(FleetReport().summary, dict)
