"""Tests for the repro-online CLI (live, replay, and restore modes)."""

import json

import pytest

from repro.online.cli import main


class TestLiveMode:
    def test_faulted_run_produces_scored_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(
            ["tpcc", "--requests", "12", "--seed", "3", "--train", "8",
             "--faults", "lock_stall:0.3", "--report", str(report_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "online streaming report" in out
        document = json.loads(report_path.read_text())
        assert document["format"] == "repro-online-report"
        assert document["summary"]["population"] == 12
        assert len(document["requests"]) == 12
        assert 0.0 <= document["summary"]["precision"] <= 1.0
        assert 0.0 <= document["summary"]["recall"] <= 1.0

    def test_recall_undefined_without_faults(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert main(
            ["tpcc", "--requests", "6", "--seed", "3", "--train", "0",
             "--report", str(report_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "injected=0 " in out and " recall=n/a " in out
        document = json.loads(report_path.read_text())
        assert document["summary"]["recall"] is None

    def test_precision_undefined_when_nothing_flagged(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert main(
            ["webwork", "--requests", "6", "--train", "24", "--seed", "6",
             "--faults", "lock_stall:0.3", "--report", str(report_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "flagged=0 " in out and " precision=n/a " in out
        document = json.loads(report_path.read_text())
        assert document["summary"]["precision"] is None

    def test_train_zero_disables_identification(self, capsys):
        assert main(
            ["tpcc", "--requests", "6", "--seed", "3", "--train", "0"]
        ) == 0
        assert "committed=0/6" in capsys.readouterr().out

    def test_metrics_out(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(
            ["tpcc", "--requests", "6", "--train", "0",
             "--metrics-out", str(path)]
        ) == 0
        document = json.loads(path.read_text())
        assert document["counters"]["online_requests_completed"] == 6

    def test_unknown_workload(self, capsys):
        assert main(["nosuchapp", "--train", "0"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestReplayAndRestore:
    def test_replay_reproduces_live_report(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        live_report = tmp_path / "live.json"
        replay_report = tmp_path / "replay.json"
        ckpt = tmp_path / "ckpt.json"
        argv_live = [
            "tpcc", "--requests", "10", "--seed", "6", "--train", "8",
            "--faults", "cache_thrash:0.3",
            "--events-out", str(events), "--report", str(live_report),
            "--checkpoint", str(ckpt),
        ]
        assert main(argv_live) == 0
        capsys.readouterr()
        # Replay from the recorded stream, resuming from the checkpoint:
        # the cursor skips everything and the report must match exactly.
        assert main(
            ["tpcc", "--events", str(events), "--restore", str(ckpt),
             "--report", str(replay_report)]
        ) == 0
        assert replay_report.read_bytes() == live_report.read_bytes()

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        """The event stream and checkpoint of one live faulted run."""
        directory = tmp_path_factory.mktemp("recorded")
        events, ckpt = directory / "events.jsonl", directory / "ckpt.json"
        assert main(
            ["tpcc", "--requests", "8", "--seed", "6", "--train", "6",
             "--faults", "cache_thrash:0.3", "--events-out", str(events),
             "--checkpoint", str(ckpt)]
        ) == 0
        return events, ckpt

    @pytest.mark.parametrize(
        "flags, fixed",
        [
            (["--quantile", "0.5"], "anomaly_quantile=0.9"),
            (["--window", "50000"], "window_instructions=100000.0"),
            (["--attribute"], "attribute=False"),
            (["--train", "8"], "its signature bank"),
        ],
    )
    def test_restore_refuses_settings_the_checkpoint_fixes(
        self, recorded, flags, fixed, capsys
    ):
        events, ckpt = recorded
        with pytest.raises(SystemExit) as excinfo:
            main(["tpcc", "--events", str(events), "--restore", str(ckpt),
                  *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{flags[0]} does not apply with --restore: the checkpoint " \
            f"fixes {fixed}" in err

    def test_damaged_event_stream_exits_2_naming_line_seq_and_field(
        self, recorded, tmp_path, capsys
    ):
        events, _ = recorded
        lines = events.read_text().splitlines()
        number, record = next(
            (number, json.loads(line))
            for number, line in enumerate(lines, start=1)
            if json.loads(line).get("kind") == "period_sample"
        )
        del record["data"]["instructions"]
        lines[number - 1] = json.dumps(record)
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["tpcc", "--events", str(damaged), "--train", "0"])
        assert excinfo.value.code == 2
        assert (
            f"{damaged}, line {number}: period_sample seq {record['seq']}: "
            "'instructions' must be a number, got missing"
        ) in capsys.readouterr().err

    def test_damaged_checkpoint_exits_2_naming_it(
        self, recorded, tmp_path, capsys
    ):
        events, ckpt = recorded
        damaged = tmp_path / "damaged.json"
        damaged.write_text(ckpt.read_text()[:200])
        with pytest.raises(SystemExit) as excinfo:
            main(["tpcc", "--events", str(events), "--restore", str(damaged)])
        assert excinfo.value.code == 2
        assert f"{damaged}: malformed JSON" in capsys.readouterr().err

    def test_restore_requires_events(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tpcc", "--restore", "ckpt.json"])
        assert excinfo.value.code == 2
        assert "--restore requires --events" in capsys.readouterr().err


class TestValidation:
    @pytest.mark.parametrize(
        "spec", ["lock_stall", "gremlins:0.1", "lock_stall:nan?", "slowdown:2"]
    )
    def test_malformed_fault_spec(self, spec, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tpcc", "--faults", spec])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_unknown_kind_target_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tpcc", "--faults", "slowdown:0.5%kind=neworder"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "workload 'tpcc' has no kind 'neworder'" in err
        assert "Traceback" not in err

    def test_tenant_target_is_usage_error(self, capsys):
        # repro-online always runs the closed loop, which tags no tenants.
        with pytest.raises(SystemExit) as excinfo:
            main(["tpcc", "--faults", "slowdown:1%tenant=3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert (
            "fault spec clause 'slowdown:1%tenant=3': 'closed' arrivals tag "
            "no tenants"
        ) in err
        assert "Traceback" not in err

    def test_quantile_domain(self, capsys):
        with pytest.raises(SystemExit):
            main(["tpcc", "--quantile", "1.0"])

    def test_events_out_conflicts_with_events(self, capsys):
        with pytest.raises(SystemExit):
            main(["tpcc", "--events", "a.jsonl", "--events-out", "b.jsonl"])
