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
