"""Tests for the repro-simulate CLI."""

import pytest

from repro.cli import main, parse_sampling, parse_scheduler
from repro.kernel.contention import ContentionEasingScheduler
from repro.kernel.sampling import SamplingMode
from repro.kernel.scheduler import RoundRobinScheduler


class TestParsers:
    def test_interrupt_spec(self):
        policy = parse_sampling("interrupt:50")
        assert policy.mode is SamplingMode.INTERRUPT
        assert policy.interrupt_period_us == 50.0

    def test_interrupt_default_period(self):
        assert parse_sampling("interrupt").interrupt_period_us == 100.0

    def test_syscall_spec(self):
        policy = parse_sampling("syscall:8,60")
        assert policy.mode is SamplingMode.SYSCALL_TRIGGERED
        assert policy.t_syscall_min_us == 8.0
        assert policy.t_backup_int_us == 60.0

    def test_syscall_missing_args(self):
        with pytest.raises(ValueError):
            parse_sampling("syscall:8")

    def test_ctx_spec(self):
        assert parse_sampling("ctx").mode is SamplingMode.CONTEXT_SWITCH_ONLY

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            parse_sampling("magic:1")

    def test_scheduler_specs(self):
        assert isinstance(parse_scheduler("roundrobin", 0.1), RoundRobinScheduler)
        contention = parse_scheduler("contention", 0.05)
        assert isinstance(contention, ContentionEasingScheduler)
        assert contention.high_usage_threshold == 0.05
        assert contention.adaptive_threshold
        with pytest.raises(ValueError):
            parse_scheduler("fifo", 0.1)


class TestMain:
    def test_basic_run(self, capsys):
        assert main(["tpcc", "--requests", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "tpcc: 6 requests" in out
        assert "request CPI" in out
        assert "first" in out

    def test_unknown_workload(self, capsys):
        assert main(["nosuchapp"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_serial_machine(self, capsys):
        assert main(["webserver", "--requests", "4", "--cores", "1"]) == 0
        assert "1 core(s)" in capsys.readouterr().out

    def test_custom_sampling(self, capsys):
        assert main(
            ["webserver", "--requests", "4", "--sampling", "syscall:8,60"]
        ) == 0

    def test_contention_scheduler(self, capsys):
        assert main(
            ["tpch", "--requests", "4", "--scheduler", "contention"]
        ) == 0

    def test_export(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        assert main(
            ["tpcc", "--requests", "4", "--export", str(out_file)]
        ) == 0
        from repro.kernel.trace_io import load_traces

        assert len(load_traces(str(out_file))) == 4

    def test_classify_prints_cluster_table(self, capsys):
        assert main(
            ["tpcc", "--requests", "8", "--seed", "2", "--classify", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "k-medoids clusters (k=3)" in out
        assert "medoid" in out

    def test_classify_jobs_output_identical(self, capsys):
        argv = ["tpcc", "--requests", "8", "--seed", "2", "--classify", "3"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_export_jsonl(self, tmp_path, capsys):
        out_file = tmp_path / "t.jsonl"
        assert main(
            ["tpcc", "--requests", "4", "--export", str(out_file)]
        ) == 0
        from repro.kernel.trace_io import load_traces

        assert out_file.read_text().startswith('{"format":"repro-request-traces"')
        assert len(load_traces(str(out_file))) == 4


class TestObservabilityFlags:
    def test_trace_flag_writes_events(self, tmp_path, capsys):
        from repro.obs.trace import load_events

        path = tmp_path / "events.jsonl"
        assert main(
            ["tpcc", "--requests", "5", "--seed", "3", "--trace", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "observability events written" in out
        events, dropped = load_events(str(path))
        assert dropped == 0
        assert events[0].kind == "run_start"
        assert events[-1].kind == "run_end"
        completed = [e for e in events if e.kind == "request_completed"]
        assert len(completed) == 5

    def test_trace_capacity_bounds_file(self, tmp_path, capsys):
        from repro.obs.trace import load_events

        path = tmp_path / "events.jsonl"
        assert main(
            ["tpcc", "--requests", "5", "--trace", str(path),
             "--trace-capacity", "20"]
        ) == 0
        events, dropped = load_events(str(path))
        assert len(events) == 20
        assert dropped > 0

    def test_metrics_out_writes_snapshot(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(
            ["webserver", "--requests", "4", "--seed", "1",
             "--metrics-out", str(path)]
        ) == 0
        document = json.loads(path.read_text())
        assert document["counters"]["requests_completed"] == 4
        assert document["workload"] == "webserver"
        assert document["histograms"]["request_cpi"]["count"] == 4
        assert "simulate" in document["stages"]
        assert "generate" in document["stages"]

    def test_trace_replays_to_reported_cpi_stats(self, tmp_path, capsys):
        """Acceptance: the exported JSONL replays to the CPI statistics the
        run itself printed."""
        import re

        import numpy as np

        from repro.kernel.trace_io import load_traces

        path = tmp_path / "t.jsonl"
        assert main(
            ["tpcc", "--requests", "6", "--seed", "9", "--export", str(path)]
        ) == 0
        out = capsys.readouterr().out
        match = re.search(r"request CPI: mean (\d+\.\d+), p90 (\d+\.\d+)", out)
        assert match is not None
        loaded = load_traces(str(path))
        cpis = np.array([t.overall_cpi() for t in loaded])
        assert float(match.group(1)) == pytest.approx(cpis.mean(), abs=0.005)
        assert float(match.group(2)) == pytest.approx(
            np.percentile(cpis, 90), abs=0.005
        )


class TestFaultAndOnlineFlags:
    def test_faults_flag_injects_and_reports(self, capsys):
        assert main(
            ["tpcc", "--requests", "8", "--seed", "4",
             "--faults", "lock_stall:0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "tpcc: 8 requests" in out

    def test_online_flag_prints_scored_report(self, capsys):
        assert main(
            ["tpcc", "--requests", "8", "--seed", "4",
             "--faults", "slowdown:0.5", "--online"]
        ) == 0
        out = capsys.readouterr().out
        assert "online streaming report" in out
        assert "precision=" in out and "recall=" in out

    def test_online_checkpoint_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "ckpt.json"
        assert main(
            ["tpcc", "--requests", "6", "--seed", "4", "--online",
             "--checkpoint", str(path)]
        ) == 0
        document = json.loads(path.read_text())
        assert document["format"] == "repro-online-checkpoint"
        assert document["state"]["last_seq"] >= 0

    def test_checkpoint_without_online_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tpcc", "--checkpoint", "x.json"])
        assert excinfo.value.code == 2
        assert "--checkpoint requires --online" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec", ["lock_stall", "gremlins:0.2", "lock_stall:x", "lock_stall:2"]
    )
    def test_malformed_fault_spec_is_argparse_error(self, spec, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tpcc", "--faults", spec])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


    def test_unknown_kind_target_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tpcc", "--faults", "lock_stall:1%kind=neworder"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "'lock_stall:1%kind=neworder'" in err
        assert "workload 'tpcc' has no kind 'neworder'" in err

    @pytest.mark.parametrize(
        "extra,message",
        (
            ([], "'closed' arrivals tag no tenants, so tenant 3 never arrives"),
            (["--offered-load", "400"], "'poisson' arrivals tag no tenants"),
            (["--arrivals", "zipf:400,1.1,2"],
             "'zipf' arrivals tag tenants [0, 1], so tenant 3 never arrives"),
        ),
    )
    def test_unreachable_tenant_target_is_usage_error(
        self, extra, message, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["tpcc", "--requests", "4", "--faults", "slowdown:1%tenant=3",
                  "--online", *extra])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "fault spec clause 'slowdown:1%tenant=3'" in err
        assert message in err

    def test_drawn_tenant_target_injects(self, capsys):
        assert main(["tpcc", "--requests", "20", "--seed", "1", "--online",
                     "--arrivals", "zipf:400,1.1,4",
                     "--faults", "slowdown:1%tenant=3"]) == 0
        assert "injected=4 " in capsys.readouterr().out


class TestArgumentValidation:
    """Malformed specs exit with an argparse error, not a raw traceback."""

    @pytest.mark.parametrize(
        "spec", ["interrupt:abc", "syscall:8", "syscall:8,abc", "magic:1"]
    )
    def test_malformed_sampling_is_argparse_error(self, spec, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tpcc", "--sampling", spec])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("requests", ["0", "-3"])
    def test_rejects_non_positive_requests(self, requests, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tpcc", "--requests", requests])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_rejects_non_positive_classify_and_jobs(self, capsys):
        for argv in (
            ["tpcc", "--classify", "0"],
            ["tpcc", "--jobs", "0"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
