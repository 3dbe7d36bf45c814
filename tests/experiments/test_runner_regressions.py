"""Regression tests for the repro-experiments runner CLI.

Covers the id-normalization bugs ('all' mixed with explicit ids rejected,
duplicated ids silently run twice), --scale validation, and the --jobs
experiment-level parallelism.
"""

import pytest

from repro.experiments.base import EXPERIMENTS
from repro.experiments.runner import (
    main,
    normalize_experiment_ids,
    run_experiments,
)


class TestNormalizeIds:
    def test_all_expands_in_place(self):
        assert normalize_experiment_ids(["all"]) == list(EXPERIMENTS)

    def test_all_mixed_with_explicit_ids(self):
        # 'all' already contains fig1; the mix must not be rejected and
        # fig1 must not run twice.
        assert normalize_experiment_ids(["all", "fig1"]) == list(EXPERIMENTS)

    def test_explicit_id_before_all_keeps_first_position(self):
        ids = normalize_experiment_ids(["fig6", "all"])
        assert ids[0] == "fig6"
        assert sorted(ids) == sorted(EXPERIMENTS)
        assert len(ids) == len(EXPERIMENTS)

    def test_duplicates_run_once_order_preserved(self):
        assert normalize_experiment_ids(["fig3", "fig1", "fig3", "fig1"]) == [
            "fig3",
            "fig1",
        ]

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="unknown experiment ids"):
            normalize_experiment_ids(["fig1", "nope"])


class TestMainArguments:
    def test_mixed_all_runs_each_once(self, capsys, monkeypatch):
        # Stub the registry down to one cheap experiment so main() is fast.
        ran = []

        class FakeModule:
            @staticmethod
            def run(scale):
                ran.append(scale)
                from repro.experiments.base import ExperimentResult

                return ExperimentResult(exp_id="fig6", title="t", notes=["n"])

        monkeypatch.setattr(
            "repro.experiments.runner.get_experiment", lambda exp_id: FakeModule
        )
        assert main(["fig6", "fig6", "--scale", "0.1"]) == 0
        assert len(ran) == 1
        assert capsys.readouterr().out.count("[fig6 finished") == 1

    def test_unknown_id_exit_code(self, capsys):
        assert main(["all", "nope"]) == 2
        assert "unknown experiment ids" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "-1", "-0.5", "nan", "inf"])
    def test_rejects_non_positive_scale(self, scale, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig6", "--scale", scale])
        assert excinfo.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    def test_rejects_non_positive_jobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig6", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestOutFile:
    """--out must replace the file atomically, never append to it."""

    @pytest.fixture()
    def stub_experiment(self, monkeypatch):
        def install(note):
            class FakeModule:
                @staticmethod
                def run(scale):
                    from repro.experiments.base import ExperimentResult

                    return ExperimentResult(
                        exp_id="fig6", title="stub", notes=[note]
                    )

            monkeypatch.setattr(
                "repro.experiments.runner.get_experiment",
                lambda exp_id: FakeModule,
            )

        return install

    def test_out_replaces_instead_of_appending(
        self, tmp_path, stub_experiment, capsys
    ):
        # The original implementation opened --out in append mode, so a
        # rerun stacked a second copy of every section onto the first.
        path = tmp_path / "run.md"
        stub_experiment("first-marker")
        assert main(["fig6", "--out", str(path)]) == 0
        first = path.read_text()
        assert "first-marker" in first

        stub_experiment("second-marker")
        assert main(["fig6", "--out", str(path)]) == 0
        second = path.read_text()
        assert "second-marker" in second
        assert "first-marker" not in second
        assert second.count("stub") == 1

    def test_out_leaves_no_temp_droppings(
        self, tmp_path, stub_experiment, capsys
    ):
        path = tmp_path / "nested" / "run.md"
        stub_experiment("note")
        assert main(["fig6", "--out", str(path)]) == 0
        assert path.exists()
        assert [p.name for p in path.parent.iterdir()] == ["run.md"]

    def test_out_ends_with_single_newline(self, tmp_path, stub_experiment, capsys):
        path = tmp_path / "run.md"
        stub_experiment("note")
        assert main(["fig6", "--out", str(path)]) == 0
        text = path.read_text()
        assert text.endswith("\n")
        assert not text.endswith("\n\n")


class TestProfileAndMetrics:
    def test_profile_attaches_stage_seconds(self):
        results = list(run_experiments(["table1"], scale=0.05, profile=True))
        _, result, _ = results[0]
        assert "simulate" in result.stage_seconds
        entry = result.stage_seconds["simulate"]
        assert entry["calls"] >= 1
        assert entry["seconds"] > 0.0

    def test_profile_does_not_change_rendered_output(self):
        plain = next(iter(run_experiments(["table1"], scale=0.05)))[1].render()
        profiled = next(
            iter(run_experiments(["table1"], scale=0.05, profile=True))
        )[1].render()
        assert profiled == plain

    def test_profile_flag_prints_stage_table(self, capsys):
        assert main(["table1", "--scale", "0.05", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "stage profile" in out
        assert "simulate" in out

    def test_metrics_out_writes_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(
            ["table1", "--scale", "0.05", "--metrics-out", str(path)]
        ) == 0
        document = json.loads(path.read_text())
        assert "table1" in document
        assert document["table1"]["seconds"] > 0
        assert "simulate" in document["table1"]["stages"]

    def test_parallel_profile_timings_are_per_experiment(self):
        # Both experiments drive the simulator, so the snapshots must be
        # captured inside each fork worker, not in the parent.
        results = {
            exp_id: result.stage_seconds
            for exp_id, result, _ in run_experiments(
                ["table1", "sec32"], scale=0.05, jobs=2, profile=True
            )
        }
        assert all("simulate" in stages for stages in results.values())


class TestParallelRunner:
    def test_parallel_results_match_serial(self):
        ids = ["fig6", "fig4"]
        serial = [
            (exp_id, result.render())
            for exp_id, result, _ in run_experiments(ids, scale=0.1)
        ]
        parallel = [
            (exp_id, result.render())
            for exp_id, result, _ in run_experiments(ids, scale=0.1, jobs=2)
        ]
        assert parallel == serial

    def test_parallel_preserves_requested_order(self):
        ids = ["fig4", "fig6"]
        seen = [exp_id for exp_id, _, _ in run_experiments(ids, scale=0.1, jobs=2)]
        assert seen == ids
