"""Manifest round trips, loud-failure paths, and executor settlement."""

import json
import os
import time

import pytest

from repro.sweep.cache import ScenarioCache
from repro.sweep.executor import SweepOptions, run_sweep
from repro.sweep.manifest import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    SweepManifest,
)
from repro.sweep.spec import SweepSpec


def tiny_spec(**overrides):
    base = dict(
        name="tiny",
        workloads=("webserver",),
        sampling=("interrupt:100",),
        seeds=(0, 1),
        requests=3,
        concurrency=2,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestManifestDocument:
    def test_plan_is_all_pending(self):
        manifest = SweepManifest.plan(tiny_spec())
        assert manifest.pending_ids() == manifest.order
        assert not manifest.complete
        assert manifest.counts()["planned"] == 2

    def test_round_trip_bytes(self):
        manifest = SweepManifest.plan(tiny_spec())
        clone = SweepManifest.from_json(manifest.to_json())
        assert clone.to_json() == manifest.to_json()

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "m.json")
        manifest = SweepManifest.plan(tiny_spec())
        manifest.save(path)
        assert SweepManifest.load(path).to_json() == manifest.to_json()
        # atomic save leaves no temp droppings
        assert os.listdir(tmp_path) == ["m.json"]

    def test_foreign_format_is_loud(self):
        with pytest.raises(ValueError, match="not a repro-sweep-manifest"):
            SweepManifest.from_json(json.dumps({"format": "something-else"}))

    def test_future_version_is_loud(self):
        payload = json.loads(SweepManifest.plan(tiny_spec()).to_json())
        payload["version"] = MANIFEST_VERSION + 1
        with pytest.raises(ValueError, match="unsupported"):
            SweepManifest.from_json(json.dumps(payload))

    def test_tampered_spec_is_loud(self):
        payload = json.loads(SweepManifest.plan(tiny_spec()).to_json())
        payload["spec"]["seeds"] = [5, 6]  # spec_key now stale
        with pytest.raises(ValueError, match="spec_key"):
            SweepManifest.from_json(json.dumps(payload))

    def test_scenario_entry_that_is_not_an_object_is_named(self, tmp_path):
        payload = json.loads(SweepManifest.plan(tiny_spec()).to_json())
        sid = payload["order"][0]
        payload["scenarios"][sid] = 5
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as excinfo:
            SweepManifest.load(str(path))
        assert str(excinfo.value) == (
            f"{path}: scenario {sid!r} entry is not an object"
        )

    def test_malformed_json_is_loud(self):
        with pytest.raises(ValueError, match="malformed"):
            SweepManifest.from_json("{nope")

    def test_format_constants(self):
        payload = json.loads(SweepManifest.plan(tiny_spec()).to_json())
        assert payload["format"] == MANIFEST_FORMAT
        assert payload["version"] == MANIFEST_VERSION


class TestExecutorSettlement:
    def test_serial_run_settles_everything(self, tmp_path):
        path = str(tmp_path / "m.json")
        manifest = SweepManifest.plan(tiny_spec())
        run_sweep(manifest, path)
        assert manifest.complete
        assert manifest.counts()["done"] == 2
        # saved after each settlement: on-disk copy is the final state
        assert SweepManifest.load(path).to_json() == manifest.to_json()

    def test_stop_after_leaves_rest_pending(self):
        manifest = SweepManifest.plan(tiny_spec())
        run_sweep(manifest, options=SweepOptions(stop_after=1))
        counts = manifest.counts()
        assert counts["done"] == 1 and counts["pending"] == 1

    def test_failure_is_quarantined_not_fatal(self, monkeypatch):
        manifest = SweepManifest.plan(tiny_spec())
        doomed = manifest.order[0]
        from repro.sweep import executor as executor_module

        real = executor_module.run_scenario
        calls = []

        def flaky(scenario):
            calls.append(scenario.scenario_id)
            if scenario.scenario_id == doomed:
                raise RuntimeError("injected failure")
            return real(scenario)

        monkeypatch.setattr(executor_module, "run_scenario", flaky)
        run_sweep(manifest, options=SweepOptions(retries=1))
        entry = manifest.scenarios[doomed]
        assert entry["status"] == "quarantined"
        assert entry["attempts"] == 2  # first try + one retry
        assert "injected failure" in entry["error"]
        # the rest of the sweep still ran
        assert manifest.counts()["done"] == 1
        assert calls.count(doomed) == 2

    def test_unknown_fault_kind_target_is_quarantined(self):
        """A ``%kind=`` target the workload lacks passes spec validation
        (its grammar is fine), then quarantines its scenario with the
        constructor's message; the rest of the sweep still runs."""
        manifest = SweepManifest.plan(
            tiny_spec(
                workloads=("tpcc",),
                seeds=(0,),
                faults=("none", "lock_stall:1%kind=neworder"),
            )
        )
        run_sweep(manifest, options=SweepOptions(retries=0))
        counts = manifest.counts()
        assert counts["done"] == 1 and counts["quarantined"] == 1
        (error,) = [
            entry["error"]
            for entry in manifest.scenarios.values()
            if entry["status"] == "quarantined"
        ]
        assert "'lock_stall:1%kind=neworder'" in error
        assert "workload 'tpcc' has no kind 'neworder'" in error

    def test_unreachable_tenant_target_is_quarantined(self):
        """A ``%tenant=`` target the scenario's arrival process never tags
        quarantines that scenario; the zipf scenario that tags it runs."""
        manifest = SweepManifest.plan(
            tiny_spec(
                workloads=("tpcc",),
                seeds=(0,),
                faults=("slowdown:1%tenant=1",),
                arrivals=("closed", "zipf:400,1.1,2"),
            )
        )
        run_sweep(manifest, options=SweepOptions(retries=0))
        counts = manifest.counts()
        assert counts["done"] == 1 and counts["quarantined"] == 1
        (error,) = [
            entry["error"]
            for entry in manifest.scenarios.values()
            if entry["status"] == "quarantined"
        ]
        assert "'slowdown:1%tenant=1': 'closed' arrivals tag no tenants" in error

    def test_retry_recovers_flaky_scenario(self, monkeypatch):
        manifest = SweepManifest.plan(tiny_spec())
        flaky_id = manifest.order[0]
        from repro.sweep import executor as executor_module

        real = executor_module.run_scenario
        failed = []

        def once(scenario):
            if scenario.scenario_id == flaky_id and not failed:
                failed.append(True)
                raise RuntimeError("transient")
            return real(scenario)

        monkeypatch.setattr(executor_module, "run_scenario", once)
        run_sweep(manifest, options=SweepOptions(retries=1))
        assert manifest.complete
        assert manifest.scenarios[flaky_id]["status"] == "done"
        assert manifest.scenarios[flaky_id]["attempts"] == 2

    def test_release_quarantined_returns_to_pending(self, monkeypatch):
        manifest = SweepManifest.plan(tiny_spec())
        from repro.sweep import executor as executor_module

        monkeypatch.setattr(
            executor_module,
            "run_scenario",
            lambda s: (_ for _ in ()).throw(RuntimeError("down")),
        )
        run_sweep(manifest, options=SweepOptions(retries=0))
        assert manifest.counts()["quarantined"] == 2
        assert manifest.release_quarantined() == manifest.order
        assert manifest.pending_ids() == manifest.order

    def test_timeout_quarantines_hung_scenario(self, monkeypatch):
        manifest = SweepManifest.plan(tiny_spec())
        from repro.sweep import executor as executor_module

        real = executor_module.run_scenario
        hung = manifest.order[0]

        def slow(scenario):
            if scenario.scenario_id == hung:
                time.sleep(60.0)
            return real(scenario)

        # fork workers inherit the patched module by address space
        monkeypatch.setattr(executor_module, "run_scenario", slow)
        run_sweep(
            manifest,
            options=SweepOptions(jobs=2, timeout_s=1.0, retries=0),
        )
        entry = manifest.scenarios[hung]
        assert entry["status"] == "quarantined"
        assert "timeout" in entry["error"]
        assert manifest.counts()["done"] == 1

    def test_timeout_holds_at_one_job(self, monkeypatch):
        """A timeout forks each scenario even at jobs=1, so a slow one is
        killed instead of running to completion in-process."""
        manifest = SweepManifest.plan(tiny_spec())
        from repro.sweep import executor as executor_module

        real = executor_module.run_scenario
        slow_id = manifest.order[0]

        def slow(scenario):
            if scenario.scenario_id == slow_id:
                time.sleep(3.0)
            return real(scenario)

        monkeypatch.setattr(executor_module, "run_scenario", slow)
        run_sweep(
            manifest,
            options=SweepOptions(jobs=1, timeout_s=1.0, retries=0),
        )
        entry = manifest.scenarios[slow_id]
        assert entry["status"] == "quarantined"
        assert entry["error"] == "timeout after 1s"
        assert manifest.counts()["done"] == 1

    def test_raising_settlement_kills_workers_in_flight(
        self, tmp_path, monkeypatch
    ):
        manifest = SweepManifest.plan(tiny_spec())
        from repro.sweep import executor as executor_module

        real = executor_module.run_scenario
        slow_id = manifest.order[1]
        pid_file = tmp_path / "slow.pid"

        def slow(scenario):
            if scenario.scenario_id == slow_id:
                staged = tmp_path / "slow.pid.tmp"
                staged.write_text(str(os.getpid()))
                staged.rename(pid_file)
                time.sleep(30.0)
            # The fast scenario settles only once the slow one is running.
            deadline = time.monotonic() + 10.0
            while not pid_file.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return real(scenario)

        def progress(scenario_id, status):
            raise OSError("disk full")

        monkeypatch.setattr(executor_module, "run_scenario", slow)
        start = time.monotonic()
        with pytest.raises(OSError, match="disk full"):
            run_sweep(manifest, options=SweepOptions(jobs=2), progress=progress)
        assert time.monotonic() - start < 10.0
        pid = int(pid_file.read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_cli_rejects_non_finite_timeout(self, timeout, capsys):
        from repro.sweep.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "spec.json", "--manifest", "m.json",
                  "--timeout", timeout])
        assert excinfo.value.code == 2
        assert "--timeout" in capsys.readouterr().err
        with pytest.raises(ValueError, match="timeout_s"):
            SweepOptions(timeout_s=float(timeout))


class TestScenarioCache:
    def test_hits_skip_execution_and_preserve_bytes(self, tmp_path, monkeypatch):
        cache_path = str(tmp_path / "scenarios.json")
        first = SweepManifest.plan(tiny_spec())
        run_sweep(first, options=SweepOptions(cache=ScenarioCache(cache_path)))

        from repro.sweep import executor as executor_module

        def explode(scenario):
            raise AssertionError("cache miss: scenario executed")

        monkeypatch.setattr(executor_module, "run_scenario", explode)
        second = SweepManifest.plan(tiny_spec())
        cache = ScenarioCache(cache_path)
        run_sweep(second, options=SweepOptions(cache=cache))
        assert second.to_json() == first.to_json()
        assert cache.hits == 2

    def test_corrupt_cache_starts_empty(self, tmp_path):
        cache_path = tmp_path / "scenarios.json"
        cache_path.write_text("{broken")
        assert len(ScenarioCache(str(cache_path))) == 0
