"""Sweep kill/resume smokes through the ``repro.sweep`` CLI, also run as
their own CI steps.

Each test runs a sweep to completion, then runs the same spec again as a
separate process, SIGKILLs it once enough scenarios have settled in its
manifest, resumes from that manifest and demands the two reports be
byte-identical.

* ``test_sweep_kill_resume_smoke``: an 8-scenario grid over two
  workloads and two sampling techniques, killed after >= 3 scenarios.
* ``test_fault_axis_sweep_kill_resume_smoke``: a 6-scenario grid over
  composed fault schedules with attribution on, killed after >= 2
  scenarios; the attribution rows must survive the kill.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.sweep

#: How long the killed run may take to settle enough scenarios.
SETTLE_DEADLINE_S = 180.0

SWEEP_SPEC = {
    "name": "ci-smoke",
    "workloads": ["webserver", "tpcc"],
    "sampling": ["interrupt:100", "syscall:80,400"],
    "seeds": [0, 1],
    "requests": 5, "concurrency": 4, "online": True,
}

FAULT_SWEEP_SPEC = {
    "name": "ci-fault-smoke",
    "workloads": ["tpcc"],
    "sampling": ["interrupt:100"],
    "seeds": [0, 1],
    "faults": ["none", "gc_pause:0.3",
               "lock_stall:0.2+cache_thrash:0.15@0-10"],
    "requests": 8, "concurrency": 4,
    "online": True, "train": 6, "attribute": True,
}


def _env():
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _sweep_command(*args):
    return [sys.executable, "-m", "repro.sweep", *args]


def _settled(manifest_path):
    try:
        doc = json.loads(manifest_path.read_text())
        return sum(
            1 for entry in doc["scenarios"].values() if entry["status"] == "done"
        )
    except (OSError, ValueError, KeyError):
        return 0


def kill_resume(tmp_path, spec, kill_after):
    """Run ``spec`` uninterrupted and killed-then-resumed; return the
    killed run's manifest path and both reports' paths."""
    env = _env()

    def sweep(*args):
        subprocess.run(_sweep_command(*args), env=env, check=True)

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    manifest_a, report_a = tmp_path / "sweep-a.json", tmp_path / "report-a.json"
    manifest_b, report_b = tmp_path / "sweep-b.json", tmp_path / "report-b.json"

    sweep("run", str(spec_path), "--manifest", str(manifest_a),
          "--jobs", "2", "--quiet")
    sweep("report", "--manifest", str(manifest_a), "--out", str(report_a))

    process = subprocess.Popen(
        _sweep_command("run", str(spec_path), "--manifest", str(manifest_b),
                       "--quiet"),
        env=env,
    )
    try:
        deadline = time.monotonic() + SETTLE_DEADLINE_S
        while time.monotonic() < deadline:
            done = _settled(manifest_b)
            if done >= kill_after:
                break
            time.sleep(0.05)
        else:
            pytest.fail(f"sweep never settled {kill_after} scenarios")
        if process.poll() is None:
            os.kill(process.pid, signal.SIGKILL)
            print(f"killed sweep at {done} settled scenarios")
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()

    sweep("resume", "--manifest", str(manifest_b), "--jobs", "2", "--quiet")
    sweep("report", "--manifest", str(manifest_b), "--out", str(report_b))
    assert report_a.read_bytes() == report_b.read_bytes(), (
        "kill/resume report differs from the uninterrupted run's"
    )
    return manifest_b, report_b


def test_sweep_kill_resume_smoke(tmp_path):
    manifest_path, report_path = kill_resume(tmp_path, SWEEP_SPEC, kill_after=3)
    manifest = json.loads(manifest_path.read_text())
    assert all(
        entry["status"] == "done" for entry in manifest["scenarios"].values()
    ), "incomplete"
    report = json.loads(report_path.read_text())
    assert report["format"] == "repro-sweep-report"
    assert len(report["scenarios"]) == 8, "report missing scenarios"
    assert report["overhead"], "report has no overhead rows"
    print("sweep smoke ok:", report["summary"])


def test_fault_axis_sweep_kill_resume_smoke(tmp_path):
    _, report_path = kill_resume(tmp_path, FAULT_SWEEP_SPEC, kill_after=2)
    report = json.loads(report_path.read_text())
    assert len(report["scenarios"]) == 6, "report missing scenarios"
    rows = report["attribution"]
    mixes = {row["faults"] for row in rows}
    assert "gc_pause:0.3" in mixes, rows
    assert "lock_stall:0.2+cache_thrash:0.15@0-10" in mixes, rows
    print("fault-axis smoke ok:", rows)
