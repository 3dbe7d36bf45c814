"""End-to-end smokes of the online tier, also run as their own CI steps.

* ``test_online_pipeline_smoke``: stream a faulted run through
  ``repro-online`` and check the scored report is real (non-empty, with
  ground truth).
* ``test_attribution_accuracy_smoke``: the cause-attribution gate.  Every
  taxonomy kind injected into tpcc at a fixed rate/seed pair must stay
  detectable and attributable at or above per-kind floors, a margin below
  the calibrated accuracy.  The run is deterministic, so a miss is a
  regression in the detector, the attributor or the injectors.
"""

import json

from repro.faults.taxonomy import FAULT_TAXONOMY
from repro.online.cli import main as online_main
from repro.sweep.executor import SweepOptions, run_sweep
from repro.sweep.manifest import SweepManifest
from repro.sweep.report import build_report
from repro.sweep.spec import SweepSpec

#: Floors sit a margin below the calibrated accuracies (thrash .62, gc
#: .90, gray .25, convoy .50, stall .50, membw .94, replica .53, slowdown
#: .44 at this exact config).
ATTRIBUTION_FLOORS = {
    "cache_thrash": 0.50,
    "gc_pause": 0.75,
    "gray_degradation": 0.15,
    "lock_convoy": 0.35,
    "lock_stall": 0.35,
    "membw_saturation": 0.80,
    "slow_replica": 0.40,
    "slowdown": 0.30,
}


def test_online_pipeline_smoke(tmp_path):
    report_path = tmp_path / "online-report.json"
    assert online_main(
        ["tpcc", "--requests", "24", "--train", "12",
         "--faults", "lock_stall:0.25",
         "--report", str(report_path),
         "--checkpoint", str(tmp_path / "online-state.json")]
    ) == 0
    report = json.loads(report_path.read_text())
    assert report["format"] == "repro-online-report"
    s = report["summary"]
    assert s["population"] == 24 and s["windows"] > 0
    assert s["injected"] > 0, "fault injection produced no ground truth"
    print("smoke ok:", {k: s[k] for k in
          ("population", "injected", "flagged", "precision", "recall")})


def test_attribution_accuracy_smoke():
    spec = SweepSpec(
        name="ci-attribution",
        workloads=("tpcc",),
        sampling=("interrupt:100",),
        seeds=(3, 11),
        faults=tuple(f"{kind}:0.25" for kind in FAULT_TAXONOMY),
        requests=60,
        concurrency=8,
        online=True,
        train=12,
        attribute=True,
    )
    manifest = SweepManifest.plan(spec)
    run_sweep(manifest, options=SweepOptions(jobs=2))
    report = build_report(manifest)
    rows = {
        row["faults"].split(":")[0]: row
        for row in report.attribution_rows
    }
    assert set(rows) == set(FAULT_TAXONOMY), (
        f"missing fault axes: {set(FAULT_TAXONOMY) - set(rows)}"
    )
    failures = []
    for kind, floor in sorted(ATTRIBUTION_FLOORS.items()):
        row = rows[kind]
        if row["detected"] < 5:
            failures.append(f"{kind}: only {row['detected']} detected")
        elif row["accuracy"] < floor:
            failures.append(
                f"{kind}: accuracy {row['accuracy']} < floor {floor}"
            )
        print(f"  {kind:20s} detected={row['detected']:3d} "
              f"accuracy={row['accuracy']} (floor {floor})")
    assert not failures, failures
    mean = sum(rows[k]["accuracy"] for k in ATTRIBUTION_FLOORS) / len(
        ATTRIBUTION_FLOORS
    )
    assert mean >= 0.45, f"mean attribution accuracy {mean:.3f} < 0.45"
    print(f"attribution smoke ok: mean accuracy {mean:.3f} "
          f"across {len(ATTRIBUTION_FLOORS)} fault kinds")
