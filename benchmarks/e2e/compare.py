"""Compare two sets of end-to-end benchmark runs (parent vs change).

    python3 benchmarks/e2e/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are each a result file written by ``run.py
--out``, a ledger file holding ``{"runs": [...]}``, or a directory of
such files.  ``PATH@NAME`` keeps only the runs of a ledger whose ``set``
is ``NAME`` (the committed baseline holds two sets, ``a`` and ``b``).
Traced runs are ignored.

Runs pair up by workload and seed.  For every workload x end-to-end
metric the table gives the parent's median and quartiles (the base), the
change's median, the difference as a share of the base, and how many
pairs the change won.  Verdicts:

* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither side), at least 10 pairs were run, the medians differ by more
  than the parent's interquartile range, and no more operations failed;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the parent's own spread is wider than the bound, and
  not every change run beats every parent run (``better (every run)``
  when every one does);
* ``unchanged``: otherwise.

A last row per workload says whether the output digests of equal seeds
are identical.  Exit status 1 when any metric regressed or any output
changed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(spec: str) -> list:
    path, _, wanted = spec.partition("@")
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        with open(file) as fh:
            document = json.load(fh)
        found = document.get("runs", [document])
        runs.extend(
            run for run in found
            if run.get("benchmark") == "repro-e2e"
            and not run.get("trace")
            and (not wanted or run.get("set") == wanted)
        )
    if not runs:
        raise SystemExit(f"{spec}: no untraced benchmark runs found")
    return runs


def pair_up(parent: list, change: list) -> dict:
    """workload -> list of (parent run, change run) with equal seeds."""
    pairs = {}
    for workload in sorted({r["workload"] for r in parent + change}):
        by_seed = {}
        for side, runs in (("parent", parent), ("change", change)):
            for run in sorted(runs, key=lambda r: r.get("started_at", 0)):
                if run["workload"] == workload:
                    by_seed.setdefault(run["seed"], {"parent": [], "change": []})
                    by_seed[run["seed"]][side].append(run)
        pairs[workload] = [
            pair
            for seed in sorted(by_seed)
            for pair in zip(by_seed[seed]["parent"], by_seed[seed]["change"])
        ]
    return pairs


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: dict, base: list, new: list, more_failures: bool) -> tuple:
    """(verdict, wins) for one workload x metric over paired values."""
    higher = metric["better"] == "higher"

    def better(a, b):
        return a > b if higher else a < b

    wins = sum(better(c, p) for p, c in zip(base, new))
    q1, base_median, q3 = quartiles(base)
    new_median = statistics.median(new)
    spread = q3 - q1
    worse_by = (base_median - new_median if higher else new_median - base_median)
    if (
        len(base) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(base)
        and better(new_median, base_median)
        and abs(new_median - base_median) > spread
        and not more_failures
    ):
        return "gain", wins
    if base_median and spread / abs(base_median) > metric["bound"]:
        every = all(better(c, p) for c in new for p in base)
        return ("better (every run)" if every else "unresolved"), wins
    if base_median and worse_by / abs(base_median) > metric["bound"]:
        return "regression", wins
    return "unchanged", wins


def compare(parent: list, change: list, benchmark: dict) -> tuple:
    rows = []
    bad = False
    for workload, pairs in pair_up(parent, change).items():
        if not pairs:
            rows.append([workload, "-", "-", "-", "-", "-", "-", "no pairs"])
            continue
        failed = [sum(run["failed"] for run in side) for side in zip(*pairs)]
        order = sum(p["started_at"] < c["started_at"] for p, c in pairs)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base = [p["metrics"][name]["value"] for p, _ in pairs]
            new = [c["metrics"][name]["value"] for _, c in pairs]
            result, wins = verdict(metric, base, new, failed[1] > failed[0])
            bad |= result == "regression"
            q1, base_median, q3 = quartiles(base)
            new_median = statistics.median(new)
            rows.append([
                workload, name, metric["unit"],
                f"{base_median:.5g} [{q1:.5g}, {q3:.5g}]",
                f"{new_median:.5g}",
                f"{(new_median - base_median) / base_median:+.1%}"
                if base_median else "n/a",
                f"{wins}/{len(pairs)}",
                result,
            ])
        changed = sum(
            p["digest"]["outputs"] != c["digest"]["outputs"] for p, c in pairs
        )
        bad |= bool(changed)
        note = (
            "identical" if not changed
            else f"{changed} of {len(pairs)} seeds changed"
        )
        rows.append([
            workload, "output digest", "-", "-", "-", "-",
            f"parent first {order}/{len(pairs)}",
            note + (
                f"; fewer than {MIN_PAIRS} pairs, no gain can be claimed"
                if len(pairs) < MIN_PAIRS else ""
            ),
        ])
    return rows, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare parent and change benchmark runs."
    )
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    rows, bad = compare(load_runs(args.parent), load_runs(args.change), benchmark)
    header = ["workload", "metric", "unit", "parent median [q1, q3]",
              "change", "delta", "wins", "verdict"]
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
