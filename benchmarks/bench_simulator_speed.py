"""Engine microbenchmarks: the vectorized dynamic programs.

The row-vectorized DTW and Levenshtein kernels against straightforward
pure-Python cell-loop baselines computing the same recurrences.  Every
assertion is a measured ratio between two implementations run on the
same machine in the same process, never an absolute wall-clock bound
(absolute bounds made this bench flaky on slow or throttled CI runners).
The simulator's own speed record is the ``sim_closed`` and ``sim_open``
workloads of ``benchmarks/e2e``.

Speedup assertions are hardware-gated (>= 2 usable CPUs); on smaller
machines the measured ratio is reported and the assertion skips.  Run
directly for a readable report:

    PYTHONPATH=src python benchmarks/bench_simulator_speed.py
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.distances import levenshtein_distance
from repro.core.dtw import dtw_distance

#: Vectorized DPs vs. their pure-Python cell loops (conservative: the
#: measured gap is an order of magnitude).
MIN_DP_SPEEDUP = 2.0
ROUNDS = 3


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def best_of(fn, rounds=ROUNDS):
    """Best wall time over ``rounds`` runs (robust against CI jitter)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


# ------------------------------------------------------- dynamic programs


def dtw_cell_loop(x, y, p):
    """Pure-Python cell-by-cell version of the penalized-DTW recurrence."""
    n = len(y)
    row = [0.0] * n
    row[0] = abs(x[0] - y[0])
    for j in range(1, n):
        row[j] = row[j - 1] + abs(x[0] - y[j]) + p
    for i in range(1, len(x)):
        new = [0.0] * n
        new[0] = row[0] + abs(x[i] - y[0]) + p
        for j in range(1, n):
            cost = abs(x[i] - y[j])
            new[j] = min(
                row[j - 1] + cost,        # synchronous (diagonal)
                row[j] + cost + p,        # asynchronous along x
                new[j - 1] + cost + p,    # asynchronous along y
            )
        row = new
    return row[-1]


def levenshtein_cell_loop(a, b):
    """Pure-Python two-row edit-distance DP."""
    previous = list(range(len(b) + 1))
    for i, token_a in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, token_b in enumerate(b, start=1):
            current[j] = min(
                previous[j - 1] + (token_a != token_b),
                previous[j] + 1,
                current[j - 1] + 1,
            )
        previous = current
    return previous[-1]


def run_dp_benchmark():
    rng = np.random.default_rng(0)
    x = rng.random(400)
    y = rng.random(400)
    x_list, y_list = x.tolist(), y.tolist()
    a = [str(t) for t in rng.integers(0, 12, size=300)]
    b = [str(t) for t in rng.integers(0, 12, size=300)]

    dtw_fast, t_dtw_fast = best_of(
        lambda: dtw_distance(x, y, asynchrony_penalty=0.5)
    )
    dtw_slow, t_dtw_slow = best_of(
        lambda: dtw_cell_loop(x_list, y_list, 0.5), rounds=1
    )
    lev_fast, t_lev_fast = best_of(lambda: levenshtein_distance(a, b))
    lev_slow, t_lev_slow = best_of(lambda: levenshtein_cell_loop(a, b), rounds=1)

    return {
        "dtw_fast": dtw_fast,
        "dtw_slow": dtw_slow,
        "dtw_speedup": t_dtw_slow / t_dtw_fast,
        "t_dtw_fast": t_dtw_fast,
        "t_dtw_slow": t_dtw_slow,
        "lev_fast": lev_fast,
        "lev_slow": lev_slow,
        "lev_speedup": t_lev_slow / t_lev_fast,
        "t_lev_fast": t_lev_fast,
        "t_lev_slow": t_lev_slow,
    }


@pytest.fixture(scope="module")
def dp_report():
    return run_dp_benchmark()


class TestDynamicProgramBench:
    def test_dtw_matches_cell_loop(self, dp_report):
        assert dp_report["dtw_fast"] == pytest.approx(
            dp_report["dtw_slow"], rel=1e-9
        )

    def test_levenshtein_matches_cell_loop(self, dp_report):
        assert dp_report["lev_fast"] == dp_report["lev_slow"]

    @pytest.mark.parametrize("key", ["dtw", "lev"])
    def test_vectorized_dp_speedup(self, dp_report, key):
        speedup = dp_report[f"{key}_speedup"]
        if usable_cpus() < 2:
            pytest.skip(
                f"only {usable_cpus()} usable CPU(s); measured {key} "
                f"speedup {speedup:.2f}x (assertion needs >= 2 CPUs)"
            )
        assert speedup >= MIN_DP_SPEEDUP, (
            f"vectorized {key} only {speedup:.2f}x over the cell loop"
        )


def main() -> None:
    dp = run_dp_benchmark()
    print(
        "dynamic programs (vectorized vs pure-Python cell loop, "
        f"{usable_cpus()} usable CPU(s)):"
    )
    print(
        f"  dtw 400x400          loop {dp['t_dtw_slow']:7.3f}s  "
        f"vec {dp['t_dtw_fast']:7.3f}s  {dp['dtw_speedup']:5.1f}x"
    )
    print(
        f"  levenshtein 300x300  loop {dp['t_lev_slow']:7.3f}s  "
        f"vec {dp['t_lev_fast']:7.3f}s  {dp['lev_speedup']:5.1f}x"
    )


if __name__ == "__main__":
    main()
