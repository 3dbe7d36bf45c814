"""Benchmark: the parallel + cached pairwise-distance engine.

A fig7-style workload — DTW with asynchrony penalty over 150 request CPI
variation sequences (11,175 pairs) — computed three ways:

* serial double loop (the pre-engine baseline),
* `DistanceEngine(jobs=4)` fanning four contiguous pair slices to
  forked workers through `repro.parallel.ordered_map`,
* a 100%-hit rerun against the engine's on-disk cache.

All three matrices must be bit-identical.  The >= 2x speedup assertion is
hardware-gated: it needs at least 4 usable CPUs, so on smaller machines it
reports the measured ratio and skips.

A second, single-process workload covers figure 7's Levenshtein baseline:
60 syscall-name sequences of 150-300 names (1,770 pairs), the per-pair
`levenshtein_distance` loop against `DistanceEngine(jobs=1)`, which
hands every pair to the bit-parallel `levenshtein_pairwise` kernel.  The
matrices must be bit-identical and the engine >= 3x faster (CPU-gated
like the DTW kernel bench: needs >= 2 usable CPUs, otherwise reports and
skips).

A third, single-process workload covers the lane-scheduled DTW kernel:
40 CPI series with figure 7's heavy-tailed lengths (mostly tens of
windows, a few hundreds), the per-pair `dtw_distance` loop against
`DistanceEngine(jobs=1)` with `PenaltyDtw(p)`, which hands every pair to
`dtw_pairwise` in one call.  The matrices must be bit-identical and the
engine >= 2x faster (CPU-gated the same way).  Run the two
single-process parts with `pytest benchmarks/bench_distance_engine.py -k
"levenshtein or dtw"`, or run the file directly for a readable report:

    PYTHONPATH=src python benchmarks/bench_distance_engine.py
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.distances import levenshtein_distance
from repro.core.distengine import DistanceCache, DistanceEngine
from repro.core.dtw import dtw_distance
from repro.core.kernels import PenaltyDtw

N_REQUESTS = 150
PENALTY = 0.4
JOBS = 4
N_SYSCALL_SEQUENCES = 60
LEVENSHTEIN_MIN_SPEEDUP = 3.0
N_HEAVY_SERIES = 40
DTW_MIN_SPEEDUP = 2.0


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fig7_style_series(n: int = N_REQUESTS, seed: int = 7):
    """Synthetic CPI variation patterns: length-varying noisy random walks
    around a few per-kind baselines, like fig7's per-request series."""
    rng = np.random.default_rng(seed)
    baselines = (1.6, 2.4, 3.1)
    series = []
    for i in range(n):
        length = int(rng.integers(40, 90))
        base = baselines[i % len(baselines)]
        walk = np.cumsum(rng.normal(0.0, 0.08, size=length))
        series.append(base + walk + rng.normal(0.0, 0.15, size=length))
    return series


def heavy_tailed_series(n: int = N_HEAVY_SERIES, seed: int = 7):
    """CPI series with figure 7's heavy-tailed lengths: most requests run
    tens of windows, a few run hundreds (webserver's large files, tpcc's
    long transactions), so one long series widens many pairs."""
    rng = np.random.default_rng(seed)
    baselines = (1.6, 2.4, 3.1)
    series = []
    for i in range(n):
        length = int(min(600, 8 + rng.pareto(1.3) * 30))
        walk = np.cumsum(rng.normal(0.0, 0.08, size=length))
        series.append(baselines[i % 3] + walk + rng.normal(0.0, 0.15, size=length))
    return series


def fig7_style_syscalls(n: int = N_SYSCALL_SEQUENCES, seed: int = 7):
    """Synthetic syscall-name sequences of 150-300 names: each request kind
    loops over its own call pattern with random substitutions, like fig7's
    thinned per-request sequences."""
    rng = np.random.default_rng(seed)
    names = np.array(
        ["read", "write", "open", "close", "poll", "futex", "mmap", "munmap",
         "sendto", "recvfrom", "stat", "lseek", "epoll_wait", "brk"]
    )
    patterns = [rng.integers(0, names.size, size=k) for k in (5, 8, 12)]
    sequences = []
    for i in range(n):
        length = int(rng.integers(150, 301))
        ids = np.resize(patterns[i % len(patterns)], length)
        noisy = rng.random(length) < 0.15
        ids[noisy] = rng.integers(0, names.size, size=int(noisy.sum()))
        sequences.append(names[ids].tolist())
    return sequences


def serial_matrix(items, fn):
    n = len(items)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(fn(items[i], items[j]))
            matrix[i, j] = matrix[j, i] = d
    return matrix


def distance(a, b):
    return dtw_distance(a, b, asynchrony_penalty=PENALTY)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_benchmark(cache_path: str):
    items = fig7_style_series()
    key = f"dtw:p={PENALTY!r}"

    reference, t_serial = timed(lambda: serial_matrix(items, distance))

    parallel_engine = DistanceEngine(jobs=JOBS)
    par, t_parallel = timed(lambda: parallel_engine.matrix(items, distance))

    warm_engine = DistanceEngine(jobs=JOBS, cache=DistanceCache(path=cache_path))

    def fill():
        values = warm_engine.matrix(items, distance, distance_key=key)
        warm_engine.cache.save()  # the cache's owner writes it once
        return values

    warm, t_warm = timed(fill)
    # Fresh engine + fresh cache object: every hit comes from disk state.
    cold_engine = DistanceEngine(jobs=JOBS, cache=DistanceCache(path=cache_path))
    hit, t_cached = timed(
        lambda: cold_engine.matrix(items, distance, distance_key=key)
    )

    return {
        "reference": reference,
        "parallel": par,
        "cache_fill": warm,
        "cache_hit": hit,
        "t_serial": t_serial,
        "t_parallel": t_parallel,
        "t_cache_fill": t_warm,
        "t_cached": t_cached,
        "cache_hits": cold_engine.cache.hits,
        "cache_misses": cold_engine.cache.misses,
        "n_pairs": N_REQUESTS * (N_REQUESTS - 1) // 2,
    }


def run_levenshtein_benchmark():
    items = fig7_style_syscalls()
    reference, t_serial = timed(lambda: serial_matrix(items, levenshtein_distance))
    batched, t_batched = timed(
        lambda: DistanceEngine(jobs=1).matrix(items, levenshtein_distance)
    )
    return {
        "reference": reference,
        "batched": batched,
        "t_serial": t_serial,
        "t_batched": t_batched,
        "n_pairs": len(items) * (len(items) - 1) // 2,
    }


def run_dtw_benchmark():
    items = heavy_tailed_series()
    reference, t_serial = timed(lambda: serial_matrix(items, distance))
    batched, t_batched = timed(
        lambda: DistanceEngine(jobs=1).matrix(items, PenaltyDtw(PENALTY))
    )
    return {
        "reference": reference,
        "batched": batched,
        "t_serial": t_serial,
        "t_batched": t_batched,
        "n_pairs": len(items) * (len(items) - 1) // 2,
        "lengths": [len(s) for s in items],
    }


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    path = tmp_path_factory.mktemp("distcache") / "distances.json"
    return run_benchmark(str(path))


class TestDistanceEngineBench:
    def test_parallel_bit_identical(self, report):
        assert np.array_equal(report["parallel"], report["reference"])

    def test_cached_bit_identical(self, report):
        assert np.array_equal(report["cache_fill"], report["reference"])
        assert np.array_equal(report["cache_hit"], report["reference"])

    def test_cache_rerun_is_all_hits(self, report):
        assert report["cache_misses"] == 0
        assert report["cache_hits"] == 1  # one lookup serves the whole matrix

    def test_cache_rerun_near_constant_time(self, report):
        # A 100%-hit rerun does no distance arithmetic; it should beat the
        # serial computation by a wide margin even on one core.
        assert report["t_cached"] < report["t_serial"] / 2

    def test_parallel_speedup(self, report):
        speedup = report["t_serial"] / report["t_parallel"]
        if usable_cpus() < JOBS:
            pytest.skip(
                f"only {usable_cpus()} usable CPU(s); measured speedup "
                f"{speedup:.2f}x (needs >= {JOBS} CPUs for the 2x claim)"
            )
        assert speedup >= 2.0


@pytest.fixture(scope="module")
def levenshtein_report():
    return run_levenshtein_benchmark()


class TestLevenshteinEngineBench:
    def test_levenshtein_batched_bit_identical(self, levenshtein_report):
        r = levenshtein_report
        assert np.array_equal(r["batched"], r["reference"])

    def test_levenshtein_batched_speedup(self, levenshtein_report):
        r = levenshtein_report
        speedup = r["t_serial"] / r["t_batched"]
        if usable_cpus() < 2:
            pytest.skip(
                f"only {usable_cpus()} usable CPU(s); measured speedup "
                f"{speedup:.2f}x (assertion needs >= 2 CPUs)"
            )
        assert speedup >= LEVENSHTEIN_MIN_SPEEDUP, (
            f"batched levenshtein speedup {speedup:.2f}x below "
            f"{LEVENSHTEIN_MIN_SPEEDUP:.0f}x"
        )


@pytest.fixture(scope="module")
def dtw_report():
    return run_dtw_benchmark()


class TestDtwEngineBench:
    def test_dtw_batched_bit_identical(self, dtw_report):
        r = dtw_report
        assert np.array_equal(r["batched"], r["reference"])

    def test_dtw_batched_speedup(self, dtw_report):
        r = dtw_report
        speedup = r["t_serial"] / r["t_batched"]
        if usable_cpus() < 2:
            pytest.skip(
                f"only {usable_cpus()} usable CPU(s); measured speedup "
                f"{speedup:.2f}x (assertion needs >= 2 CPUs)"
            )
        assert speedup >= DTW_MIN_SPEEDUP, (
            f"lane-scheduled dtw speedup {speedup:.2f}x below "
            f"{DTW_MIN_SPEEDUP:.0f}x"
        )


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        r = run_benchmark(os.path.join(tmp, "distances.json"))
    identical = np.array_equal(r["parallel"], r["reference"]) and np.array_equal(
        r["cache_hit"], r["reference"]
    )
    print(
        f"fig7-style DTW matrix: {N_REQUESTS} requests, {r['n_pairs']} pairs "
        f"({usable_cpus()} usable CPU(s))"
    )
    print(f"  serial loop          {r['t_serial']:8.2f} s")
    print(
        f"  engine jobs={JOBS}        {r['t_parallel']:8.2f} s "
        f"({r['t_serial'] / r['t_parallel']:.2f}x vs serial)"
    )
    print(f"  cache fill           {r['t_cache_fill']:8.2f} s")
    print(
        f"  cache-hit rerun      {r['t_cached']:8.2f} s "
        f"({r['cache_hits']} hit for {r['n_pairs']} pairs, "
        f"{r['t_serial'] / r['t_cached']:.0f}x vs serial)"
    )
    print(f"  matrices bit-identical: {identical}")

    lev = run_levenshtein_benchmark()
    print(
        f"fig7-style levenshtein matrix: {N_SYSCALL_SEQUENCES} syscall "
        f"sequences, {lev['n_pairs']} pairs"
    )
    print(f"  per-pair loop        {lev['t_serial']:8.2f} s")
    print(
        f"  engine (batched)     {lev['t_batched']:8.2f} s "
        f"({lev['t_serial'] / lev['t_batched']:.2f}x vs per-pair)"
    )
    print(
        "  matrices bit-identical: "
        f"{np.array_equal(lev['batched'], lev['reference'])}"
    )

    dtw = run_dtw_benchmark()
    lengths = dtw["lengths"]
    print(
        f"heavy-tailed dtw matrix: {N_HEAVY_SERIES} CPI series of "
        f"{min(lengths)}-{max(lengths)} windows (median "
        f"{int(np.median(lengths))}), {dtw['n_pairs']} pairs, p={PENALTY}"
    )
    print(f"  per-pair loop        {dtw['t_serial']:8.2f} s")
    print(
        f"  engine (batched)     {dtw['t_batched']:8.2f} s "
        f"({dtw['t_serial'] / dtw['t_batched']:.2f}x vs per-pair)"
    )
    print(
        "  matrices bit-identical: "
        f"{np.array_equal(dtw['batched'], dtw['reference'])}"
    )


if __name__ == "__main__":
    main()
