"""Tests for static workload characterization.

Calibration facts read off sampled request specs, no simulation: each
kind's mean of a per-request quantity, and for a whole workload the mean
over its kinds.
"""

import numpy as np
import pytest

from repro.workloads.registry import make_workload


def sample(app, n_requests, seed):
    workload = make_workload(app)
    rng = np.random.default_rng(seed)
    return workload, [workload.sample_request(rng, i) for i in range(n_requests)]


def kind_means(specs, quantity):
    """``{kind: mean of quantity(spec)}`` over the sampled specs."""
    by_kind = {}
    for spec in specs:
        by_kind.setdefault(spec.kind, []).append(quantity(spec))
    return {kind: float(np.mean(values)) for kind, values in by_kind.items()}


def footprint(spec):
    """Instruction-weighted cache footprint of one request."""
    weighted = sum(p.instructions * p.behavior.cache_footprint for p in spec.phases())
    return weighted / spec.total_instructions


def syscalls_per_mega_ins(spec):
    """Expected system calls per million instructions: phase entries,
    rate-driven calls and the two socket calls of each stage hand-off."""
    calls = 2 * (len(spec.stages) - 1)
    for p in spec.phases():
        calls += (p.entry_syscall is not None) + p.instructions * p.syscall_rate_per_ins
    return calls / spec.total_instructions * 1e6


class TestDescribe:
    def test_tpcc_profile_matches_paper_facts(self):
        _, specs = sample("tpcc", 600, seed=1)
        kinds = [s.kind for s in specs]
        assert kinds.count("new_order") / 600 == pytest.approx(0.45, abs=0.06)
        assert kinds.count("payment") / 600 == pytest.approx(0.43, abs=0.06)
        instructions = kind_means(specs, lambda s: s.total_instructions)
        assert instructions["new_order"] == pytest.approx(1.4e6, rel=0.25)
        assert kind_means(specs, lambda s: len(s.stages))["new_order"] == 1.0

    def test_shares_sum_to_one(self):
        """Every sampled kind is one the workload declares."""
        workload, specs = sample("webserver", 300, seed=2)
        kinds = [s.kind for s in specs]
        shares = [kinds.count(kind) / 300 for kind in workload.kinds]
        assert sum(shares) == pytest.approx(1.0)

    def test_rubis_multi_stage(self):
        _, specs = sample("rubis", 40, seed=3)
        for stages in kind_means(specs, lambda s: len(s.stages)).values():
            assert stages == 5.0

    def test_cache_appetite_ordering(self):
        """TPCH wants the cache, WeBWorK does not — the Figure 1 driver."""
        _, tpch = sample("tpch", 34, seed=4)
        _, webwork = sample("webwork", 10, seed=4)
        assert np.mean(list(kind_means(tpch, footprint).values())) > 0.8
        assert np.mean(list(kind_means(webwork, footprint).values())) < 0.15

    def test_syscall_density_ordering(self):
        """Web server chattiest, WeBWorK quietest (Figure 4 driver)."""
        _, web = sample("webserver", 100, seed=5)
        _, webwork = sample("webwork", 8, seed=5)
        web_density = np.mean(list(kind_means(web, syscalls_per_mega_ins).values()))
        webwork_density = np.mean(
            list(kind_means(webwork, syscalls_per_mega_ins).values())
        )
        assert web_density > 30 * webwork_density
