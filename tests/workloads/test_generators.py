"""Tests for the five application workload generators."""

import numpy as np
import pytest

from repro.workloads.registry import (
    SERVER_APPS,
    FixedKindWorkload,
    available_workloads,
    make_workload,
)
from repro.workloads.tpcc import TRANSACTION_MIX, TpccWorkload
from repro.workloads.tpch import QUERY_PLANS, TpchWorkload
from repro.workloads.webserver import FILE_CLASSES, WebServerWorkload
from repro.workloads.webwork import NUM_PROBLEMS, WeBWorKWorkload


def draw(workload, n, seed=0):
    rng = np.random.default_rng(seed)
    return [workload.sample_request(rng, i) for i in range(n)]


class TestRegistry:
    def test_all_server_apps_registered(self):
        names = available_workloads()
        for app in SERVER_APPS:
            assert app in names

    def test_microbenchmarks_registered(self):
        assert "mbench_spin" in available_workloads()
        assert "mbench_data" in available_workloads()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_workload("nope")

    @pytest.mark.parametrize("app", SERVER_APPS)
    def test_generators_produce_valid_specs(self, app):
        for spec in draw(make_workload(app), 5, seed=3):
            assert spec.app == app
            assert spec.total_instructions > 0
            assert spec.kind in make_workload(app).kinds or app == "webwork"

    @pytest.mark.parametrize("app", SERVER_APPS)
    def test_determinism_same_seed(self, app):
        a = draw(make_workload(app), 3, seed=11)
        b = draw(make_workload(app), 3, seed=11)
        for x, y in zip(a, b):
            assert x.kind == y.kind
            assert x.total_instructions == y.total_instructions


class TestWebServer:
    def test_file_class_mix(self):
        specs = draw(WebServerWorkload(), 600, seed=1)
        counts = {c[0]: 0 for c in FILE_CLASSES}
        for s in specs:
            counts[s.kind] += 1
        assert counts["class1"] > counts["class0"] > counts["class2"] > counts["class3"]

    def test_request_length_few_hundred_thousand(self):
        """Paper: a web request executes a few hundred thousand instructions."""
        specs = [s for s in draw(WebServerWorkload(), 200, seed=2) if s.kind == "class1"]
        lengths = np.array([s.total_instructions for s in specs])
        assert 60_000 < lengths.mean() < 500_000

    def test_writev_header_phase_present(self):
        spec = draw(WebServerWorkload(), 1, seed=3)[0]
        entries = [p.entry_syscall for p in spec.phases()]
        assert "writev" in entries and "stat" in entries and "shutdown" in entries

    def test_header_phase_has_high_cpi(self):
        spec = draw(WebServerWorkload(), 1, seed=4)[0]
        header = next(p for p in spec.phases() if p.name == "write_headers")
        body = next(p for p in spec.phases() if p.name.startswith("send_body"))
        assert header.behavior.base_cpi > 2 * body.behavior.base_cpi

    def test_large_files_chunked_with_poll_lseek(self):
        w = WebServerWorkload()
        rng = np.random.default_rng(0)
        for _ in range(4000):
            spec = w.sample_request(rng, 0)
            if spec.metadata["file_bytes"] > 200_000:
                names = [p.name for p in spec.phases()]
                assert any(n.startswith("poll_wait") for n in names)
                assert any(n.startswith("seek") for n in names)
                break
        else:
            pytest.fail("no large file drawn")

    def test_catalog_file_reuse(self):
        """SPECweb99 serves a fixed dataset: files repeat across requests."""
        specs = draw(WebServerWorkload(), 200, seed=5)
        ids = [s.metadata["file_id"] for s in specs]
        assert len(set(ids)) < len(ids) / 2

    def test_same_file_same_size(self):
        specs = draw(WebServerWorkload(), 300, seed=6)
        by_file = {}
        for s in specs:
            by_file.setdefault(s.metadata["file_id"], set()).add(
                s.metadata["file_bytes"]
            )
        assert all(len(sizes) == 1 for sizes in by_file.values())

    def test_catalog_stable_across_instances(self):
        a = WebServerWorkload()
        b = WebServerWorkload()
        assert a._catalog == b._catalog


class TestTpcc:
    def test_transaction_mix(self):
        """The paper's 45/43/4/4/4 transaction mix."""
        specs = draw(TpccWorkload(), 1500, seed=1)
        counts = {k: 0 for k, _ in TRANSACTION_MIX}
        for s in specs:
            counts[s.kind] += 1
        assert counts["new_order"] / 1500 == pytest.approx(0.45, abs=0.05)
        assert counts["payment"] / 1500 == pytest.approx(0.43, abs=0.05)
        for minor in ("order_status", "delivery", "stock_level"):
            assert counts[minor] / 1500 == pytest.approx(0.04, abs=0.03)

    def test_new_order_length(self):
        """Figure 6 shows a new-order transaction at ~1.4 M instructions."""
        w = TpccWorkload()
        rng = np.random.default_rng(2)
        lengths = [
            w.build(rng, i, "new_order").total_instructions
            for i in range(30)
        ]
        assert 1_000_000 < np.mean(lengths) < 1_900_000

    def test_distinct_type_cpi_levels(self):
        """Distinct per-type solo CPIs produce Figure 1's multi-cluster shape."""
        w = TpccWorkload()
        rng = np.random.default_rng(3)
        means = {}
        for kind in ("new_order", "order_status", "stock_level"):
            cpis = [
                w.build(rng, i, kind).solo_cpi(220.0) for i in range(10)
            ]
            means[kind] = np.mean(cpis)
        assert means["stock_level"] > means["new_order"]
        spread = max(means.values()) - min(means.values())
        assert spread > 0.2

    def test_build_transaction_unknown_kind(self):
        with pytest.raises(ValueError):
            TpccWorkload().build(np.random.default_rng(0), 0, "refund")

    def test_delivery_has_long_syscall_free_stretch(self):
        w = TpccWorkload()
        spec = w.build(np.random.default_rng(4), 0, "delivery")
        free_run = 0
        longest = 0
        for p in spec.phases():
            if p.syscall_rate_per_ins == 0 and p.entry_syscall is None:
                free_run += p.instructions
                longest = max(longest, free_run)
            else:
                free_run = 0
        assert longest > 2_000_000  # > ~1 ms of execution


class TestTpch:
    def test_seventeen_queries(self):
        assert len(QUERY_PLANS) == 17
        assert set(QUERY_PLANS) == {
            "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q11", "Q12",
            "Q13", "Q14", "Q15", "Q17", "Q19", "Q20", "Q22",
        }

    def test_equal_proportions(self):
        specs = draw(TpchWorkload(), 1700, seed=1)
        counts = {}
        for s in specs:
            counts[s.kind] = counts.get(s.kind, 0) + 1
        for kind, count in counts.items():
            assert count / 1700 == pytest.approx(1 / 17, abs=0.03), kind

    def test_q20_length_near_80M(self):
        """Figure 8 shows Q20 spanning ~80 M instructions."""
        w = TpchWorkload()
        rng = np.random.default_rng(2)
        lengths = [w.build(rng, i, "Q20").total_instructions for i in range(10)]
        assert 70e6 < np.mean(lengths) < 90e6

    def test_uniform_behavior_within_query(self):
        """TPCH queries behave uniformly: low solo intra-request variation."""
        w = TpchWorkload()
        spec = w.build(np.random.default_rng(3), 0, "Q6")
        series = spec.solo_series(1_000_000, 220.0)
        assert series.std() / series.mean() < 0.5

    def test_scan_phases_have_large_footprint(self):
        w = TpchWorkload()
        spec = w.build(np.random.default_rng(4), 0, "Q6")
        scan = next(p for p in spec.phases() if p.name.startswith("scan"))
        assert scan.behavior.cache_footprint >= 0.9


class TestRubis:
    def test_three_plus_tier_stages(self):
        spec = draw(make_workload("rubis"), 1, seed=1)[0]
        tiers = [s.tier for s in spec.stages]
        assert tiers[0].startswith("tomcat")
        assert any("jboss" in t for t in tiers)
        assert "mysql" in tiers

    def test_length_a_few_million(self):
        lengths = [s.total_instructions for s in draw(make_workload("rubis"), 40, seed=2)]
        assert 1e6 < np.mean(lengths) < 8e6

    def test_components_recorded(self):
        spec = draw(make_workload("rubis"), 1, seed=3)[0]
        assert spec.metadata["components"]


class TestWeBWorK:
    def test_length_hundreds_of_millions(self):
        lengths = [
            s.total_instructions for s in draw(WeBWorKWorkload(), 8, seed=1)
        ]
        assert 1.5e8 < np.mean(lengths) < 7e8

    def test_identical_prelude_across_requests(self):
        """Figure 10's failure mode: the first ~20M instructions are the
        same processing semantics for every request."""
        specs = draw(WeBWorKWorkload(), 5, seed=2)
        prelude_names = [
            tuple(p.name for p in s.phases())[:5] for s in specs
        ]
        assert len(set(prelude_names)) == 1
        prelude_ins = [
            sum(p.instructions for p in list(s.phases())[:5]) for s in specs
        ]
        assert min(prelude_ins) > 10_000_000  # beyond the 10M prefix

    def test_problem_seeded_structure(self):
        """Two requests for the same problem share macro structure."""
        w = WeBWorKWorkload()
        a = w.build(np.random.default_rng(1), 0, "problem_954")
        b = w.build(np.random.default_rng(2), 1, "problem_954")
        names_a = [p.name for p in a.phases()]
        names_b = [p.name for p in b.phases()]
        assert names_a == names_b
        # but per-request jitter keeps lengths slightly different
        assert a.total_instructions != b.total_instructions
        assert abs(a.total_instructions - b.total_instructions) < (
            0.2 * a.total_instructions
        )

    def test_different_problems_differ(self):
        w = WeBWorKWorkload()
        a = w.build(np.random.default_rng(1), 0, "problem_10")
        b = w.build(np.random.default_rng(1), 1, "problem_20")
        assert [p.name for p in a.phases()] != [p.name for p in b.phases()]

    def test_problem_id_range(self):
        assert NUM_PROBLEMS == 3000
        specs = draw(WeBWorKWorkload(), 5, seed=3)
        for s in specs:
            assert 0 <= s.metadata["problem_id"] < NUM_PROBLEMS

    def test_tiny_cache_footprint(self):
        """WeBWorK's compute phases barely touch the shared L2 (Figure 1)."""
        spec = draw(WeBWorKWorkload(), 1, seed=4)[0]
        footprints = [
            p.behavior.cache_footprint
            for p in spec.phases()
            if not p.name.startswith("render_gfx")
        ]
        assert max(footprints) <= 0.2


class TestFixedKindWorkload:
    def test_tpch_fixed(self):
        w = FixedKindWorkload("tpch", "Q6")
        specs = draw(w, 3, seed=1)
        assert all(s.kind == "Q6" for s in specs)

    def test_webwork_fixed(self):
        w = FixedKindWorkload("webwork", "problem_954")
        specs = draw(w, 2, seed=1)
        assert all(s.metadata["problem_id"] == 954 for s in specs)

    def test_tpcc_fixed(self):
        w = FixedKindWorkload("tpcc", "delivery")
        specs = draw(w, 3, seed=1)
        assert all(s.kind == "delivery" for s in specs)

    def test_webserver_fixed(self):
        w = FixedKindWorkload("webserver", "class2")
        specs = draw(w, 3, seed=1)
        assert all(s.kind == "class2" for s in specs)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FixedKindWorkload("tpch", "Q99")

    @pytest.mark.parametrize(
        "app,kind", (("mbench_spin", "spin"), ("mbench_data", "data"))
    )
    def test_app_without_build_rejected(self, app, kind):
        with pytest.raises(ValueError, match=f"workload '{app}' cannot build"):
            FixedKindWorkload(app, kind)


#: A kind each server app does not have (a near-miss where one exists).
UNKNOWN_KINDS = {
    "webserver": "class4",
    "tpcc": "neworder",
    "tpch": "Q99",
    "rubis": "BrowseRegions",
    "webwork": "problem_5000",
}


class TestBuildUnknownKind:
    """``build`` names the app and the kind instead of failing deep in a
    lookup or stamping a request outside the catalog."""

    @pytest.mark.parametrize("app", SERVER_APPS)
    def test_unknown_kind_raises(self, app):
        kind = UNKNOWN_KINDS[app]
        rng = np.random.default_rng(0)
        message = f"workload '{app}' has no kind '{kind}'"
        with pytest.raises(ValueError, match=message):
            make_workload(app).build(rng, 0, kind)

    @pytest.mark.parametrize(
        "kind", ("problem_-3", "problem_0954", "problem_3000", "954")
    )
    def test_webwork_kind_outside_catalog(self, kind):
        with pytest.raises(ValueError, match="has no kind"):
            WeBWorKWorkload().build(np.random.default_rng(0), 0, kind)

    @pytest.mark.parametrize("app", SERVER_APPS)
    def test_every_kind_builds(self, app):
        workload = make_workload(app)
        rng = np.random.default_rng(1)
        for kind in workload.kinds[:20]:
            assert workload.build(rng, 0, kind).kind == kind


class TestMicrobench:
    def test_spin_zero_footprint(self):
        spec = draw(make_workload("mbench_spin"), 1, seed=1)[0]
        phase = next(spec.phases())
        assert phase.behavior.cache_footprint == 0.0
        assert phase.behavior.l2_refs_per_ins == 0.0

    def test_data_full_footprint(self):
        spec = draw(make_workload("mbench_data"), 1, seed=1)[0]
        phase = next(spec.phases())
        assert phase.behavior.cache_footprint == 1.0
        assert phase.behavior.l2_miss_ratio > 0.5
