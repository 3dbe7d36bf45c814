"""Golden conformance corpus: pinned scenario documents per workload.

A mismatch means the simulator, metric registration, online pipeline, or
result serialization changed behavior.  If the change is deliberate,
regenerate the corpus and review the diff:

    python -m repro.sweep --regen-golden
"""

import difflib
import json
import os
from dataclasses import replace

import pytest

from repro.sweep.golden import (
    ATTRIBUTION_GOLDEN_MIXES,
    attribution_golden_path,
    attribution_golden_scenario,
    golden_path,
    golden_scenario,
)
from repro.sweep.scenario import result_to_json, run_scenario
from repro.workloads.registry import SERVER_APPS

pytestmark = pytest.mark.sweep

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden")


def _pretty(text: str):
    return json.dumps(json.loads(text), indent=2, sort_keys=True).splitlines(
        keepends=True
    )


class TestGoldenCorpus:
    def test_corpus_covers_every_workload(self):
        for workload in SERVER_APPS:
            assert os.path.exists(golden_path(workload, GOLDEN_DIR)), (
                f"missing golden file for {workload!r}; regenerate with "
                "'python -m repro.sweep --regen-golden'"
            )

    @pytest.mark.parametrize("workload", SERVER_APPS)
    def test_scenario_matches_pinned_bytes(self, workload):
        path = golden_path(workload, GOLDEN_DIR)
        with open(path) as fh:
            expected = fh.read()
        actual = result_to_json(run_scenario(golden_scenario(workload))) + "\n"
        if actual == expected:
            return
        diff = "".join(
            difflib.unified_diff(
                _pretty(expected),
                _pretty(actual),
                fromfile=f"golden/{os.path.basename(path)} (pinned)",
                tofile="recomputed",
                n=3,
            )
        )
        pytest.fail(
            f"golden conformance mismatch for workload {workload!r}.\n"
            "If this behavior change is intentional, regenerate with\n"
            "    python -m repro.sweep --regen-golden\n"
            "and commit the diff.\n\n" + diff
        )

    def test_explicit_closed_loop_axes_match_pinned_bytes(self):
        """The explicit closed-loop axes must hit the same code path — and
        the same bytes — as the pre-traffic-layer default."""
        scenario = golden_scenario("tpcc")
        explicit = replace(scenario, arrivals="closed", dispatch="rr")
        produced = result_to_json(run_scenario(explicit)) + "\n"
        with open(golden_path("tpcc")) as fh:
            pinned = fh.read()
        assert produced == pinned, "closed-loop traffic diverged from golden"

    def test_golden_scenarios_cover_faults_and_placement(self):
        # The corpus must keep exercising fault injection (tpcc) and
        # multi-machine tier placement (rubis), not just clean runs.
        assert golden_scenario("tpcc").faults != "none"
        assert golden_scenario("rubis").placement.startswith("cluster:")


class TestAttributionGoldenCorpus:
    def test_corpus_covers_every_taxonomy_kind(self):
        from repro.faults.taxonomy import FAULT_TAXONOMY

        for kind in FAULT_TAXONOMY:
            assert kind in ATTRIBUTION_GOLDEN_MIXES
            assert os.path.exists(attribution_golden_path(kind, GOLDEN_DIR)), (
                f"missing attribution golden for {kind!r}; regenerate with "
                "'python -m repro.sweep --regen-golden'"
            )

    def test_composed_mix_is_pinned(self):
        # The composed schedule keeps exercising concurrent clauses, an
        # activation window, and a correlated burst.
        spec = ATTRIBUTION_GOLDEN_MIXES["mix"]
        assert "+" in spec and "@" in spec and "*" in spec

    @pytest.mark.parametrize("name", sorted(ATTRIBUTION_GOLDEN_MIXES))
    def test_attribution_matches_pinned_bytes(self, name):
        path = attribution_golden_path(name, GOLDEN_DIR)
        with open(path) as fh:
            expected = fh.read()
        document = run_scenario(attribution_golden_scenario(name))
        assert document["online"]["attribution"] is not None
        actual = result_to_json(document) + "\n"
        if actual == expected:
            return
        diff = "".join(
            difflib.unified_diff(
                _pretty(expected),
                _pretty(actual),
                fromfile=f"golden/{os.path.basename(path)} (pinned)",
                tofile="recomputed",
                n=3,
            )
        )
        pytest.fail(
            f"attribution golden mismatch for fault mix {name!r}.\n"
            "If this behavior change is intentional, regenerate with\n"
            "    python -m repro.sweep --regen-golden\n"
            "and commit the diff.\n\n" + diff
        )
