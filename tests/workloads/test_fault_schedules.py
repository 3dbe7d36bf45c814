"""Property suite for composable fault schedules.

Four contracts pinned here:

1. Determinism — the same spec and seed produce the same injected set
   and structurally identical request streams, every time.
2. Rates — over many draws the injection rate lands inside a binomial
   confidence interval of the clause rate.
3. Windows — ``@lo-hi`` activation windows are honored *exactly*: every
   faulted id is inside the half-open range, nothing outside it fires.
4. Legacy byte-identity — old ``kind:rate`` specs route through the
   schedule engine yet reproduce the original single-kind wrapper's
   stream request-for-request (same RNG draw order, same injected ids,
   same phase structure), under both generation paths.  The streams are
   pinned as frozen sha256 digests.

Plus pinned regression tests for malformed-spec errors: the message must
name the offending token so a bad ``--faults`` is self-explanatory.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.faults.schedule import (
    FaultClause,
    FaultSchedule,
    ScheduledFaultWorkload,
    parse_fault_schedule,
)
from repro.faults.taxonomy import FAULT_TAXONOMY, LEGACY_FAULT_KINDS
from repro.workloads.registry import SERVER_APPS, make_workload
from repro.workloads.rubis import RubisWorkload
from tests.workloads import reference

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
RATES = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)


def draw(workload, n, seed=0):
    rng = np.random.default_rng(seed)
    return [workload.sample_request(rng, i) for i in range(n)]


def scheduled(spec_text, workload="tpcc"):
    return ScheduledFaultWorkload(
        make_workload(workload), parse_fault_schedule(spec_text)
    )


def fingerprint(spec):
    """Structural identity of a request spec, independent of the concrete
    class (reference ``RequestSpec`` vs stamped ``FastRequestSpec``, which
    has no ``__eq__``)."""
    return (
        spec.request_id,
        spec.app,
        spec.kind,
        tuple(sorted((k, str(v)) for k, v in spec.metadata.items())),
        tuple(
            (
                stage.tier,
                tuple(
                    (
                        phase.name,
                        phase.instructions,
                        phase.behavior.base_cpi,
                        phase.behavior.l2_refs_per_ins,
                        phase.behavior.l2_miss_ratio,
                        phase.behavior.cache_footprint,
                        phase.entry_syscall,
                        phase.syscall_rate_per_ins,
                        tuple(phase.syscall_pool),
                    )
                    for phase in stage.phases
                ),
            )
            for stage in spec.stages
        ),
    )


class TestParser:
    def test_legacy_clause_round_trips(self):
        schedule = parse_fault_schedule("lock_stall:0.25")
        assert schedule.is_legacy
        assert schedule.to_spec() == "lock_stall:0.25"
        (clause,) = schedule.clauses
        assert clause.kind == "lock_stall" and clause.rate == 0.25

    def test_full_grammar_round_trips(self):
        text = "gc_pause:0.2@5-40%kind=new_order*3+cache_thrash:0.1%tenant=2"
        schedule = parse_fault_schedule(text)
        assert not schedule.is_legacy
        first, second = schedule.clauses
        assert first.window == (5, 40)
        assert first.target_kind == "new_order"
        assert first.burst == 3
        assert second.target_tenant == 2
        assert parse_fault_schedule(schedule.to_spec()) == schedule

    def test_every_taxonomy_kind_parses(self):
        for kind in FAULT_TAXONOMY:
            schedule = parse_fault_schedule(f"{kind}:0.3")
            assert schedule.kinds == (kind,)

    def test_non_legacy_kind_is_not_legacy_schedule(self):
        assert not parse_fault_schedule("gc_pause:0.3").is_legacy

    def test_options_in_any_order(self):
        a = parse_fault_schedule("gc_pause:0.2@0-10*2")
        b = parse_fault_schedule("gc_pause:0.2*2@0-10")
        assert a == b

    def test_clause_validation_mirrors_parser(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultClause(kind="gremlins", rate=0.2)
        with pytest.raises(ValueError, match=r"rate 1.5 must be in \[0, 1\]"):
            FaultClause(kind="gc_pause", rate=1.5)
        with pytest.raises(ValueError, match="window"):
            FaultClause(kind="gc_pause", rate=0.2, window=(5, 5))
        with pytest.raises(ValueError, match="burst"):
            FaultClause(kind="gc_pause", rate=0.2, burst=0)
        with pytest.raises(ValueError, match="at least one clause"):
            FaultSchedule(clauses=())


class TestMalformedSpecs:
    """Error messages must name the offending token (pinned strings —
    the CLIs surface these verbatim via ArgumentTypeError)."""

    @pytest.mark.parametrize(
        ("spec", "message"),
        [
            ("", r"empty fault spec ''"),
            ("   ", r"empty fault spec '   '"),
            ("lock_stall", r"clause 'lock_stall' must start with kind:rate"),
            ("gremlins:0.2", r"unknown fault kind 'gremlins'"),
            ("gc_pause:oops",
             r"fault spec clause 'gc_pause:oops': fault rate 'oops' is not "
             r"a number"),
            ("gc_pause:1.5", r"fault rate 1.5 must be in \[0, 1\]"),
            ("gc_pause:-0.1", r"fault rate -0.1 must be in \[0, 1\]"),
            ("gc_pause:0.2@5", r"bad activation window '@5'"),
            ("gc_pause:0.2@9-3", r"empty activation window '@9-3'"),
            ("gc_pause:0.2@1-5@2-6", r"duplicate activation window '@2-6'"),
            ("gc_pause:0.2%kind=", r"bad target '%kind='"),
            ("gc_pause:0.2%shard=3", r"unknown target '%shard=3'"),
            ("gc_pause:0.2%tenant=abc", r"tenant 'abc' in '%tenant=abc'"),
            ("gc_pause:0.2%kind=a%kind=b", r"duplicate target '%kind=b'"),
            ("gc_pause:0.2*x", r"bad burst '\*x'"),
            ("gc_pause:0.2*2*3", r"duplicate burst option '\*3'"),
            ("gc_pause:0.2+", r"empty fault clause"),
            ("+gc_pause:0.2", r"empty fault clause"),
        ],
    )
    def test_message_names_offending_token(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_fault_schedule(spec)

    def test_cli_rejects_bad_spec_with_usage_error(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["--workload", "tpcc", "--faults", "gc_pause:oops"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "fault spec clause 'gc_pause:oops'" in err
        assert "'oops' is not a number" in err

    def test_serve_cli_rejects_bad_spec(self, capsys):
        from repro.serve.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["load-test", "--faults", "lock_stall:0.2@banana"]
            )
        assert excinfo.value.code == 2
        assert "bad activation window '@banana'" in capsys.readouterr().err


class TestDeterminism:
    @given(seed=SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_same_seed_same_stream(self, seed):
        spec_text = "gc_pause:0.3+cache_thrash:0.2@0-25*2"
        a = scheduled(spec_text)
        b = scheduled(spec_text)
        specs_a = draw(a, 40, seed=seed)
        specs_b = draw(b, 40, seed=seed)
        assert a.injected_ids == b.injected_ids
        assert a.injected_kinds == b.injected_kinds
        assert [fingerprint(s) for s in specs_a] == [
            fingerprint(s) for s in specs_b
        ]

    @given(seed=SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_ground_truth_matches_metadata(self, seed):
        w = scheduled("membw_saturation:0.4")
        specs = draw(w, 60, seed=seed)
        stamped = {
            s.request_id: s.metadata["injected_fault"]
            for s in specs
            if s.metadata.get("injected_fault") is not None
        }
        assert set(stamped) == w.injected_ids
        assert stamped == w.injected_kinds


class TestRates:
    @given(rate=RATES, seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_rate_within_binomial_ci(self, rate, seed):
        n = 300
        w = scheduled(f"slow_replica:{rate:g}")
        draw(w, n, seed=seed)
        observed = len(w.injected_ids)
        # 4.5-sigma binomial band: false-failure odds ~1e-5 per example.
        sigma = math.sqrt(n * rate * (1.0 - rate))
        assert abs(observed - n * rate) <= 4.5 * sigma + 1.0

    def test_rate_zero_and_one(self):
        silent = scheduled("gray_degradation:0")
        draw(silent, 50, seed=3)
        assert silent.injected_ids == set()
        loud = scheduled("gray_degradation:1")
        draw(loud, 50, seed=3)
        assert loud.injected_ids == set(range(50))


class TestWindows:
    @given(
        lo=st.integers(min_value=0, max_value=30),
        span=st.integers(min_value=1, max_value=30),
        seed=SEEDS,
    )
    @settings(max_examples=25, deadline=None)
    def test_window_honored_exactly(self, lo, span, seed):
        hi = lo + span
        w = scheduled(f"lock_convoy:0.9@{lo}-{hi}")
        draw(w, 70, seed=seed)
        assert all(lo <= rid < hi for rid in w.injected_ids)

    def test_window_transitions_emit_events(self):
        w = scheduled("gc_pause:0.5@10-20")
        draw(w, 30, seed=5)
        events = w.drain_fault_events()
        kinds = [e["kind"] for e in events]
        assert kinds == ["fault_window_start", "fault_window_end"]
        assert events[0]["request_id"] == 10
        assert events[1]["request_id"] == 20
        assert all(e["fault"] == "gc_pause" for e in events)
        # Drained: a second drain is empty.
        assert w.drain_fault_events() == []


class TestTargetsAndBursts:
    def test_kind_target_only_faults_that_kind(self):
        w = scheduled("slowdown:0.9%kind=new_order")
        specs = draw(w, 80, seed=2)
        kinds = {s.request_id: s.kind for s in specs}
        assert w.injected_ids, "target kind never sampled at this seed"
        assert all(kinds[rid] == "new_order" for rid in w.injected_ids)

    def test_tenant_target_needs_tagged_traffic(self):
        w = scheduled("slowdown:1%tenant=3")
        draw(w, 20, seed=2)
        assert w.injected_ids == set()
        w.note_tenant(3)
        rng = np.random.default_rng(9)
        w.sample_request(rng, 100)
        assert w.injected_ids == {100}

    def test_burst_faults_consecutive_requests(self):
        # Rate 1 in a 1-wide window: the hit at lo starts a burst that
        # must carry the next burst-1 eligible requests.
        w = scheduled("cache_thrash:1@5-6*4")
        draw(w, 30, seed=7)
        assert w.injected_ids == {5}
        # Window blocks eligibility beyond id 5, so the burst is pinned
        # to eligible ids only.  Without a window the burst runs free:
        w2 = scheduled("cache_thrash:0.2*5")
        draw(w2, 120, seed=7)
        ids = sorted(w2.injected_ids)
        # Every hit is part of a run of >= min(5, remaining) consecutive
        # ids — check the first full run.
        first = ids[0]
        assert set(range(first, first + 5)) <= w2.injected_ids

    def test_multiple_clauses_stamp_primary_and_full_list(self):
        w = scheduled("lock_stall:1+gc_pause:1")
        spec = draw(w, 1, seed=4)[0]
        assert spec.metadata["injected_fault"] == "lock_stall"
        assert spec.metadata["injected_faults"] == ["lock_stall", "gc_pause"]
        assert w.injected_kinds[0] == "lock_stall"


#: sha256 of one legacy ``kind:rate`` stream per cell: the sorted
#: injected ids, then every spec's :func:`fingerprint`.  Cells cross the
#: three legacy kinds, the five server apps and two (rate, seed) pairs,
#: 25 requests each.  The original single-kind ``FaultInjectingWorkload``
#: and the schedule engine both reproduced every digest when they were
#: frozen; the schedule engine is the one fault wrapper left.
LEGACY_DIGESTS = {
    "webserver-lock_stall:0.25-seed1":
        "bc1d63ccd76dc9c5f796356177ad1205353fe411b6444265c865d51962f41056",
    "webserver-lock_stall:0.6-seed2":
        "33bea63de0f4072e3b2156eb19ae560d588ac6e4404c49abf0681f23583f05bd",
    "tpcc-lock_stall:0.25-seed1":
        "ba22dfb2c35b1fad9f91bde6545585ce8f9a6883bd0567326b4d62c16cc42a14",
    "tpcc-lock_stall:0.6-seed2":
        "871176b44ede6a984cfbf992bd1d8d8c77203869e5308050a9f60639540bcc63",
    "tpch-lock_stall:0.25-seed1":
        "107411c6bac3b8acf119e1c7de8143c2080e726768270d67490a6182a489505a",
    "tpch-lock_stall:0.6-seed2":
        "5dff52de3e09126be1d677a1cc3e9986624233864f909f09f113b41ecbb81086",
    "rubis-lock_stall:0.25-seed1":
        "b0cb7d2b2625f70a128d68eefc9b1d7d224b4f585015eac7fb2f5bf4115e3e0e",
    "rubis-lock_stall:0.6-seed2":
        "128b0deeca3c7d0941000d694d1c84ab90ff95ffe3587068dccb390f40cfb8ed",
    "webwork-lock_stall:0.25-seed1":
        "261dc9661566f48e0e6bb26d31902e3cf07c4095e14cc7dbca7df636a3a73197",
    "webwork-lock_stall:0.6-seed2":
        "3f66865ca58f6a59a34212ca03266bcca313fb624709d116b6d5a9b053eec678",
    "webserver-cache_thrash:0.25-seed1":
        "3cadcb51c1b59e0db8ad78e580640754dfe77b87f265dc0bc26394bdaf158984",
    "webserver-cache_thrash:0.6-seed2":
        "dd738a91b99421728ead2ef75abf28061ed25511e2ad5616cc21e124573d9bd5",
    "tpcc-cache_thrash:0.25-seed1":
        "d44097ca432de85e00f79c92457f56764116e6739d44973f0bd4c6a5be4c436b",
    "tpcc-cache_thrash:0.6-seed2":
        "c83d847a1a4544ae0606ae7ee0b9bce52a76b6a13d57ecce21cce10a68f55f1b",
    "tpch-cache_thrash:0.25-seed1":
        "0039d08b56a0caa43b9a23f27fcb93fe03e37cbc012ee057395d28d9fe622b11",
    "tpch-cache_thrash:0.6-seed2":
        "519321eb9b22c7474c1cae0796fb5b4fd57e79dc01d1f5e03108b1353e8a8c35",
    "rubis-cache_thrash:0.25-seed1":
        "ae1b598f03ee67ef9e60839785c4e1e5b3a077308b0f20d00a60c7cb8502cab4",
    "rubis-cache_thrash:0.6-seed2":
        "407795c28a76b27636b982dcb8bc850fae9fdae28105d234b2a5a328044c5cab",
    "webwork-cache_thrash:0.25-seed1":
        "6738ca2411d68270fc7f8867feebf4bf5a1bb246764ecee621720f2e97736ca3",
    "webwork-cache_thrash:0.6-seed2":
        "add7c4df5d0a06eaf28f9bed26d4b274958f954992d657f065a40d354a426d7d",
    "webserver-slowdown:0.25-seed1":
        "8238acc06602717dec518fabe029ba273be6f16f6854d0fc18ae5169e6a8b852",
    "webserver-slowdown:0.6-seed2":
        "085c9522fd0d3568bd712935f707007b49dd60311643e403cf06d34bb25aba14",
    "tpcc-slowdown:0.25-seed1":
        "50410fce5e1b7907991990788225a69df534589d6fbe81bde83397700c0409cf",
    "tpcc-slowdown:0.6-seed2":
        "d35e48892269c9c3d8825b13d8d1f7116eb47e1aec20fe5387ac76c75e3f1e34",
    "tpch-slowdown:0.25-seed1":
        "ae718904f1988729c44b49b54c853e660ecf24a44b1ad93281290e7b70a89ffb",
    "tpch-slowdown:0.6-seed2":
        "2b288e8ccccdf831be090b45c5b85b83a7a6890f3f82f8e5f5821c7cf1b77c19",
    "rubis-slowdown:0.25-seed1":
        "3af560d7937f7bccbdb99d4c5fbca298bb93ee143a74d037e1cc4da9ed12c776",
    "rubis-slowdown:0.6-seed2":
        "6f8c87355c90ad0b0460485e18b665d2912e0b3898da1d2fbacaf3bca7d2b65a",
    "webwork-slowdown:0.25-seed1":
        "3cc07afd2599b1440a7cf21500e14d6d854a9a80bbc1455e034fb1863df48666",
    "webwork-slowdown:0.6-seed2":
        "07dd688b223b6b33b3ff94ae2a41f01a45aa79ff4331cc6bac6bcaed9050d4db",
}

#: The same digest over the rubis ``cache_thrash:0.4`` stream at seed 13
#: (30 requests), reached under both the scalar reference generator and
#: the block-stamping one.
RUBIS_CACHE_THRASH_DIGEST = (
    "4def1eba39a3227f60ab784b9473e897197bc9377a30c4ede63d0789759b1d53"
)


def stream_digest(workload, n, seed):
    """sha256 over a faulted stream's injected ids and spec fingerprints."""
    specs = draw(workload, n, seed=seed)
    h = hashlib.sha256()
    h.update(repr(sorted(workload.injected_ids)).encode())
    for spec in specs:
        h.update(repr(fingerprint(spec)).encode())
    return h.hexdigest()


def legacy_cells():
    """(cell name, app, kind, rate, seed) for every frozen legacy cell."""
    for kind in LEGACY_FAULT_KINDS:
        for app in SERVER_APPS:
            for rate, seed in ((0.25, 1), (0.6, 2)):
                yield f"{app}-{kind}:{rate!r}-seed{seed}", app, kind, rate, seed


class TestLegacyByteIdentity:
    """Old ``kind:rate`` specs through the schedule engine reproduce the
    original single-kind wrapper's stream exactly, pinned as digests."""

    def test_streams_identical(self):
        names = []
        for name, app, kind, rate, seed in legacy_cells():
            names.append(name)
            new = scheduled(f"{kind}:{rate!r}", app)
            assert stream_digest(new, 25, seed) == LEGACY_DIGESTS[name], name
        assert sorted(names) == sorted(LEGACY_DIGESTS)

    @pytest.mark.parametrize(
        "generator", [reference.RubisWorkload, RubisWorkload],
        ids=["reference", "block"],
    )
    def test_identical_under_both_generation_paths(self, generator):
        new = ScheduledFaultWorkload(
            generator(), parse_fault_schedule("cache_thrash:0.4")
        )
        assert stream_digest(new, 30, 13) == RUBIS_CACHE_THRASH_DIGEST

    def test_registry_spec_string_unchanged(self):
        from repro.workloads.registry import make_faulted_workload

        w = make_faulted_workload("tpcc", "lock_stall:0.25")
        assert w.schedule.to_spec() == "lock_stall:0.25"
