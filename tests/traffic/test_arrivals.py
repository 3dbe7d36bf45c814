"""Property tests for the pluggable arrival processes."""

import json
import math

import numpy as np
import pytest

from repro.traffic import (
    Arrival,
    ClosedLoop,
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
    TraceReplay,
    ZipfArrivals,
    load_schedule,
    parse_arrivals,
    save_schedule,
)

GHZ = 3.0
CYCLES_PER_S = GHZ * 1e9


def empirical_rate(arrivals):
    times = [a.cycle for a in arrivals]
    span_s = (times[-1] - times[0]) / CYCLES_PER_S
    return (len(times) - 1) / span_s


class TestScheduleShape:
    @pytest.mark.parametrize(
        "process",
        [
            PoissonArrivals(2000.0),
            OnOffArrivals(4000.0, 200.0, 5.0, 5.0),
            DiurnalArrivals(2000.0, 10.0, 0.8),
            ZipfArrivals(2000.0, 1.1, 8),
        ],
        ids=lambda p: p.kind,
    )
    def test_sorted_positive_and_sized(self, process):
        arrivals = process.schedule(np.random.default_rng(7), 200, GHZ)
        times = [a.cycle for a in arrivals]
        assert len(arrivals) == 200
        assert all(t > 0 for t in times)
        assert times == sorted(times)

    @pytest.mark.parametrize(
        "process",
        [
            PoissonArrivals(2000.0),
            OnOffArrivals(4000.0, 200.0, 5.0, 5.0),
            DiurnalArrivals(2000.0, 10.0, 0.8),
            ZipfArrivals(2000.0, 1.1, 8),
        ],
        ids=lambda p: p.kind,
    )
    def test_same_seed_same_schedule(self, process):
        a = process.schedule(np.random.default_rng(11), 100, GHZ)
        b = process.schedule(np.random.default_rng(11), 100, GHZ)
        assert a == b

    def test_closed_loop_has_no_schedule(self):
        with pytest.raises(RuntimeError, match="no schedule"):
            ClosedLoop().schedule(np.random.default_rng(0), 10, GHZ)


class TestEmpiricalRates:
    """Long-run rates land inside a generous confidence interval.

    For n exponential gaps the measured rate is within ~4/sqrt(n)
    relative error at far beyond 99.99% confidence; n=4000 makes that
    ~6%, and we allow 10%.
    """

    N = 4000

    def test_poisson_rate(self):
        arrivals = PoissonArrivals(1500.0).schedule(
            np.random.default_rng(1), self.N, GHZ
        )
        assert empirical_rate(arrivals) == pytest.approx(1500.0, rel=0.10)

    def test_onoff_mean_rate(self):
        process = OnOffArrivals(6000.0, 500.0, 4.0, 4.0)
        arrivals = process.schedule(np.random.default_rng(2), self.N, GHZ)
        assert empirical_rate(arrivals) == pytest.approx(
            process.mean_rate_per_s(), rel=0.20
        )

    def test_diurnal_mean_rate(self):
        process = DiurnalArrivals(2000.0, 5.0, 0.9)
        arrivals = process.schedule(np.random.default_rng(3), self.N, GHZ)
        assert empirical_rate(arrivals) == pytest.approx(2000.0, rel=0.15)

    def test_onoff_is_burstier_than_poisson(self):
        """Interarrival CoV: ON-OFF > 1 (bursty), Poisson ~= 1."""

        def gap_cov(process, seed):
            arrivals = process.schedule(
                np.random.default_rng(seed), self.N, GHZ
            )
            gaps = np.diff([a.cycle for a in arrivals])
            return gaps.std() / gaps.mean()

        poisson_cov = gap_cov(PoissonArrivals(1000.0), 4)
        bursty_cov = gap_cov(OnOffArrivals(5000.0, 50.0, 3.0, 12.0), 4)
        assert poisson_cov == pytest.approx(1.0, abs=0.15)
        assert bursty_cov > poisson_cov + 0.3


class TestPoissonInvariances:
    """The superposition/thinning properties that define a Poisson process."""

    N = 3000

    def test_merge_invariance(self):
        """Two merged independent Poisson streams look like one at the
        summed rate: gap mean matches and gap CoV stays ~1."""
        a = PoissonArrivals(800.0).schedule(np.random.default_rng(10), self.N, GHZ)
        b = PoissonArrivals(1200.0).schedule(np.random.default_rng(11), self.N, GHZ)
        merged = sorted([x.cycle for x in a] + [x.cycle for x in b])
        # Restrict to the overlap where both streams are still active.
        horizon = min(a[-1].cycle, b[-1].cycle)
        merged = [t for t in merged if t <= horizon]
        gaps = np.diff(merged)
        measured = CYCLES_PER_S / gaps.mean()
        assert measured == pytest.approx(2000.0, rel=0.10)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.15)

    def test_thinning_invariance(self):
        """Keeping each arrival with p=0.4 yields Poisson at 0.4*rate."""
        arrivals = PoissonArrivals(2500.0).schedule(
            np.random.default_rng(12), self.N, GHZ
        )
        keep_rng = np.random.default_rng(13)
        thinned = [a.cycle for a in arrivals if keep_rng.random() < 0.4]
        gaps = np.diff(thinned)
        measured = CYCLES_PER_S / gaps.mean()
        assert measured == pytest.approx(1000.0, rel=0.12)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.15)


class TestZipfTenants:
    def test_tenant_popularity_is_skewed_and_ranked(self):
        process = ZipfArrivals(1000.0, 1.2, 6)
        arrivals = process.schedule(np.random.default_rng(5), 6000, GHZ)
        counts = np.bincount([a.tenant for a in arrivals], minlength=6)
        assert counts.argmax() == 0
        # Rank ordering holds for the well-populated head.
        assert counts[0] > counts[1] > counts[2]
        # And matches the analytic Zipf share within sampling noise.
        weights = 1.0 / np.arange(1, 7, dtype=float) ** 1.2
        expected = weights / weights.sum()
        assert counts[0] / counts.sum() == pytest.approx(expected[0], rel=0.10)

    def test_single_tenant_processes_tag_none(self):
        arrivals = PoissonArrivals(1000.0).schedule(
            np.random.default_rng(6), 10, GHZ
        )
        assert all(a.tenant is None for a in arrivals)


class TestTraceReplay:
    def test_round_trip_is_byte_exact(self, tmp_path):
        path = str(tmp_path / "schedule.jsonl")
        entries = [
            (0.1 + 0.37 * i, (i % 3) if i % 2 else None) for i in range(50)
        ]
        save_schedule(entries, path)
        loaded = load_schedule(path)
        assert loaded == entries
        # save(load(x)) reproduces the file bytes exactly.
        path2 = str(tmp_path / "schedule2.jsonl")
        save_schedule(loaded, path2)
        with open(path, "rb") as f1, open(path2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_replay_consumes_no_rng(self, tmp_path):
        path = str(tmp_path / "schedule.jsonl")
        save_schedule([(float(i), None) for i in range(10)], path)
        rng = np.random.default_rng(0)
        TraceReplay(path).schedule(rng, 10, GHZ)
        assert float(rng.random()) == float(np.random.default_rng(0).random())

    def test_replay_cycles_match_timestamps(self, tmp_path):
        path = str(tmp_path / "schedule.jsonl")
        save_schedule([(2.5, 1), (7.0, None)], path)
        arrivals = TraceReplay(path).schedule(np.random.default_rng(0), 2, GHZ)
        assert arrivals == [
            Arrival(2.5 * GHZ * 1e3, tenant=1),
            Arrival(7.0 * GHZ * 1e3, tenant=None),
        ]

    def test_replay_needs_enough_entries(self, tmp_path):
        path = str(tmp_path / "schedule.jsonl")
        save_schedule([(1.0, None)], path)
        with pytest.raises(ValueError, match="has 1 arrivals"):
            TraceReplay(path).schedule(np.random.default_rng(0), 5, GHZ)

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "nope"}) + "\n")
        with pytest.raises(ValueError, match="not a repro-arrival-schedule"):
            load_schedule(str(path))

    def test_load_rejects_decreasing_times(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"format": "repro-arrival-schedule", "version": 1})
            + "\n"
            + json.dumps({"t_us": 5.0})
            + "\n"
            + json.dumps({"t_us": 4.0})
            + "\n"
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            load_schedule(str(path))

    def test_load_rejects_non_finite_times(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"format": "repro-arrival-schedule", "version": 1})
            + "\n"
            + json.dumps({"t_us": math.inf})
            + "\n"
        )
        with pytest.raises(ValueError, match="finite"):
            load_schedule(str(path))


class TestParseArrivals:
    def test_each_form(self, tmp_path):
        assert isinstance(parse_arrivals("closed"), ClosedLoop)
        assert parse_arrivals("poisson:1500") == PoissonArrivals(1500.0)
        assert parse_arrivals("onoff:4000,200,5,5") == OnOffArrivals(
            4000.0, 200.0, 5.0, 5.0
        )
        assert parse_arrivals("diurnal:2000,10,0.8") == DiurnalArrivals(
            2000.0, 10.0, 0.8
        )
        assert parse_arrivals("zipf:2000,1.1,8") == ZipfArrivals(2000.0, 1.1, 8)
        # A replay schedule is read when the spec is parsed, so the file
        # must exist.
        schedule = str(tmp_path / "x.jsonl")
        save_schedule([(1.0, None)], schedule)
        assert parse_arrivals(f"replay:{schedule}") == TraceReplay(schedule)

    @pytest.mark.parametrize(
        "text",
        [
            "bogus",
            "closed:1",
            "poisson:",
            "poisson:fast",
            "poisson:-5",
            "onoff:1,2,3",
            "zipf:100,1.1,2.5",
            "zipf:100,1.1,1",
            "diurnal:100,10,1.5",
            "replay:",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_arrivals(text)


NAN = float("nan")


class TestNanParametersRefused:
    """NaN passes ``<= 0`` and ``< 0`` tests; every rate, duration and
    exponent check must fail it.  Nothing here draws a schedule: a NaN
    diurnal rate would make the thinning loop run forever."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PoissonArrivals(NAN),
            lambda: OnOffArrivals(NAN, 100.0, 10.0, 10.0),
            lambda: OnOffArrivals(4000.0, NAN, 10.0, 10.0),
            lambda: OnOffArrivals(4000.0, 100.0, NAN, 10.0),
            lambda: OnOffArrivals(4000.0, 100.0, 10.0, NAN),
            lambda: DiurnalArrivals(NAN, 100.0, 1.0),
            lambda: DiurnalArrivals(2000.0, NAN, 1.0),
            lambda: DiurnalArrivals(2000.0, 100.0, NAN),
            lambda: ZipfArrivals(NAN, 1.1, 8),
            lambda: ZipfArrivals(2000.0, NAN, 8),
            lambda: ZipfArrivals(2000.0, 1.1, NAN),
        ],
    )
    def test_constructor_refuses_nan(self, make):
        with pytest.raises(ValueError, match="nan|positive"):
            make()

    @pytest.mark.parametrize(
        "spec",
        [
            "poisson:nan",
            "onoff:nan,100,10,10",
            "onoff:4000,nan,10,10",
            "onoff:4000,100,nan,10",
            "diurnal:nan,100,1",
            "diurnal:2000,nan,1",
            "zipf:2000,nan,8",
        ],
    )
    def test_simulate_exits_2_before_simulating(self, spec, monkeypatch, capsys):
        from repro import cli

        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(cli.ServerSimulator, "run", refuse)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["tpcc", "--requests", "5", "--arrivals", spec])
        assert excinfo.value.code == 2
        assert "repro-simulate: error:" in capsys.readouterr().err


class TestInfiniteParametersRefused:
    """An infinite rate puts every arrival at cycle 0, and an infinite
    diurnal peak makes the thinning loop run forever; rates, durations,
    periods, exponents and the peak must be finite.  Nothing here draws a
    schedule."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PoissonArrivals(math.inf),
            lambda: OnOffArrivals(math.inf, 100.0, 10.0, 10.0),
            lambda: OnOffArrivals(4000.0, math.inf, 10.0, 10.0),
            lambda: OnOffArrivals(4000.0, 100.0, math.inf, 10.0),
            lambda: OnOffArrivals(4000.0, 100.0, 10.0, math.inf),
            lambda: DiurnalArrivals(math.inf, 100.0, 1.0),
            lambda: DiurnalArrivals(2000.0, math.inf, 1.0),
            lambda: DiurnalArrivals(1e308, 1000.0, 1.0),
            lambda: ZipfArrivals(math.inf, 1.1, 8),
            lambda: ZipfArrivals(2000.0, math.inf, 8),
            lambda: ZipfArrivals(2000.0, 1.1, math.inf),
        ],
    )
    def test_constructor_refuses_inf(self, make):
        with pytest.raises(ValueError, match="finite|tenants"):
            make()

    def test_finite_peak_is_accepted(self):
        assert DiurnalArrivals(1e308, 1000.0, 0.0).mean_rate_per_s() == 1e308

    @pytest.mark.parametrize(
        "argv",
        [
            ["--arrivals", "poisson:1e309"],
            ["--arrivals", "onoff:inf,1,1,1"],
            ["--arrivals", "onoff:1,inf,1,1"],
            ["--arrivals", "onoff:1,1,inf,1"],
            ["--arrivals", "diurnal:1,inf,1"],
            ["--arrivals", "diurnal:1e308,1000,1"],
            ["--arrivals", "zipf:inf,1.2,4"],
            ["--arrivals", "zipf:1,inf,4"],
            ["--arrivals", "zipf:1,1.2,inf"],
            ["--offered-load", "inf"],
        ],
    )
    def test_simulate_exits_2_before_simulating(self, argv, monkeypatch, capsys):
        from repro import cli

        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(cli.ServerSimulator, "run", refuse)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["tpcc", "--requests", "5", *argv])
        assert excinfo.value.code == 2
        assert "repro-simulate: error:" in capsys.readouterr().err


class TestReplayScheduleCheckedAtParse:
    """``replay:FILE`` is read and checked when the spec is parsed: a
    damaged or missing schedule stops every entry point before any
    simulation starts, naming the path (and the line)."""

    @pytest.fixture
    def damaged(self, tmp_path):
        path = tmp_path / "schedule.jsonl"
        save_schedule([(1.0, None), (2.0, 1), (3.0, None)], str(path))
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({"tenant": 1})  # file line 3 has no t_us
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_parse_names_path_and_line(self, damaged, tmp_path):
        with pytest.raises(ValueError) as excinfo:
            parse_arrivals(f"replay:{damaged}")
        assert str(excinfo.value) == f"{damaged}, line 3: missing field 't_us'"
        missing = str(tmp_path / "missing.jsonl")
        with pytest.raises(ValueError) as excinfo:
            parse_arrivals(f"replay:{missing}")
        assert str(excinfo.value) == (
            f"{missing}: cannot read arrival schedule "
            "(No such file or directory)"
        )

    def test_simulate_exits_2_before_simulating(
        self, damaged, monkeypatch, capsys
    ):
        from repro import cli

        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(cli.ServerSimulator, "run", refuse)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                ["tpcc", "--requests", "4", "--arrivals", f"replay:{damaged}"]
            )
        assert excinfo.value.code == 2
        assert f"{damaged}, line 3: missing field 't_us'" in capsys.readouterr().err

    def test_load_test_exits_2_before_any_worker(
        self, damaged, monkeypatch, capsys
    ):
        from repro.serve import cli

        def refuse(*args, **kwargs):
            raise AssertionError("load test started")

        monkeypatch.setattr(cli, "run_load_test", refuse)
        with pytest.raises(SystemExit) as excinfo:
            cli.main([
                "load-test", "--workload", "mbench_spin", "--requests", "1",
                "--quiet", "--arrivals", f"replay:{damaged}",
            ])
        assert excinfo.value.code == 2
        assert f"{damaged}, line 3: missing field 't_us'" in capsys.readouterr().err

    def test_sweep_plan_refuses_the_spec(self, damaged, tmp_path, capsys):
        from repro.sweep.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "replay", "workloads": ["tpcc"],
            "sampling": ["interrupt:100"], "seeds": [0], "requests": 4,
            "arrivals": [f"replay:{damaged}"],
        }))
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", str(spec)])
        assert excinfo.value.code == 2
        assert f"{damaged}, line 3: missing field 't_us'" in capsys.readouterr().err
