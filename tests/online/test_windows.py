"""Incremental windower: unit behavior and parity with offline resampling."""

import numpy as np
import pytest

from repro.online.windows import IncrementalWindower


def period(ins, cyc=0.0, refs=0.0, misses=0.0):
    """One period's counters, in ``feed_counters`` argument order."""
    return (ins, cyc, refs, misses)


class TestWindower:
    def test_emits_on_exact_boundary(self):
        w = IncrementalWindower(100.0)
        assert w.feed_counters(*period(100.0, cyc=200.0)) == [
            (100.0, 200.0, 0.0, 0.0)
        ]
        assert w.windows_emitted == 1

    def test_spreads_period_across_windows(self):
        w = IncrementalWindower(100.0)
        out = w.feed_counters(*period(250.0, cyc=500.0))
        assert len(out) == 2
        for instructions, cycles, _, _ in out:
            assert instructions == pytest.approx(100.0)
            assert cycles == pytest.approx(200.0)
        # 50 instructions remain in the open window.
        assert w.to_state()["fill"] == pytest.approx(50.0)

    def test_accumulates_small_periods(self):
        w = IncrementalWindower(100.0)
        assert w.feed_counters(*period(60.0, refs=6.0)) == []
        out = w.feed_counters(*period(60.0, refs=6.0))
        assert len(out) == 1
        assert out[0][2] == pytest.approx(6.0 + 6.0 * 40 / 60)

    def test_zero_instruction_period_folds_activity(self):
        w = IncrementalWindower(100.0)
        w.feed_counters(*period(0.0, cyc=50.0))
        out = w.feed_counters(*period(100.0))
        assert out[0][1] == pytest.approx(50.0)

    def test_flush_only_when_no_window_emitted(self):
        short = IncrementalWindower(100.0)
        short.feed_counters(*period(30.0, cyc=90.0))
        assert short.flush_counters()[0][0] == pytest.approx(30.0)
        # A request past one window drops its partial tail (offline
        # total // window convention).
        longer = IncrementalWindower(100.0)
        longer.feed_counters(*period(130.0))
        assert longer.flush_counters() == []

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            IncrementalWindower(0.0)

    def test_state_round_trip_mid_window(self):
        w = IncrementalWindower(100.0)
        w.feed_counters(*period(70.0, cyc=99.0, refs=3.0))
        restored = IncrementalWindower.from_state(w.to_state())
        a = w.feed_counters(*period(60.0, cyc=120.0))
        b = restored.feed_counters(*period(60.0, cyc=120.0))
        assert a == b


class TestOfflineParity:
    def test_matches_request_trace_windowing(self, tpcc_run):
        """Feeding compensated period counters incrementally reproduces the
        offline cumulative-interpolation window series."""
        window = 100_000.0
        for trace in tpcc_run.traces[:10]:
            w = IncrementalWindower(window)
            online = []
            for i in range(trace.num_periods):
                online.extend(
                    w.feed_counters(
                        float(trace.instructions[i]),
                        float(trace.cycles[i]),
                        float(trace.l2_refs[i]),
                        float(trace.l2_misses[i]),
                    )
                )
            online.extend(w.flush_counters())
            offline = trace.series("cpi", window).values
            assert len(online) == offline.size
            got = np.array(
                [cycles / ins if ins > 0 else 0.0 for ins, cycles, _, _ in online]
            )
            np.testing.assert_allclose(got, offline, rtol=1e-9, atol=1e-12)
