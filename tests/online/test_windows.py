"""Incremental windower: unit behavior and parity with offline resampling."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class LoopWindower:
    """The windower without its single-chunk step: every period with
    instruction progress goes through the loop.  Kept as the oracle."""

    def __init__(self, window_instructions):
        self.window_instructions = float(window_instructions)
        self.fill = 0.0
        self.carry = [0.0, 0.0, 0.0, 0.0]
        self.windows_emitted = 0

    def feed_counters(self, instructions, cycles, l2_refs, l2_misses):
        carry = self.carry
        if instructions <= 0.0:
            carry[1] += cycles
            carry[2] += l2_refs
            carry[3] += l2_misses
            return []
        completed = []
        window_instructions = self.window_instructions
        fill = self.fill
        consumed = 0.0
        while instructions - consumed > 0.0:
            room = window_instructions - fill
            remaining = instructions - consumed
            take = room if room < remaining else remaining
            fraction = take / instructions
            carry[0] += instructions * fraction
            carry[1] += cycles * fraction
            carry[2] += l2_refs * fraction
            carry[3] += l2_misses * fraction
            fill += take
            consumed += take
            if fill >= window_instructions - 1e-9:
                completed.append(tuple(carry))
                self.windows_emitted += 1
                fill = 0.0
                carry[0] = carry[1] = carry[2] = carry[3] = 0.0
        self.fill = fill
        return completed


def bits(value):
    return struct.pack("<d", value)


#: Where a period ends: `offset` past the window edge (around the 1e-9
#: tolerance), `k` ulps of the window past it, or anywhere, as a
#: fraction of the window.
PERIOD_ENDS = st.one_of(
    st.tuples(st.just("edge"), st.one_of(
        st.sampled_from([-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9]),
        st.floats(-3e-9, 3e-9),
    )),
    st.tuples(st.just("ulps"), st.integers(-4, 4)),
    st.tuples(st.just("free"), st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
        st.floats(0.0, 3.5),
    )),
)
COUNTS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 1e7)
)


class TestSingleChunkStep:
    """A period that completes no window is added to the open window
    without entering ``feed_counters``' loop; everything must equal the
    loop's result bit for bit, periods ending within 1e-9 (or a few
    ulps) of a window edge included."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from([100.0, 100_000.0, 1e6, 1e8]),
        st.lists(st.tuples(PERIOD_ENDS, COUNTS, COUNTS, COUNTS),
                 min_size=1, max_size=40),
    )
    def test_equals_loop(self, window, steps):
        windower = IncrementalWindower(window)
        oracle = LoopWindower(window)
        for (end, at), cycles, refs, misses in steps:
            if end == "edge":
                instructions = window - oracle.fill + at
            elif end == "ulps":
                instructions = window - oracle.fill + at * math.ulp(window)
            else:
                instructions = at * window
            counters = (instructions, cycles, refs, misses)
            got = windower.feed_counters(*counters)
            expected = oracle.feed_counters(*counters)
            assert [tuple(map(bits, w)) for w in got] == [
                tuple(map(bits, w)) for w in expected
            ]
            state = windower.to_state()
            assert bits(state["fill"]) == bits(oracle.fill)
            assert list(map(bits, state["carry"].values())) == list(
                map(bits, oracle.carry)
            )
            assert state["windows_emitted"] == oracle.windows_emitted

    def test_period_just_short_of_the_edge_completes_the_window(self):
        """Within the 1e-9 tolerance the loop closes the window; the
        single-chunk step must not take such a period."""
        windower = IncrementalWindower(1e6)
        assert windower.feed_counters(1e6 - 5e-10, 2e6, 0.0, 0.0) == [
            (1e6 - 5e-10, 2e6, 0.0, 0.0)
        ]
        assert windower.feed_counters(1e6 - 2e-9, 2e6, 0.0, 0.0) == []


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
