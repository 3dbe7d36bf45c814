"""Event-loop ordering contracts: tie-breaking and arrival batching.

These pin two behaviors the traffic layer depends on:

* same-timestamp events settle by the explicit, documented key
  ``(time, _EVENT_PRIORITY[kind], core_id)``;
* arrival-heap batching compares timestamps exactly, with no absolute
  epsilon whose meaning would depend on the run's time magnitude.
"""

import numpy as np
import pytest

from repro.kernel.simulator import (
    _CALENDAR_KINDS,
    _EVENT_PRIORITY,
    ServerSimulator,
    SimConfig,
)
from repro.traffic import PoissonArrivals, TrafficConfig
from repro.workloads.registry import make_workload


def make_sim(**overrides):
    defaults = dict(
        num_requests=8,
        concurrency=4,
        seed=0,
        traffic=TrafficConfig(arrivals=PoissonArrivals(1000.0)),
    )
    defaults.update(overrides)
    return ServerSimulator(make_workload("tpcc"), SimConfig(**defaults))


def poke(sim, core_id, kind, t):
    """Make ``core_id`` busy with a ``kind`` deadline at ``t`` in the calendar."""
    sim.cores[core_id].task = object()
    sim._dl[_CALENDAR_KINDS.index(kind), core_id] = t


class TestTieBreakKey:
    def test_priority_order_is_documented_and_total(self):
        assert _EVENT_PRIORITY == {
            "arrival": 0,
            "phase_end": 1,
            "quantum_end": 2,
            "resched": 3,
            "interrupt": 4,
            "ratecall": 5,
        }
        assert sorted(_EVENT_PRIORITY.values()) == list(range(6))

    def test_arrival_wins_same_timestamp_core_events(self):
        """An arrival at exactly a core's phase_end time fires first."""
        sim = make_sim()
        sim._pending_arrivals.clear()
        sim._defer_admission(100.0)
        poke(sim, 0, "phase_end", 100.0)
        t, core_id, kind = sim._next_event()
        assert (t, core_id, kind) == (100.0, -1, "arrival")

    def test_core_ties_break_to_lowest_core_id(self):
        sim = make_sim()
        # Two idle-free cores with identical synthetic interrupt times.
        sim._pending_arrivals.clear()
        for cid in (2, 1):
            sim.runqueues[cid].append(None)  # placeholder; dispatch not used
        poke(sim, 2, "interrupt", 500.0)
        poke(sim, 1, "interrupt", 500.0)
        t, core_id, kind = sim._next_event()
        assert (t, core_id, kind) == (500.0, 1, "interrupt")

    def test_kind_priority_beats_core_id(self):
        """phase_end on a high core outranks quantum_end on a low core."""
        sim = make_sim()
        sim._pending_arrivals.clear()
        poke(sim, 0, "quantum_end", 500.0)
        poke(sim, 3, "phase_end", 500.0)
        t, core_id, kind = sim._next_event()
        assert (t, core_id, kind) == (500.0, 3, "phase_end")

    def test_full_run_is_deterministic(self):
        a = make_sim(seed=13).run()
        b = make_sim(seed=13).run()
        assert a.wall_cycles == b.wall_cycles
        assert np.array_equal(a.request_cpis(), b.request_cpis())


class TestArrivalBatching:
    """Exact-timestamp batching, independent of time magnitude."""

    def test_exact_ties_pop_together(self):
        sim = make_sim()
        sim._pending_arrivals.clear()
        t0 = 1e6
        sim._defer_admission(t0)
        sim._defer_admission(t0)
        sim._defer_admission(np.nextafter(t0, np.inf))
        sim.now = t0
        sim._on_arrival(-1)
        assert sim._admitted == 2
        assert len(sim._pending_arrivals) == 1

    def test_large_now_regression(self):
        """Beyond ~2^33 cycles the old ``now + 1e-9`` slack was a no-op
        (1e-9 < one ULP), so batching depended on magnitude.  With exact
        comparison the behavior at 2^40 matches the behavior at 10."""
        for magnitude in (10.0, 2.0**40):
            sim = make_sim()
            sim._pending_arrivals.clear()
            later = np.nextafter(magnitude, np.inf)
            assert later > magnitude  # distinct floats at both magnitudes
            sim._defer_admission(magnitude)
            sim._defer_admission(later)
            sim.now = magnitude
            sim._on_arrival(-1)
            assert sim._admitted == 1, magnitude
            assert sim._pending_arrivals[0][0] == later

    def test_no_epsilon_slack_at_small_now(self):
        """An arrival 1e-10 cycles in the future is *not* part of the
        current batch (the old epsilon would have popped it)."""
        sim = make_sim()
        sim._pending_arrivals.clear()
        sim._defer_admission(5.0 + 1e-10)
        sim.now = 5.0
        sim._on_arrival(-1)
        assert sim._admitted == 0
        assert len(sim._pending_arrivals) == 1

    def test_heap_orders_equal_times_by_insertion(self):
        sim = make_sim()
        sim._pending_arrivals.clear()
        sim._defer_admission(7.0, tenant=0)
        sim._defer_admission(7.0, tenant=1)
        first = sim._pending_arrivals[0]
        assert first[0] == 7.0
        assert first[4] == 0  # FIFO within a timestamp via the seq field
