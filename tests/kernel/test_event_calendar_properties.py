"""Property-based lockdown of the engine's event calendar.

The engine picks the next event with ``min`` and ``list.index`` over a
flat deadline list of ``5 * ncores`` slots whose row-major layout (row =
kind priority, column = core) encodes the documented ``(time,
kind_priority, core_id)`` key.  The oracle here is
the per-core scan the engine used before the calendar: a walk over each
busy core's five timers keeping the minimum key.  The tests pin the
equivalence two ways:

* **poke tests** drive the two selectors directly over adversarial
  deadline matrices (dense ties, infinities, idle cores, pending
  arrivals at equal timestamps) and demand tuple-identical picks;
* **checked runs** subclass the simulator so *every* event selection
  during a real simulation is double-checked against the scan, along
  with time monotonicity and request conservation.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.contention import ContentionEasingScheduler
from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import (
    _CALENDAR_KINDS,
    _EVENT_PRIORITY,
    ServerSimulator,
    SimConfig,
)
from repro.traffic import PoissonArrivals, RandomDispatch, TrafficConfig
from repro.workloads.registry import make_workload
from tests.kernel.test_simulator_properties import RandomWorkload

_INF = math.inf

#: A deliberately tiny value pool so drawn deadlines collide constantly:
#: ties across kinds and cores are exactly where a wrong flattening
#: order would diverge from the reference scan's documented key.
TIE_PRONE_TIMES = [0.0, 1.0, 1.0, 2.0, 2.5, 1e6, 1e6 + 0.5]

deadline = st.one_of(
    st.just(_INF),
    st.sampled_from(TIE_PRONE_TIMES),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
)

#: None = idle core (all timers infinite, no task); otherwise the five
#: timer rows (phase_end, quantum_end, resched, interrupt, ratecall).
core_column = st.one_of(
    st.none(),
    st.tuples(deadline, deadline, deadline, deadline, deadline),
)

calendar = st.tuples(
    st.lists(core_column, min_size=4, max_size=4),
    st.lists(st.sampled_from(TIE_PRONE_TIMES), min_size=0, max_size=2),
)


def _make_sim():
    return ServerSimulator(
        make_workload("mbench_spin"), SimConfig(num_requests=1, seed=0)
    )


def reference_scan(sim):
    """The earliest event by an explicit per-core walk over the timers.

    Seeds the best key with the arrival heap's head, then lets a busy
    core's timer win only with a strictly smaller ``(time,
    _EVENT_PRIORITY[kind], core_id)`` key; idle cores are skipped.
    """
    best = (_INF, len(_EVENT_PRIORITY), -1, "none")
    if sim._pending_arrivals:
        best = (sim._pending_arrivals[0][0], _EVENT_PRIORITY["arrival"],
                -1, "arrival")
    for cid, core in enumerate(sim.cores):
        if core.task is None:
            continue
        for kind in ("phase_end", "quantum_end", "resched", "interrupt",
                     "ratecall"):
            t = float(sim._dl[_CALENDAR_KINDS.index(kind) * sim._ncores + cid])
            if t < _INF:
                key = (t, _EVENT_PRIORITY[kind], cid)
                if key < best[:3]:
                    best = (t, key[1], cid, kind)
    return best[0], best[2], best[3]


class TestNextEventEquivalence:
    """First minimum slot == per-core scan, for arbitrary calendar states."""

    @given(calendar)
    @settings(max_examples=400, deadline=None)
    def test_poked_calendar_matches_reference_scan(self, poke):
        columns, arrivals = poke
        sim = _make_sim()
        for cid, column in enumerate(columns):
            core = sim.cores[cid]
            if column is None:
                core.task = None
                sim._dl[cid :: sim._ncores] = [_INF] * len(_CALENDAR_KINDS)
            else:
                # The reference scan only looks at busy cores; the
                # calendar instead relies on idle columns being all-INF.
                core.task = object()
                for row, value in enumerate(column):
                    sim._dl[row * sim._ncores + cid] = value
        sim._pending_arrivals = [(t, None) for t in sorted(arrivals)]

        assert sim._next_event() == reference_scan(sim)

    @given(calendar)
    @settings(max_examples=100, deadline=None)
    def test_selected_time_is_the_global_minimum(self, poke):
        columns, arrivals = poke
        sim = _make_sim()
        finite = list(arrivals)
        for cid, column in enumerate(columns):
            core = sim.cores[cid]
            if column is None:
                core.task = None
                sim._dl[cid :: sim._ncores] = [_INF] * len(_CALENDAR_KINDS)
            else:
                core.task = object()
                for row, value in enumerate(column):
                    sim._dl[row * sim._ncores + cid] = value
                finite.extend(v for v in column if v < _INF)
        sim._pending_arrivals = [(t, None) for t in sorted(arrivals)]

        t, _, kind = sim._next_event()
        if not finite:
            assert t == _INF and kind == "none"
        else:
            assert t == min(finite)


class CheckedSimulator(ServerSimulator):
    """A run whose every event pick is audited against the scan."""

    def __init__(self, workload, config):
        super().__init__(workload, config)
        self.audited_events = 0
        self._last_time = -_INF

    def _next_event(self):
        fast = ServerSimulator._next_event(self)
        ref = reference_scan(self)
        assert fast == ref, f"event {self.audited_events}: {fast} != {ref}"
        assert fast[0] >= self._last_time, "event time went backwards"
        self._last_time = fast[0]
        self.audited_events += 1
        return fast


def _checked_run(seed, multi_tier=False, **overrides):
    workload = RandomWorkload(seed, multi_tier=multi_tier)
    config = SimConfig(
        sampling=overrides.pop("sampling", SamplingPolicy.interrupt(50.0)),
        num_requests=overrides.pop("num_requests", 6),
        concurrency=4,
        seed=seed,
        **overrides,
    )
    sim = CheckedSimulator(workload, config)
    return sim, sim.run()


class TestCheckedRuns:
    """Every event of a real run, audited against the per-core scan."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_closed_loop(self, seed):
        sim, result = _checked_run(seed)
        assert sim.audited_events > 0
        assert len(result.traces) + result.requests_shed == 6

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_syscall_sampling_ratecall_rows(self, seed):
        sim, result = _checked_run(
            seed, sampling=SamplingPolicy.syscall_triggered(40.0, 200.0)
        )
        assert sim.audited_events > 0
        assert len(result.traces) + result.requests_shed == 6

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_multi_tier(self, seed):
        sim, result = _checked_run(seed, multi_tier=True)
        assert len(result.traces) + result.requests_shed == 6

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_open_loop_overload_conserves_requests(self, seed):
        traffic = TrafficConfig(
            arrivals=PoissonArrivals(rate_per_s=50_000.0),
            dispatch=RandomDispatch(),
            admission_limit=3,
        )
        sim, result = _checked_run(seed, num_requests=10, traffic=traffic)
        assert sim.audited_events > 0
        # Termination conservation: every requested unit is accounted as
        # either a completed trace or a shed arrival.
        assert len(result.traces) + result.requests_shed == 10
        store = result.latency
        assert store.shed == result.requests_shed
        assert store.completed == len(result.traces)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_contention_easing_resched_row(self, seed):
        """The one policy that arms the resched row, audited pick by pick."""
        picked = []

        class Tally(CheckedSimulator):
            def _next_event(self):
                event = CheckedSimulator._next_event(self)
                picked.append(event[2])
                return event

        config = SimConfig(
            sampling=SamplingPolicy.interrupt(50.0),
            scheduler=ContentionEasingScheduler(
                high_usage_threshold=0.002, resched_interval_us=100.0
            ),
            num_requests=10,
            concurrency=4,
            seed=seed,
        )
        sim = Tally(RandomWorkload(seed), config)
        result = sim.run()
        assert "resched" in picked
        assert len(result.traces) == 10
