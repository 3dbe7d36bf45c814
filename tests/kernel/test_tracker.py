"""Tests for request-context tracking and trace serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.counters import SamplingContext, SamplingCostModel
from repro.hardware.cpu import PhaseBehavior
from repro.kernel.tracker import (
    PERIOD_FIELDS,
    RequestTrace,
    RequestTracker,
    minimum_cost_columns,
)
from repro.workloads.base import Phase, RequestSpec, single_stage

B = PhaseBehavior(1.0, 0.01, 0.2, 0.3)


def make_spec(request_id=0):
    return RequestSpec(
        request_id=request_id,
        app="t",
        kind="k",
        stages=single_stage("t", [Phase(name="p", instructions=1000, behavior=B)]),
    )


def period(start, end, core=0, cycles=None, ins=None, refs=0.0, misses=0.0,
           inj_ik=0, inj_int=0):
    """One period row, in ``PERIOD_FIELDS`` order."""
    cycles = cycles if cycles is not None else end - start
    ins = ins if ins is not None else cycles / 2.0
    return (start, end, core, cycles, ins, refs, misses, inj_ik, inj_int)


def make_trace(periods, cost_model=None, syscalls=()):
    return RequestTrace(
        spec=make_spec(),
        arrival_cycle=0.0,
        completion_cycle=max(p[1] for p in periods),
        periods=periods,
        syscall_events=list(syscalls),
        compensation=minimum_cost_columns(cost_model),
        frequency_ghz=3.0,
    )


class TestTracker:
    def test_lifecycle(self):
        tracker = RequestTracker(cost_model=None, frequency_ghz=3.0)
        spec = make_spec()
        tracker.start_request(spec, 0.0)
        assert tracker.open_requests == 1
        tracker.record_syscall(0, 5.0, "read")
        tracker.close_period(0, period(0, 10))
        trace = tracker.finish_request(0, 10.0)
        assert tracker.open_requests == 0
        assert trace.num_periods == 1
        assert trace.syscall_events == [(5.0, "read")]

    def test_duplicate_request_rejected(self):
        tracker = RequestTracker(cost_model=None, frequency_ghz=3.0)
        tracker.start_request(make_spec(), 0.0)
        with pytest.raises(ValueError):
            tracker.start_request(make_spec(), 1.0)

    def test_empty_periods_dropped(self):
        tracker = RequestTracker(cost_model=None, frequency_ghz=3.0)
        tracker.start_request(make_spec(), 0.0)
        tracker.close_period(0, (0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0, 0))
        tracker.close_period(0, period(0, 10))
        trace = tracker.finish_request(0, 10.0)
        assert trace.num_periods == 1

    def test_no_periods_raises(self):
        tracker = RequestTracker(cost_model=None, frequency_ghz=3.0)
        tracker.start_request(make_spec(), 0.0)
        with pytest.raises(ValueError):
            tracker.finish_request(0, 10.0)


class TestTraceBasics:
    def test_periods_sorted_by_start(self):
        trace = make_trace([period(100, 200), period(0, 50)])
        assert trace.start[0] == 0

    def test_totals_and_cpu_time(self):
        trace = make_trace([period(0, 300), period(400, 700)])
        assert trace.total_cycles == pytest.approx(600)
        assert trace.total_instructions == pytest.approx(300)
        assert trace.cpu_time_us() == pytest.approx(600 / 3000)

    def test_overall_cpi(self):
        trace = make_trace([period(0, 100)])
        assert trace.overall_cpi() == pytest.approx(2.0)

    def test_metric_selection(self):
        trace = make_trace([period(0, 100, refs=10.0, misses=4.0)])
        assert trace.overall("l2_refs_per_ins") == pytest.approx(10.0 / 50.0)
        assert trace.overall("l2_miss_per_ins") == pytest.approx(4.0 / 50.0)
        assert trace.overall("l2_miss_ratio") == pytest.approx(0.4)

    def test_unknown_metric_raises(self):
        trace = make_trace([period(0, 100)])
        with pytest.raises(ValueError):
            trace.overall("ipc")

    def test_period_values_drops_zero_denominator(self):
        trace = make_trace(
            [period(0, 100, refs=0.0, misses=0.0), period(100, 200, refs=5.0, misses=1.0)]
        )
        values, weights = trace.period_values("l2_miss_ratio")
        assert values.size == 1
        assert values[0] == pytest.approx(0.2)


class TestCompensation:
    def test_minimum_cost_subtracted(self):
        model = SamplingCostModel()
        ik = model.minimum_cost(SamplingContext.IN_KERNEL)
        raw = period(0, 10_000, cycles=10_000, ins=5000, inj_ik=2)
        trace = make_trace([raw], cost_model=model)
        assert trace.instructions[0] == pytest.approx(5000 - 2 * ik.instructions)
        assert trace.cycles[0] == pytest.approx(10_000 - 2 * ik.cycles)
        # Raw values are preserved alongside.
        assert trace.raw_instructions[0] == pytest.approx(5000)

    def test_never_negative(self):
        model = SamplingCostModel()
        tiny = period(0, 100, cycles=100, ins=10, inj_ik=5)
        trace = make_trace([tiny], cost_model=model)
        assert trace.instructions[0] >= 1.0
        assert trace.cycles[0] >= 1.0

    def test_no_model_keeps_raw(self):
        raw = period(0, 10_000, cycles=10_000, ins=5000, inj_ik=2)
        trace = make_trace([raw], cost_model=None)
        assert trace.instructions[0] == pytest.approx(5000)


class TestWindows:
    def test_window_counters_conserve_mass(self):
        trace = make_trace([period(0, 600), period(600, 1000)])
        win = trace.window_counters(100)
        assert win["instructions"].sum() == pytest.approx(trace.total_instructions)
        assert win["cycles"].sum() == pytest.approx(trace.total_cycles)

    def test_series_values_reasonable(self):
        trace = make_trace([period(0, 100, refs=25.0, misses=5.0)])
        series = trace.series("cpi", 10)
        assert np.allclose(series.values, 2.0)

    def test_series_handles_zero_denominator_windows(self):
        trace = make_trace([period(0, 100, refs=0.0, misses=0.0)])
        series = trace.series("l2_miss_ratio", 10)
        assert np.all(series.values == 0.0)

    def test_invalid_window_raises(self):
        trace = make_trace([period(0, 100)])
        with pytest.raises(ValueError):
            trace.window_counters(0)


class TestExecTimeline:
    def test_exec_offset_skips_gaps(self):
        # Two periods with a scheduling gap between them.
        trace = make_trace([period(0, 100), period(500, 600)])
        assert trace.exec_offset_of_cycle(50) == pytest.approx(50)
        assert trace.exec_offset_of_cycle(300) == pytest.approx(100)  # in gap
        assert trace.exec_offset_of_cycle(550) == pytest.approx(150)
        assert trace.exec_offset_of_cycle(10_000) == pytest.approx(200)

    def test_counters_in_exec_window(self):
        trace = make_trace([period(0, 100), period(500, 600)])
        counters = trace.counters_in_exec_window(50, 150)
        assert counters.cycles == pytest.approx(100)
        assert counters.instructions == pytest.approx(50)

    def test_window_clamped_to_execution(self):
        trace = make_trace([period(0, 100)])
        counters = trace.counters_in_exec_window(-50, 1000)
        assert counters.cycles == pytest.approx(100)

    def test_inverted_window_raises(self):
        trace = make_trace([period(0, 100)])
        with pytest.raises(ValueError):
            trace.counters_in_exec_window(50, 10)


# -- the one-block assembly, pinned bit for bit --------------------------------

#: Every array a trace exposes.
TRACE_ARRAYS = (
    "start",
    "end",
    "core",
    "raw_cycles",
    "raw_instructions",
    "raw_l2_refs",
    "raw_l2_misses",
    "cycles",
    "instructions",
    "l2_refs",
    "l2_misses",
)


def reference_columns(rows, cost_model):
    """The per-column assembly the row block replaced, kept as the oracle.

    A transcription of the former ``RequestTrace.__init__``: argsort the
    start list, build one list and one array per column, then compensate
    column by column.
    """
    order = np.argsort([p[0] for p in rows], kind="stable")
    periods = [rows[i] for i in order]
    out = {
        "start": np.array([p[0] for p in periods]),
        "end": np.array([p[1] for p in periods]),
        "core": np.array([p[2] for p in periods], dtype=int),
        "raw_instructions": np.array([p[4] for p in periods]),
        "raw_cycles": np.array([p[3] for p in periods]),
        "raw_l2_refs": np.array([p[5] for p in periods]),
        "raw_l2_misses": np.array([p[6] for p in periods]),
    }
    n_ik = np.array([p[7] for p in periods], dtype=float)
    n_int = np.array([p[8] for p in periods], dtype=float)
    if cost_model is None:
        out["instructions"] = out["raw_instructions"].copy()
        out["cycles"] = out["raw_cycles"].copy()
        out["l2_refs"] = out["raw_l2_refs"].copy()
        out["l2_misses"] = out["raw_l2_misses"].copy()
    else:
        ik = cost_model.minimum_cost(SamplingContext.IN_KERNEL)
        it = cost_model.minimum_cost(SamplingContext.INTERRUPT)
        out["instructions"] = np.maximum(
            1.0,
            out["raw_instructions"] - n_ik * ik.instructions - n_int * it.instructions,
        )
        out["cycles"] = np.maximum(
            1.0, out["raw_cycles"] - n_ik * ik.cycles - n_int * it.cycles
        )
        out["l2_refs"] = np.maximum(
            0.0, out["raw_l2_refs"] - n_ik * ik.l2_refs - n_int * it.l2_refs
        )
        out["l2_misses"] = np.maximum(
            0.0, out["raw_l2_misses"] - n_ik * ik.l2_misses - n_int * it.l2_misses
        )
    return out


def assert_matches_reference(trace, rows, cost_model):
    expected = reference_columns(rows, cost_model)
    for name in TRACE_ARRAYS:
        actual = getattr(trace, name)
        assert actual.dtype == expected[name].dtype, name
        assert actual.tobytes() == expected[name].tobytes(), name


#: Values around the compensation floors and the default minimum costs
#: (649 instructions and 1270 cycles in-kernel, 724 and 2276 on an
#: interrupt), zeros for periods with no activity, and negatives.
_INT_VALUES = st.one_of(
    st.sampled_from([0, 1, 648, 649, 650, 1270, 2276]),
    st.integers(min_value=-100, max_value=10_000),
)
_FLOAT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 648.5, 649.0, 1270.0, 2276.0]),
    st.floats(min_value=-100.0, max_value=10_000.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def period_rows(draw):
    """Rows the way producers make them.

    Either every value is an int, or the times and counters are floats
    while the core and the injected counts stay ints (the simulator's
    rows).  Start cycles come from a small pool half the time, so rows
    arrive unsorted and with ties, and some rows have zero cycles and
    instructions (no activity).
    """
    integers = draw(st.booleans())
    values = _INT_VALUES if integers else _FLOAT_VALUES
    pool = draw(st.lists(values, min_size=1, max_size=3))
    starts = st.one_of(st.sampled_from(pool), values)
    counts = st.integers(min_value=0, max_value=3)

    def rows_with(activity):
        return st.tuples(
            starts, values, st.integers(min_value=0, max_value=7),
            activity, activity, values, values, counts, counts,
        )

    idle = st.just(0 if integers else 0.0)
    row = st.one_of(rows_with(values), rows_with(idle))
    return draw(st.lists(row, min_size=1, max_size=24))


_COST = st.floats(min_value=0.0, max_value=5_000.0)
cost_models = st.one_of(
    st.none(),
    st.just(SamplingCostModel()),
    st.builds(
        SamplingCostModel,
        in_kernel_cycles=_COST,
        in_kernel_instructions=_COST,
        interrupt_cycles=_COST,
        interrupt_instructions=_COST,
    ),
)


class TestBlockAssembly:
    def test_row_fields(self):
        assert PERIOD_FIELDS == (
            "start", "end", "core", "cycles", "instructions", "l2_refs",
            "l2_misses", "injected_in_kernel", "injected_interrupt",
        )

    @settings(max_examples=300, deadline=None)
    @given(rows=period_rows(), cost_model=cost_models)
    def test_matches_per_column_assembly(self, rows, cost_model):
        assert_matches_reference(make_trace(rows, cost_model), rows, cost_model)

    @settings(max_examples=150, deadline=None)
    @given(rows=period_rows(), cost_model=cost_models, direct=st.booleans())
    def test_tracker_rows_match_per_column_assembly(self, rows, cost_model, direct):
        """Rows through ``period_sink`` or ``close_period`` and the tracker's
        own compensation columns build the same arrays."""
        tracker = RequestTracker(
            cost_model, frequency_ghz=3.0, compensate=cost_model is not None
        )
        tracker.start_request(make_spec(), 0.0)
        kept = [p for p in rows if not (p[3] <= 0 and p[4] <= 0)]
        if direct:
            sink = tracker.period_sink(0)
            for row in kept:
                sink += row
        else:
            for row in rows:
                tracker.close_period(0, row)
        if not kept:
            with pytest.raises(ValueError, match="no periods"):
                tracker.finish_request(0, 1.0)
            return
        assert_matches_reference(tracker.finish_request(0, 1.0), kept, cost_model)

    @settings(max_examples=100, deadline=None)
    @given(rows=period_rows(), cost_model=cost_models)
    def test_trace_keeps_only_its_columns_alive(self, rows, cost_model):
        """No exposed array holds the row block or the injected counts:
        the memory behind them is at most the exposed columns' own."""
        trace = make_trace(rows, cost_model)
        arrays = [getattr(trace, name) for name in TRACE_ARRAYS]
        owners = {}
        for array in arrays:
            owner = array if array.base is None else array.base
            assert owner.base is None
            owners[id(owner)] = owner
        assert sum(o.nbytes for o in owners.values()) <= sum(a.nbytes for a in arrays)
