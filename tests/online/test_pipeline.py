"""End-to-end streaming pipeline behavior on a live faulted run.

The period and window steps do inline what a per-row identification
loop and :meth:`VaEwma.observe` do.  Each inline step is checked here
against that code, kept in the test as the oracle, bit for bit.
"""

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prediction import VaEwma
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_COLLECTOR, ObsEvent
from repro.online import pipeline as pipeline_module
from repro.online.checkpoint import checkpoint_from_json, checkpoint_to_json
from repro.online.pipeline import OnlineConfig, OnlinePipeline
from repro.online.report import build_report


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineConfig(window_instructions=0)
        with pytest.raises(ValueError, match="window_instructions"):
            OnlineConfig(window_instructions=float("nan"))
        with pytest.raises(ValueError):
            OnlineConfig(anomaly_quantile=1.0)

    def test_settable_surface(self):
        """Three settings; every other choice is a module constant, so a
        former knob is refused at any value, in range or not."""
        assert [f.name for f in dataclasses.fields(OnlineConfig)] == [
            "window_instructions",
            "anomaly_quantile",
            "attribute",
        ]
        former = {
            "ewma_alpha": (pipeline_module.EWMA_ALPHA,),
            "max_windows": (pipeline_module.MAX_WINDOWS,),
            "centroid_max_windows": (pipeline_module.CENTROID_MAX_WINDOWS,),
            "commit_streak": (pipeline_module.COMMIT_STREAK, 0),
            "anomaly_margin": (1.0, 0.0),
            "identify_metric": ("l2_refs_per_ins",),
            "compensate": (True,),
        }
        for knob, values in former.items():
            for value in values:
                with pytest.raises(TypeError, match=knob):
                    OnlineConfig(**{knob: value})

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2])
    def test_rejects_ewma_alpha_outside_unit_interval(self, alpha):
        """The aging constant is fixed inside (0, 1); no out-of-range
        value can be set."""
        assert 0.0 < pipeline_module.EWMA_ALPHA < 1.0
        with pytest.raises(TypeError, match="ewma_alpha"):
            OnlineConfig(ewma_alpha=alpha)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_rejects_max_windows_below_one(self, cap):
        assert pipeline_module.MAX_WINDOWS >= 1
        with pytest.raises(TypeError, match="'max_windows'"):
            OnlineConfig(max_windows=cap)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_rejects_centroid_max_windows_below_one(self, cap):
        assert pipeline_module.CENTROID_MAX_WINDOWS >= 1
        with pytest.raises(TypeError, match="centroid_max_windows"):
            OnlineConfig(centroid_max_windows=cap)

    def test_rejects_identifier_trained_at_another_window(
        self, trained_identifier
    ):
        """A bank is matched window by window, so its window must be the
        pipeline's; the error names both."""
        assert trained_identifier.window_instructions == 100_000.0
        with pytest.raises(ValueError, match=r"100000\.0.*10000\.0"):
            OnlinePipeline(
                config=OnlineConfig(window_instructions=10_000.0),
                identifier=trained_identifier,
            )

    def test_null_collector_rejects_subscribers(self):
        pipeline = OnlinePipeline()
        with pytest.raises(ValueError, match="disabled collector"):
            NULL_COLLECTOR.subscribe(pipeline.process_event)


class TestLiveRun:
    def test_all_requests_complete(self, streamed_run):
        _, _, pipeline, result = streamed_run
        assert len(pipeline.records) == len(result.traces)
        assert not pipeline.open  # everything closed out

    def test_ground_truth_captured_from_events(self, streamed_run):
        workload, _, pipeline, _ = streamed_run
        flagged_truth = {
            r["request_id"]
            for r in pipeline.records
            if r["injected_fault"] is not None
        }
        assert flagged_truth == workload.injected_ids
        kinds = {r["injected_fault"] for r in pipeline.records} - {None}
        assert kinds == {"lock_stall"}

    def test_bounded_memory_pattern_cap(self, streamed_run):
        _, _, pipeline, _ = streamed_run
        cap = pipeline_module.MAX_WINDOWS
        assert all(len(r.pattern) <= cap for r in pipeline.open.values())

    def test_windows_match_trace_lengths(self, streamed_run):
        """The streaming window count equals the offline per-trace count."""
        _, _, pipeline, result = streamed_run
        window = pipeline.config.window_instructions
        offline = {
            t.spec.request_id: t.series("cpi", window).values.size
            for t in result.traces
        }
        for record in pipeline.records:
            assert record["windows"] == offline[record["request_id"]]

    def test_identification_commits_early_and_correctly(self, streamed_run):
        _, _, pipeline, _ = streamed_run
        committed = [
            r for r in pipeline.records if r["committed_label"] is not None
        ]
        assert committed, "no request ever committed an identification"
        correct = [r for r in committed if r["label_correct"]]
        assert len(correct) / len(committed) >= 0.6
        for record in committed:
            assert record["commit_instructions"] <= record[
                "instructions_observed"
            ]

    def test_replay_equals_live(self, streamed_run, trained_identifier):
        _, events, live, _ = streamed_run
        replayed = OnlinePipeline(identifier=trained_identifier)
        replayed.process_events(events)
        assert build_report(replayed).to_json() == build_report(live).to_json()

    def test_events_are_idempotent_by_seq(self, streamed_run, trained_identifier):
        _, events, live, _ = streamed_run
        twice = OnlinePipeline(identifier=trained_identifier)
        twice.process_events(events)
        twice.process_events(events)  # duplicates skipped by cursor
        assert build_report(twice).to_json() == build_report(live).to_json()


class TestVectorizedIdentification:
    """A bank of ``SWEEP_MIN_BANK`` signatures or more identifies through
    the vectorized :class:`~repro.core.kernels.PrefixL1Sweeper` instead of
    the Python accumulation.  Test banks are far smaller, so the threshold
    is patched down to force that branch; decisions must not change."""

    def replay(self, identifier, events, cut=None):
        """Replay ``events`` from a fresh attributing pipeline, through a
        checkpoint restore after ``events[:cut]`` when ``cut`` is given."""
        pipeline = checkpoint_from_json(
            checkpoint_to_json(
                OnlinePipeline(
                    config=OnlineConfig(attribute=True), identifier=identifier
                )
            )
        )
        if cut is not None:
            pipeline.process_events(events[:cut])
            pipeline = checkpoint_from_json(checkpoint_to_json(pipeline))
        pipeline.process_events(events)
        return pipeline

    @pytest.mark.parametrize("fraction", [None, 0.4, 0.75])
    def test_sweeper_branch_is_byte_identical(
        self, streamed_run, trained_identifier, monkeypatch, fraction
    ):
        _, events, _, _ = streamed_run
        cut = None if fraction is None else int(len(events) * fraction)
        scalar = self.replay(trained_identifier, events)
        assert scalar._sweeper is None
        assert any(r["committed_label"] for r in scalar.records)

        monkeypatch.setattr(pipeline_module, "SWEEP_MIN_BANK", 1)
        vectorized = self.replay(trained_identifier, events, cut)
        assert vectorized._sweeper is not None
        assert build_report(vectorized).to_json() == build_report(scalar).to_json()
        assert checkpoint_to_json(vectorized) == checkpoint_to_json(scalar)


def bits(value):
    return None if value is None else struct.pack("<d", value)


def row_loop_extend(dists, rows, penalty, w, x):
    """Add window ``w``'s value ``x`` to each row's running distance, row
    by row: the per-row accumulation the column sweep replaced."""
    for index, (values, length, _) in enumerate(rows):
        if w < length:
            d = x - values[w]
            dists[index] += d if d >= 0.0 else -d
        else:
            dists[index] += penalty


def row_loop_pick(dists):
    """The first minimum, found by the loop the column sweep replaced."""
    best = 0
    best_distance = dists[0]
    for index in range(1, len(dists)):
        if dists[index] < best_distance:
            best_distance = dists[index]
            best = index
    return best


#: Bank and pattern values: a small pool (so distances tie), signed
#: zeros, extremes and arbitrary finite floats.
SWEEP_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=2.0),
)


@st.composite
def banks_and_patterns(draw):
    """``(rows, penalty, pattern)``: 1-63 signatures of 1-8 windows, some
    repeated, and a pattern that may run past every signature."""
    signatures = draw(
        st.lists(st.lists(SWEEP_VALUES, min_size=1, max_size=8),
                 min_size=1, max_size=63)
    )
    for index in draw(st.lists(st.integers(0, len(signatures) - 1), max_size=3)):
        if len(signatures) < 63:
            signatures.append(list(signatures[index]))
    rows = [(values, len(values), f"k{i % 4}") for i, values in enumerate(signatures)]
    penalty = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                             st.floats(0.0, 10.0)))
    longest = max(len(values) for values in signatures)
    pattern = draw(st.lists(SWEEP_VALUES, min_size=1, max_size=longest + 4))
    return rows, penalty, pattern


class StubIdentifier:
    """A fitted bank of given rows at the pipeline's window."""

    window_instructions = OnlineConfig().window_instructions

    def __init__(self, rows, penalty):
        self.rows, self.penalty = rows, penalty

    def prefix_rows(self):
        return self.rows, self.penalty


class TestColumnSweep:
    """Below ``SWEEP_MIN_BANK`` signatures, identification extends each
    row's running distance from per-window columns, one comprehension per
    window, and picks the first minimum with ``min``/``list.index``."""

    @staticmethod
    def identify(rows, penalty, pattern, restore_at=None):
        """Feed ``pattern`` to a pipeline's window step, one value per
        window (a window of 1 instruction carrying ``x`` references), and
        check its distances and pick against the row loop's after each
        window until the label commits.  Each row's label is its index.
        ``restore_at`` drops the running distances before that window, as
        a checkpoint restore does."""
        rows = [(values, length, i) for i, (values, length, _) in enumerate(rows)]
        pipeline = OnlinePipeline(identifier=StubIdentifier(rows, penalty))
        pipeline.process_event(admitted(0, 1))
        request = pipeline.open[1]
        expected = [0.0] * len(rows)
        for w, x in enumerate(pattern):
            if w == restore_at:
                request.ident_dists = None
            pipeline._on_window(request, (1.0, 1.0, x, 0.0))
            row_loop_extend(expected, rows, penalty, w, x)
            assert request.streak_label == row_loop_pick(expected)
            if request.committed_label is not None:
                break
            assert [bits(d) for d in request.ident_dists] == [
                bits(d) for d in expected
            ]
        assert pipeline._columns is not None

    @settings(max_examples=300, deadline=None)
    @given(banks_and_patterns(), st.one_of(st.none(), st.integers(0, 12)))
    def test_equals_row_loop(self, case, restore_at):
        rows, penalty, pattern = case
        self.identify(rows, penalty, pattern, restore_at)

    def test_ties_pick_the_first_row(self):
        rows = [([1.0, 2.0], 2, "a"), ([3.0], 1, "b"), ([1.0, 2.0], 2, "c")]
        self.identify(rows, 0.5, [1.0, 2.0, 2.0])
        self.identify(rows, 0.0, [-0.0, 2.0, 7.0], restore_at=1)


def admitted(seq, request_id, kind="q"):
    return ObsEvent(seq=seq, cycle=0.0, kind="request_admitted",
                    request_id=request_id, data={"request_kind": kind})


def period(seq, request_id, instructions, cycles, l2_refs=0.0, l2_misses=0.0):
    """A period with no injected samples: compensation subtracts nothing,
    so the pipeline sees these counters, floored."""
    return ObsEvent(
        seq=seq, cycle=float(seq), kind="period_sample", request_id=request_id,
        data={"instructions": instructions, "cycles": cycles,
              "l2_refs": l2_refs, "l2_misses": l2_misses,
              "injected_in_kernel": 0, "injected_interrupt": 0},
    )


#: Period counters: a small pool (floors, window-sized periods) and
#: arbitrary values up to several windows.
COUNTS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 50_000.0, 100_000.0, 99_999.5]),
    st.floats(min_value=0.0, max_value=1e6),
)


class TestInlinePeriodStep:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(COUNTS, COUNTS), min_size=1, max_size=40))
    def test_vaewma_and_class_errors_equal_observe(self, periods):
        """The float vaEWMA slot moves as ``VaEwma.observe`` moves the
        estimate, and the class-error sums as ``_ClassErrors.add`` did."""
        pipeline = OnlinePipeline()
        pipeline.process_event(admitted(0, 1))
        oracle = VaEwma(alpha=pipeline_module.EWMA_ALPHA,
                        unit_length=pipeline.config.window_instructions)
        n, abs_sum, sq_sum, weight = 0, 0.0, 0.0, 0.0
        for seq, (instructions, cycles) in enumerate(periods, start=1):
            pipeline.process_event(period(seq, 1, instructions, cycles))
            length = max(1.0, instructions)
            value = max(1.0, cycles) / length
            if oracle.predict() is not None:
                error = oracle.predict() - value
                n += 1
                abs_sum += abs(error) * length
                sq_sum += error * error * length
                weight += length
            oracle.observe(value, length)
            assert bits(pipeline.open[1].estimate) == bits(oracle.predict())
        errors = pipeline.class_errors.get("q")
        if n:
            assert (errors.n, bits(errors.abs_sum), bits(errors.sq_sum),
                    bits(errors.weight)) == (n, bits(abs_sum), bits(sq_sum),
                                             bits(weight))
        else:
            assert errors is None


class TestAttributedRestore:
    """With attribution on, every step runs, the attribution baselines
    included; a restore mid-stream must still end in the uninterrupted
    replay's bytes."""

    @staticmethod
    def replay(identifier, events, cut=None):
        pipeline = checkpoint_from_json(
            checkpoint_to_json(
                OnlinePipeline(
                    config=OnlineConfig(attribute=True), identifier=identifier
                )
            )
        )
        if cut is not None:
            pipeline.process_events(events[:cut])
            assert pipeline.open, "the cut landed between requests"
            pipeline = checkpoint_from_json(checkpoint_to_json(pipeline))
        pipeline.process_events(events)
        return pipeline

    @pytest.mark.parametrize("fraction", [0.4, 0.75])
    def test_restore_is_byte_identical(
        self, streamed_run, trained_identifier, fraction
    ):
        _, events, _, _ = streamed_run
        uninterrupted = self.replay(trained_identifier, events)
        assert uninterrupted._columns is not None
        assert any(r["attributed_cause"] for r in uninterrupted.records)
        restored = self.replay(
            trained_identifier, events, int(len(events) * fraction)
        )
        assert build_report(restored).to_json() == (
            build_report(uninterrupted).to_json()
        )
        assert checkpoint_to_json(restored) == checkpoint_to_json(uninterrupted)


class TestDetection:
    def test_report_scores_against_ground_truth(self, streamed_run):
        workload, _, pipeline, _ = streamed_run
        report = build_report(pipeline)
        s = report.summary
        assert s["population"] == len(pipeline.records)
        assert s["injected"] == len(workload.injected_ids)
        assert 0.0 <= s["precision"] <= 1.0
        assert 0.0 <= s["recall"] <= 1.0
        if s["median_time_to_detect_instructions"] is not None:
            assert s["median_time_to_detect_instructions"] > 0
        assert s["periods"] == pipeline.periods_seen
        assert report.to_json() == build_report(pipeline).to_json()

    def test_render_mentions_key_numbers(self, streamed_run):
        _, _, pipeline, _ = streamed_run
        text = build_report(pipeline).render()
        assert "precision=" in text and "recall=" in text
        assert "median_ttd_ins=" in text


class TestMetricsRegistry:
    def test_counters_and_histograms_populated(self, streamed_run, trained_identifier):
        _, events, _, _ = streamed_run
        registry = MetricsRegistry()
        pipeline = OnlinePipeline(
            identifier=trained_identifier, registry=registry
        )
        pipeline.process_events(events)
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["online_periods"] == pipeline.periods_seen
        assert counters["online_windows"] == pipeline.windows_seen
        assert counters["online_requests_completed"] == len(pipeline.records)
        assert "online_prediction_abs_error" in snapshot["histograms"]
        assert "online_anomaly_score" in snapshot["histograms"]
        assert snapshot["histograms"]["online_anomaly_score"]["count"] > 0
