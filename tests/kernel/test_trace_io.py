"""Tests for JSON / JSONL trace export and import."""

import json

import numpy as np
import pytest

from repro.kernel.trace_io import (
    load_traces,
    parse_traces_jsonl,
    save_traces,
    trace_from_dict,
    trace_to_dict,
    traces_to_jsonl,
)


class TestRoundTrip:
    def test_counters_preserved(self, web_run, tmp_path):
        path = str(tmp_path / "traces.json")
        save_traces(web_run.traces, path)
        loaded = load_traces(path)
        assert len(loaded) == len(web_run.traces)
        for orig, back in zip(web_run.traces, loaded):
            assert back.spec.request_id == orig.spec.request_id
            assert back.spec.kind == orig.spec.kind
            assert np.allclose(back.instructions, orig.instructions)
            assert np.allclose(back.cycles, orig.cycles)
            assert np.allclose(back.l2_refs, orig.l2_refs)
            assert np.allclose(back.l2_misses, orig.l2_misses)
            assert back.syscall_events == orig.syscall_events

    def test_analysis_works_on_loaded_traces(self, web_run, tmp_path):
        """Loaded traces support the same offline analyses."""
        from repro.core.variation import captured_variation

        path = str(tmp_path / "traces.json")
        save_traces(web_run.traces, path)
        loaded = load_traces(path)
        orig_cov = captured_variation(web_run.traces, "cpi")
        loaded_cov = captured_variation(loaded, "cpi")
        assert loaded_cov == pytest.approx(orig_cov, rel=1e-6)
        series = loaded[0].series("cpi", 10_000)
        assert len(series) >= 1

    def test_metadata_preserved(self, web_run, tmp_path):
        path = str(tmp_path / "traces.json")
        save_traces(web_run.traces[:3], path)
        loaded = load_traces(path)
        assert loaded[0].spec.metadata["file_id"] == (
            web_run.traces[0].spec.metadata["file_id"]
        )


class TestValidation:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            load_traces(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(
            json.dumps({"format": "repro-request-traces", "version": 99, "traces": []})
        )
        with pytest.raises(ValueError):
            load_traces(str(path))

    def test_malformed_trace_dict_rejected(self):
        with pytest.raises(ValueError):
            trace_from_dict({"request_id": 1})

    def test_dict_is_json_serializable(self, tpcc_run):
        payload = trace_to_dict(tpcc_run.traces[0])
        json.dumps(payload)  # must not raise


class TestJsonl:
    def test_suffix_dispatch_round_trip(self, web_run, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        save_traces(web_run.traces[:5], path)
        loaded = load_traces(path)
        assert len(loaded) == 5
        for orig, back in zip(web_run.traces, loaded):
            assert back.spec.request_id == orig.spec.request_id
            assert np.allclose(back.cycles, orig.cycles)
            assert back.syscall_events == orig.syscall_events

    def test_reexport_is_byte_lossless(self, tpcc_run):
        text = traces_to_jsonl(tpcc_run.traces[:8])
        reparsed = parse_traces_jsonl(text)
        assert traces_to_jsonl(reparsed) == text

    def test_analysis_matches_after_jsonl_round_trip(self, tpcc_run):
        """The exported stream replays to the same per-request CPI stats."""
        loaded = parse_traces_jsonl(traces_to_jsonl(tpcc_run.traces))
        original = np.array([t.overall_cpi() for t in tpcc_run.traces])
        replayed = np.array([t.overall_cpi() for t in loaded])
        np.testing.assert_allclose(replayed, original, rtol=1e-12)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_traces_jsonl("")

    def test_malformed_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_traces_jsonl("{oops\n")

    def test_foreign_format_rejected(self):
        with pytest.raises(ValueError, match="not a repro-request-traces document"):
            parse_traces_jsonl('{"format":"other","version":1}\n')

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            parse_traces_jsonl(
                '{"format":"repro-request-traces","version":99,"traces":0}\n'
            )

    def test_malformed_line_reports_number(self, tpcc_run):
        lines = traces_to_jsonl(tpcc_run.traces[:2]).splitlines()
        lines[2] = '{"request_id": 1}'
        with pytest.raises(ValueError, match="line 3"):
            parse_traces_jsonl("\n".join(lines) + "\n")

    def test_count_mismatch_rejected(self, tpcc_run):
        lines = traces_to_jsonl(tpcc_run.traces[:3]).splitlines()
        del lines[-1]
        with pytest.raises(ValueError, match="declares"):
            parse_traces_jsonl("\n".join(lines) + "\n")

    def test_blank_lines_do_not_shift_reported_line_numbers(self, tpcc_run):
        lines = traces_to_jsonl(tpcc_run.traces[:2]).splitlines()
        lines.insert(1, "")  # blank separator after the header
        lines[3] = '{"request_id": 1}'  # file line 4, not non-blank line 3
        with pytest.raises(ValueError, match="line 4"):
            parse_traces_jsonl("\n".join(lines) + "\n")


class TestDamagedPeriodColumns:
    """A damaged period column fails loudly and names the column."""

    @staticmethod
    def _payload(tpcc_run):
        trace = next(t for t in tpcc_run.traces if t.num_periods == 5)
        return trace_to_dict(trace)

    def test_short_column_rejected(self, tpcc_run):
        payload = self._payload(tpcc_run)
        del payload["periods"]["cycles"][2:]
        with pytest.raises(
            ValueError, match="periods column 'cycles' has 2 entries, 'start' has 5"
        ):
            trace_from_dict(payload)

    def test_null_entry_rejected(self, tpcc_run):
        payload = self._payload(tpcc_run)
        payload["periods"]["cycles"][0] = None
        with pytest.raises(
            ValueError, match="periods column 'cycles' entry 0 is None"
        ):
            trace_from_dict(payload)

    def test_string_entry_rejected(self, tpcc_run):
        payload = self._payload(tpcc_run)
        payload["periods"]["l2_refs"][3] = "297724.0"
        with pytest.raises(
            ValueError, match="periods column 'l2_refs' entry 3 is '297724.0'"
        ):
            trace_from_dict(payload)

    @pytest.mark.parametrize("bad", [True, [1.0], {"v": 1.0}, 2**64])
    def test_other_non_numbers_rejected(self, tpcc_run, bad):
        payload = self._payload(tpcc_run)
        payload["periods"]["end"][4] = bad
        with pytest.raises(ValueError, match="periods column 'end' entry 4 is"):
            trace_from_dict(payload)

    def test_missing_column_rejected(self, tpcc_run):
        payload = self._payload(tpcc_run)
        del payload["periods"]["l2_misses"]
        with pytest.raises(ValueError, match="periods column 'l2_misses' is missing"):
            trace_from_dict(payload)

    def test_jsonl_error_keeps_line_number(self, tpcc_run):
        payload = self._payload(tpcc_run)
        del payload["periods"]["core"][1:]
        lines = traces_to_jsonl(tpcc_run.traces[:2]).splitlines()
        lines[2] = json.dumps(payload)
        with pytest.raises(
            ValueError, match="line 3: periods column 'core' has 1 entries"
        ):
            parse_traces_jsonl("\n".join(lines) + "\n")

    def test_loaded_arrays_are_numeric(self, tpcc_run):
        trace = trace_from_dict(self._payload(tpcc_run))
        assert trace.num_periods == 5
        assert trace.core.dtype == np.int64
        for name in ("start", "end", "cycles", "instructions", "l2_refs", "l2_misses"):
            assert getattr(trace, name).dtype == np.float64, name
