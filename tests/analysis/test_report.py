"""Tests for ASCII report rendering."""

from repro.analysis.report import format_metrics, format_table, format_value


class TestFormatValue:
    def test_int_passthrough(self):
        assert format_value(42) == "42"

    def test_float_trims_zeros(self):
        assert format_value(1.5) == "1.5"

    def test_small_float_scientific(self):
        assert "e" in format_value(0.00012) or "0.00012" in format_value(0.00012)

    def test_zero(self):
        assert format_value(0.0) == "0"

    def test_string_passthrough(self):
        assert format_value("abc") == "abc"


class TestFormatTable:
    def test_contains_headers_and_values(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert "a" in text and "b" in text
        assert "x" in text and "2" in text

    def test_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "b" in text
        assert "a" not in text.splitlines()[0]

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_title_included(self):
        text = format_table([{"a": 1}], title="My Table")
        assert text.startswith("My Table")

    def test_missing_cell_rendered_empty(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert "1" in text and "2" in text

    def test_alignment_consistent_width(self):
        text = format_table([{"col": "short"}, {"col": "much longer value"}])
        lines = text.splitlines()
        assert len(lines[0]) <= len(lines[1])


class TestFormatMetrics:
    def test_renders_registry_snapshot(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("requests").inc(7)
        registry.gauge("wall_cycles").set(123.0)
        registry.histogram("cpi").observe(2.5, weight=10.0)
        text = format_metrics(registry.snapshot())
        assert "requests" in text and "7" in text
        assert "wall_cycles" in text
        assert "cpi" in text and "distributions" in text

    def test_empty_snapshot(self):
        assert "(no metrics)" in format_metrics({})


class TestFormatSeriesPlot:
    def test_renders_series_and_legend(self):
        from repro.analysis.report import format_series_plot

        text = format_series_plot(
            {"a": [0.0, 1.0, 2.0], "b": [2.0, 1.0, 0.0]},
            width=20,
            height=5,
            title="demo",
        )
        assert "demo" in text
        assert "* a" in text and "o b" in text
        assert "2" in text and "0" in text  # axis extremes

    def test_empty(self):
        from repro.analysis.report import format_series_plot

        assert "(empty plot)" in format_series_plot({})
        assert "(empty plot)" in format_series_plot({"a": []})

    def test_constant_series_no_crash(self):
        from repro.analysis.report import format_series_plot

        text = format_series_plot({"flat": [3.0, 3.0, 3.0]}, width=10, height=4)
        assert "flat" in text

    def test_x_labels(self):
        from repro.analysis.report import format_series_plot

        text = format_series_plot(
            {"a": [0, 1]}, width=20, height=3, x_labels=["lo", "hi"]
        )
        assert "lo" in text and "hi" in text

    def test_single_point_series(self):
        from repro.analysis.report import format_series_plot

        text = format_series_plot({"a": [5.0]}, width=8, height=3)
        assert "a" in text
