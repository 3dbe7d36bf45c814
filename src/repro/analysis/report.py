"""ASCII rendering of experiment outputs (tables and simple bar charts)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(
    rows: Sequence[Dict], columns: Optional[List[str]] = None, title: str = ""
) -> str:
    """Render dict rows as a fixed-width ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_metrics(snapshot: Dict, title: str = "metrics") -> str:
    """Render a :class:`repro.obs.metrics.MetricsRegistry` snapshot.

    Counters and gauges become one two-column table; histograms one row
    per distribution with their summary statistics.
    """
    parts = []
    scalar_rows = [
        {"metric": name, "value": value}
        for section in ("counters", "gauges")
        for name, value in snapshot.get(section, {}).items()
    ]
    if scalar_rows:
        parts.append(format_table(scalar_rows, title=title))
    histogram_rows = [
        {"histogram": name, **summary}
        for name, summary in snapshot.get("histograms", {}).items()
    ]
    if histogram_rows:
        parts.append(
            format_table(
                histogram_rows,
                columns=["histogram", "count", "mean", "p50", "p80", "p95", "max"],
                title=f"{title}: distributions",
            )
        )
    if not parts:
        return f"{title}\n(no metrics)"
    return "\n\n".join(parts)


def format_series_plot(
    series: Dict[str, Sequence[float]],
    width: int = 64,
    height: int = 12,
    title: str = "",
    x_labels: Optional[Sequence] = None,
) -> str:
    """Render one or more numeric series as an ASCII chart.

    Each series gets its own glyph; values are resampled onto ``width``
    columns and scaled into ``height`` rows.  Used to give experiment
    outputs a visual shape check (histograms, CDFs, time series) without
    any plotting dependency.
    """
    if not series:
        return "(empty plot)"
    glyphs = "*o+x#@%&"
    values = {
        name: [float(v) for v in data] for name, data in series.items() if len(data)
    }
    if not values:
        return "(empty plot)"
    lo = min(min(v) for v in values.values())
    hi = max(max(v) for v in values.values())
    span = hi - lo or 1.0
    grid = [[" "] * width for _ in range(height)]
    for idx, (name, data) in enumerate(values.items()):
        glyph = glyphs[idx % len(glyphs)]
        for col in range(width):
            # Nearest-sample resampling onto the column grid.
            pos = col * (len(data) - 1) / max(width - 1, 1) if len(data) > 1 else 0
            value = data[int(round(pos))]
            row = int(round((value - lo) / span * (height - 1)))
            grid[height - 1 - row][col] = glyph
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{format_value(hi)}".rjust(10))
    lines.extend("          |" + "".join(row) for row in grid)
    lines.append(f"{format_value(lo)}".rjust(10) + " +" + "-" * width)
    if x_labels is not None and len(x_labels) >= 2:
        label_line = (
            " " * 11
            + str(x_labels[0])
            + str(x_labels[-1]).rjust(width - len(str(x_labels[0])))
        )
        lines.append(label_line)
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} {name}" for i, name in enumerate(values)
    )
    lines.append(" " * 11 + legend)
    return "\n".join(lines)
