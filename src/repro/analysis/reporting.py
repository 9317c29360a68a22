"""Plain-text rendering of the paper's figures.

The benchmark harness regenerates every figure as text: a per-step/-iteration
series for Figure 1 and box-plot rows for Figure 3. Keeping the renderers here
(rather than inside the benchmarks) lets the examples print the same reports.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.metrics import BoxplotStats

#: Alignment and width at the front of a format spec (``">8"`` of ``">8.2f"``).
_ALIGN_WIDTH = re.compile(r"([<>^]?)(\d+)")


def format_percent(value: float, decimals: int = 1) -> str:
    """Format a fraction (0.869) or percentage (86.9) consistently as percent."""
    percent = value * 100.0 if -1.0 <= value <= 1.0 else value
    return f"{percent:.{decimals}f}%"


def yes_no(flag: bool, no: str = "NO") -> str:
    """A verdict cell: ``yes``, or a ``no`` that stands out in a column."""
    return "yes" if flag else no


def render_table(columns: Sequence[tuple[Any, ...]], records: Iterable[Any]) -> str:
    """Aligned columns: a header line, a dashed rule, then one line per record.

    A column is ``(title, spec, value_of)``: ``value_of(record)`` is the
    cell. Numbers are formatted with ``spec`` (``">8d"``, ``">6.1%"``); the
    title and any string cell (``"yes"``, ``"-"``) are padded to the
    alignment and width ``spec`` starts with. A fourth element,
    ``(title, spec, value_of, text_width)``, gives the title and strings a
    width of their own: a few report columns have always had a header one
    character wider than their numbers.
    """
    prepared = []
    for title, spec, value_of, *text_width in columns:
        align, width = _ALIGN_WIDTH.match(spec).groups()
        text_spec = f"{align}{text_width[0] if text_width else width}s"
        prepared.append((title, spec, value_of, text_spec))
    header = " ".join(format(title, text_spec) for title, _, _, text_spec in prepared)
    lines = [header, "-" * len(header)]
    for record in records:
        cells = []
        for _title, spec, value_of, text_spec in prepared:
            value = value_of(record)
            cells.append(format(value, text_spec if isinstance(value, str) else spec))
        lines.append(" ".join(cells))
    return "\n".join(lines)


def render_series_table(
    title: str,
    series: Mapping[str, Sequence[float]],
    index_label: str = "step",
    as_percent: bool = True,
    max_rows: int | None = 20,
) -> str:
    """Render one or more aligned numeric series as a text table.

    Used for Figure 1(a,b) (overlap per step) and Figure 1(c) (traffic
    reduction per iteration).
    """
    names = list(series)
    if not names:
        return f"{title}\n(no data)"
    length = max(len(values) for values in series.values())
    lines = [title, ""]
    header = f"{index_label:>6s}  " + "  ".join(f"{name:>12s}" for name in names)
    lines.append(header)
    lines.append("-" * len(header))
    indices = range(length)
    if max_rows is not None and length > max_rows:
        step = max(1, length // max_rows)
        indices = range(0, length, step)
    for i in indices:
        row = [f"{i:>6d}"]
        for name in names:
            values = series[name]
            if i < len(values):
                value = values[i]
                text = format_percent(value) if as_percent else f"{value:.4f}"
            else:
                text = "-"
            row.append(f"{text:>12s}")
        lines.append("  ".join(row))
    return "\n".join(lines)


def render_summary_row(name: str, stats: BoxplotStats, paper_value: str = "") -> str:
    """One Figure-3-style row: metric name, box-plot summary, paper reference."""
    summary = (
        f"min={stats.minimum:6.1f}%  q1={stats.q1:6.1f}%  median={stats.median:6.1f}%  "
        f"q3={stats.q3:6.1f}%  max={stats.maximum:6.1f}%"
    )
    row = f"{name:<38s} {summary}"
    if paper_value:
        row += f"   [paper: {paper_value}]"
    return row


def render_boxplot_table(
    title: str,
    rows: Mapping[str, BoxplotStats],
    paper_values: Mapping[str, str] | None = None,
) -> str:
    """Render the Figure 3 reduction box plots as text rows."""
    paper_values = paper_values or {}
    lines = [title, ""]
    for name, stats in rows.items():
        lines.append(render_summary_row(name, stats.as_percent(), paper_values.get(name, "")))
    return "\n".join(lines)


def render_comparison_table(
    title: str,
    rows: Sequence[tuple[str, str, str]],
    headers: tuple[str, str, str] = ("experiment", "paper", "measured"),
) -> str:
    """A three-column paper-vs-measured table (used by EXPERIMENTS.md tooling)."""
    widths = [
        max(len(headers[i]), max((len(row[i]) for row in rows), default=0)) for i in range(3)
    ]
    lines = [title, ""]
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(3)))
    return "\n".join(lines)
