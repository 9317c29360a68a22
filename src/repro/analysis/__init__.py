"""Metrics and reporting helpers used by the benchmark harness."""

from repro.analysis.error_bounds import (
    ErrorBoundTracker,
    TreeErrorBound,
    TreeErrorLedger,
    install_error_tracker,
    true_error_l1,
)
from repro.analysis.metrics import (
    BoxplotStats,
    MetricsError,
    per_reducer_reduction,
    percentile,
    reduction_boxplot,
    reduction_ratio,
)
from repro.analysis.reporting import (
    format_percent,
    render_boxplot_table,
    render_comparison_table,
    render_series_table,
    render_summary_row,
    render_table,
    yes_no,
)

__all__ = [
    "BoxplotStats",
    "ErrorBoundTracker",
    "TreeErrorBound",
    "TreeErrorLedger",
    "install_error_tracker",
    "true_error_l1",
    "MetricsError",
    "per_reducer_reduction",
    "percentile",
    "reduction_boxplot",
    "reduction_ratio",
    "format_percent",
    "render_boxplot_table",
    "render_comparison_table",
    "render_series_table",
    "render_summary_row",
    "render_table",
    "yes_no",
]
