"""Plain-text rendering of tables, sparklines, and series.

Benchmarks print the same rows/series the paper reports; these helpers keep
that output readable in a terminal without plotting dependencies.
"""

from repro.reporting.tables import render_table
from repro.reporting.sparkline import sparkline, sparkline_row
from repro.reporting.series import series_to_csv, stacked_to_csv
from repro.reporting.drift import render_drift_table

__all__ = [
    "render_table",
    "sparkline",
    "sparkline_row",
    "series_to_csv",
    "stacked_to_csv",
    "render_drift_table",
]
