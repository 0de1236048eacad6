"""Rendering for the release gate: the drift table.

The gate's deterministic *verdict* is rendered by
:meth:`repro.obs.gate.GateResult.verdict_lines`; the table here is the
human-facing *report* — every check's values and deltas — that ``repro
gate --report`` writes and the chaos drill prints for its clean-vs-chaos
bands.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.reporting.tables import render_table


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return f"{int(value):,}"


def render_drift_table(checks: Sequence, title: str = "Drift report") -> str:
    """Every band check as a table row, deltas included."""
    rows: List[List[str]] = []
    for check in checks:
        rows.append([
            check.status,
            check.path,
            _fmt(check.baseline),
            _fmt(check.current),
            _fmt(check.delta),
            f"±{check.allowed:g}",
        ])
    return render_table(
        ["Status", "Metric", "Baseline", "Current", "Delta", "Allowed"],
        rows, title=title,
    )
