"""Rendering for the release gate: drift tables, history sparklines,
record-vs-record diffs.

The gate's deterministic *verdict* is rendered by
:meth:`repro.obs.gate.GateResult.verdict_lines`; everything here is the
human-facing *report* — full per-check values and deltas, each gated
metric's trajectory across the ledger, and side-by-side record diffs for
``repro compare``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.reporting.sparkline import sparkline
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


def render_history(series: Dict[str, List[float]], width: int = 24,
                   title: str = "Ledger history") -> str:
    """Each metric's trajectory across ledger records as a sparkline row
    (oldest left, latest right), with first/last values for scale."""
    lines = [title]
    label_width = max((len(path) for path in series), default=0)
    for path in sorted(series):
        values = series[path]
        if not values:
            continue
        spark = sparkline(values, width=min(width, len(values)))
        lines.append(
            f"  {path:<{label_width}s} {spark} "
            f"{_fmt(values[0])} -> {_fmt(values[-1])} "
            f"({len(values)} runs)"
        )
    if len(lines) == 1:
        lines.append("  (no history)")
    return "\n".join(lines)


def render_record_diff(record_a: dict, record_b: dict,
                       metrics_a: Dict[str, float],
                       metrics_b: Dict[str, float]) -> str:
    """``repro compare``: provenance header plus per-metric A/B table.

    Deterministic for fixed inputs: paths are the sorted union, and the
    output contains no wall-clock or host-varying fields beyond what the
    records themselves carry."""
    lines = []
    for side, record in (("A", record_a), ("B", record_b)):
        manifest = record.get("manifest") or {}
        lines.append(
            f"{side}: {record.get('run_id', '?')} "
            f"kind={record.get('kind', '?')} key={record.get('key', '?')} "
            f"git={str(manifest.get('git_sha'))[:12]}"
        )
    rows: List[List[str]] = []
    for path in sorted(set(metrics_a) | set(metrics_b)):
        a, b = metrics_a.get(path), metrics_b.get(path)
        if a is None or b is None:
            delta = "-"
        elif a == b:
            delta = "="
        else:
            delta = _fmt(b - a)
            if a:
                delta += f" ({(b - a) / abs(a):+.1%})"
        rows.append([path, _fmt(a), _fmt(b), delta])
    lines.append(render_table(["Metric", "A", "B", "Delta"], rows))
    return "\n".join(lines)
