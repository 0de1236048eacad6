"""Lint output formats: human text, machine JSON, and summary counts.

``python -m repro lint --format json`` emits one JSON object on stdout
with this schema (stable; version-bumped on breaking change)::

    {
      "version": 1,
      "findings": [            // post-suppression, sorted by (path, line)
        {
          "path": "src/repro/...py",   // posix-form path as linted
          "line": 139,                 // 1-based
          "col": 24,                   // 0-based
          "code": "D004",              // stable rule code (D000 = meta)
          "message": "...",            // one-line description
          "hint": "..."                // one-line fix hint ("" for D000)
        }, ...
      ],
      "summary": {
        "files": 97,                   // .py files linted
        "rules": ["D001", ...],        // codes that ran (--select aware)
        "findings": 0,                 // len(findings)
        "by_rule": {"D004": 2, ...},   // finding count per code (omitted-0)
        "suppressions_used": 12,       // inline waivers that fired
        "suppressions_unused": 0,      // stale waivers (candidates to drop)
        "unused_suppressions": [["src/...py", 41], ...]
      }
    }

``--summary PATH`` writes just the ``summary`` object (plus ``version``)
to a file — the ``BENCH_lint.json`` artifact CI tracks so suppression
creep between PRs shows up as a diff, mirroring the ``BENCH_*.json``
perf baselines.

When the deep pass ran (``--deep``), every format gains a ``deep`` block::

    "deep": {
      "rules": ["D102", ...],
      "findings": 0,
      "by_rule": {},
      "suppressions_used": 10,
      "suppressions_unused": 0,
      "unused_suppressions": [],
      "stats": {             // graph sizes + analyzer cost
        "modules": 144, "functions": 981, "call_edges": 1151, ...
        "cache_hits": 0, "cache_misses": 144,
        "summarize_s": ..., "analyze_s": ..., "total_s": ...
      }
    }
"""

from __future__ import annotations

import json
from typing import List

from repro.lint.core import LintReport


SCHEMA_VERSION = 1


def format_text(report: LintReport, deep=None) -> str:
    """One ``path:line: D00x message`` row per finding, plus a summary line."""
    lines: List[str] = [finding.format_text() for finding in report.findings]
    if deep is not None:
        lines.extend(finding.format_text() for finding in deep.findings)
    lines.append(summary_line(report))
    if deep is not None:
        lines.append(deep_summary_line(deep))
    return "\n".join(lines)


def summary_line(report: LintReport) -> str:
    status = "ok" if report.ok else f"{len(report.findings)} finding(s)"
    extra = ""
    if report.suppressions_unused:
        stale = ", ".join(
            f"{path}:{line}" for path, line in report.unused_suppression_sites
        )
        extra = f", {report.suppressions_unused} unused suppression(s): {stale}"
    return (
        f"repro.lint: {status} in {report.files} file(s) "
        f"({len(report.rule_codes)} rules, "
        f"{report.suppressions_used} suppression(s) used{extra})"
    )


def deep_summary_line(deep) -> str:
    stats = deep.stats
    status = "ok" if deep.ok else f"{len(deep.findings)} finding(s)"
    extra = ""
    if deep.unused_suppression_sites:
        stale = ", ".join(
            f"{path}:{line}" for path, line in deep.unused_suppression_sites
        )
        extra = f", {len(deep.unused_suppression_sites)} unused suppression(s): {stale}"
    return (
        f"repro.lint --deep: {status} "
        f"({len(deep.rule_codes)} rules, {stats.modules} modules, "
        f"{stats.call_edges} call edges, {deep.suppressions_used} "
        f"suppression(s) used, cache {stats.cache_hits} hit / "
        f"{stats.cache_misses} miss, {stats.total_s:.2f}s{extra})"
    )


def summary_dict(report: LintReport, deep=None) -> dict:
    payload = {
        "files": report.files,
        "rules": list(report.rule_codes),
        "findings": len(report.findings),
        "by_rule": report.by_rule,
        "suppressions_used": report.suppressions_used,
        "suppressions_unused": report.suppressions_unused,
        "unused_suppressions": [
            [path, line] for path, line in report.unused_suppression_sites
        ],
    }
    if deep is not None:
        payload["deep"] = deep_dict(deep)
    return payload


def deep_dict(deep) -> dict:
    return {
        "rules": list(deep.rule_codes),
        "findings": len(deep.findings),
        "by_rule": deep.by_rule,
        "suppressions_used": deep.suppressions_used,
        "suppressions_unused": len(deep.unused_suppression_sites),
        "unused_suppressions": [
            [path, line] for path, line in deep.unused_suppression_sites
        ],
        "stats": deep.stats.to_dict(),
    }


def format_json(report: LintReport, deep=None) -> str:
    payload = {
        "version": SCHEMA_VERSION,
        "findings": [finding.to_json() for finding in report.findings],
        "summary": summary_dict(report, deep),
    }
    if deep is not None:
        payload["deep_findings"] = [finding.to_json() for finding in deep.findings]
    return json.dumps(payload, indent=2, sort_keys=False)


def write_summary(report: LintReport, path: str, deep=None) -> None:
    """Write the BENCH_lint.json-style summary-count artifact.

    Like every BENCH writer, the file carries the shared run manifest so
    count diffs are attributable to a commit/host, not guessed at."""
    from repro.obs.manifest import run_manifest

    payload = {"version": SCHEMA_VERSION, "manifest": run_manifest()}
    payload.update(summary_dict(report, deep))
    from repro.util.atomicio import atomic_write

    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
