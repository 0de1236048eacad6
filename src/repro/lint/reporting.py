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

``--summary PATH`` writes just the ``summary`` object (plus ``version``
and the run manifest) to a file — the ``BENCH_lint.json`` artifact CI's
lint job uploads on every run, so suppression creep between commits
shows up as a diff.
"""

from __future__ import annotations

import json
from typing import List

from repro.lint.core import LintReport


SCHEMA_VERSION = 1


def format_text(report: LintReport) -> str:
    """One ``path:line: D00x message`` row per finding, plus a summary line."""
    lines: List[str] = [finding.format_text() for finding in report.findings]
    lines.append(summary_line(report))
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


def summary_dict(report: LintReport) -> dict:
    return {
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


def format_json(report: LintReport) -> str:
    payload = {
        "version": SCHEMA_VERSION,
        "findings": [finding.to_json() for finding in report.findings],
        "summary": summary_dict(report),
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def write_summary(report: LintReport, path: str) -> None:
    """Write the BENCH_lint.json-style summary-count artifact.

    The file carries the shared run manifest so count diffs are
    attributable to a commit/host, not guessed at."""
    from repro.obs.manifest import run_manifest

    payload = {"version": SCHEMA_VERSION, "manifest": run_manifest()}
    payload.update(summary_dict(report))
    from repro.util.atomicio import atomic_write

    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
