"""Orchestration for the deep pass: summarize → link → infer → rules.

:func:`deep_lint` is the API behind ``repro lint --deep``: it discovers
files exactly like the shallow pass, summarizes each module through the
digest cache, links the whole program, runs the effect fixpoint, applies
the D102, D104 and D105 rules, and filters findings through the same
``# repro: allow-D10x <reason>`` waivers the shallow pass uses.

Timing and graph-size stats ride on the report (``FlowStats``) so the
lint summary artifact and ``BENCH_lint.json`` can track analyzer cost
per run — cold vs. warm cache included.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.lint.core import (
    Finding,
    _collect_suppressions,
    discover_files,
)
from repro.lint.flow.cache import DEFAULT_CACHE_DIR, AnalysisCache
from repro.lint.flow.effects import EffectResult, infer_effects
from repro.lint.flow.graphs import Program, link
from repro.lint.flow.rules import FlowRule, all_flow_rules


def module_name_for(path: str) -> str:
    """Dotted module name of a file, walking up through ``__init__.py``
    packages (``src/repro/perf/cache.py`` → ``repro.perf.cache``)."""
    path = os.path.abspath(path)
    directory, filename = os.path.split(path)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.insert(0, package)
        if not package:
            break
    return ".".join(parts) if parts else stem


@dataclass
class FlowStats:
    """Graph sizes, fixpoint cost, and cache traffic for one deep run."""

    modules: int = 0
    functions: int = 0
    classes: int = 0
    import_edges: int = 0
    call_edges: int = 0
    stream_sites: int = 0
    unresolved_calls: int = 0
    fixpoint_iterations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    summarize_s: float = 0.0
    analyze_s: float = 0.0
    total_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "modules": self.modules,
            "functions": self.functions,
            "classes": self.classes,
            "import_edges": self.import_edges,
            "call_edges": self.call_edges,
            "stream_sites": self.stream_sites,
            "unresolved_calls": self.unresolved_calls,
            "fixpoint_iterations": self.fixpoint_iterations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "summarize_s": round(self.summarize_s, 6),
            "analyze_s": round(self.analyze_s, 6),
            "total_s": round(self.total_s, 6),
        }


@dataclass
class FlowReport:
    """Outcome of one deep pass (post-waiver findings + stats)."""

    findings: List[Finding]
    stats: FlowStats
    rule_codes: List[str]
    suppressions_used: int = 0
    unused_suppression_sites: List[Tuple[str, int]] = field(default_factory=list)
    program: Optional[Program] = None
    effects: Optional[EffectResult] = None

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def by_rule(self) -> dict:
        counts: dict = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts


def analyze_paths(
    paths: Sequence[str],
    root: Optional[str] = None,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    stats: Optional[FlowStats] = None,
):
    """Summarize + link + infer over every ``.py`` file under ``paths``.

    Returns ``(program, effects, stats)``.  ``cache_dir=None`` disables
    the summary cache entirely."""
    stats = stats or FlowStats()
    started = time.perf_counter()
    base = root or os.getcwd()
    cache = AnalysisCache(cache_dir)

    summaries: dict = {}
    t0 = time.perf_counter()
    for path in discover_files(paths):
        display = (
            os.path.relpath(path, base) if os.path.isabs(path) else path
        ).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        module = module_name_for(path)
        if module in summaries:
            # Two files mapping to one dotted name (standalone scripts with
            # equal stems): key the later one by its path instead.
            module = display[:-3].replace("/", ".")
        summaries[module] = cache.summarize(module, display, source)
    stats.summarize_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    program = link(summaries)
    effects = infer_effects(program)
    stats.analyze_s = time.perf_counter() - t0

    stats.modules = len(summaries)
    stats.functions = len(program.functions)
    stats.classes = len(program.classes)
    stats.import_edges = sum(len(v) for v in program.import_edges.values())
    stats.call_edges = len(program.edges)
    stats.stream_sites = len(program.stream_sites)
    stats.unresolved_calls = program.unresolved_calls
    stats.fixpoint_iterations = effects.iterations
    stats.cache_hits = cache.hits
    stats.cache_misses = cache.misses
    stats.total_s = time.perf_counter() - started
    return program, effects, stats


def deep_lint(
    paths: Sequence[str],
    root: Optional[str] = None,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    rules: Optional[Sequence[FlowRule]] = None,
) -> FlowReport:
    """Run the whole deep pass and apply waivers.  The shallow pass owns
    reason-less-suppression (D000) reporting, so this only consumes
    well-formed waivers whose codes all belong to the active flow rules."""
    started = time.perf_counter()
    active_rules = list(rules) if rules is not None else all_flow_rules()
    program, effects, stats = analyze_paths(paths, root=root, cache_dir=cache_dir)

    raw: List[Finding] = []
    for rule in active_rules:
        raw.extend(rule.check(program, effects))

    active_codes = {rule.code for rule in active_rules}
    findings: List[Finding] = []
    used = 0
    unused_sites: List[Tuple[str, int]] = []
    suppressions_by_path: dict = {}
    base = root or os.getcwd()
    for module in sorted(program.summaries):
        summary = program.summaries[module]
        # Summaries carry root-relative display paths; re-anchor on the
        # root so waivers are found regardless of the caller's cwd.
        real = summary.path
        if not os.path.isabs(real) and not os.path.exists(real):
            real = os.path.join(base, summary.path)
        try:
            with open(real, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError:
            continue
        sups, _problems = _collect_suppressions(summary.path, source)
        relevant = [s for s in sups if all(c in active_codes for c in s.codes)]
        if relevant:
            suppressions_by_path[summary.path] = relevant

    for finding in sorted(raw, key=lambda f: (f.path, f.line, f.col, f.code)):
        waiver = next(
            (s for s in suppressions_by_path.get(finding.path, ()) if s.covers(finding)),
            None,
        )
        if waiver is not None:
            waiver.used = True
        else:
            findings.append(finding)

    for path in sorted(suppressions_by_path):
        for suppression in suppressions_by_path[path]:
            if suppression.used:
                used += 1
            else:
                unused_sites.append((path, suppression.line))

    stats.total_s = time.perf_counter() - started
    return FlowReport(
        findings=findings,
        stats=stats,
        rule_codes=sorted(active_codes),
        suppressions_used=used,
        unused_suppression_sites=unused_sites,
        program=program,
        effects=effects,
    )


def graph_dump(program: Program, stats: FlowStats) -> dict:
    """JSON-ready dump of the module/call graph (``--graph json``)."""
    return {
        "schema": 1,
        "stats": stats.to_dict(),
        "modules": {
            module: {
                "path": program.summaries[module].path,
                "imports": program.import_edges.get(module, []),
                "functions": sorted(program.summaries[module].functions),
            }
            for module in sorted(program.summaries)
        },
        "edges": [
            edge.to_dict()
            for edge in sorted(
                program.edges, key=lambda e: (e.module, e.line, e.caller, e.callee)
            )
        ],
        "stream_sites": [site.to_dict() for site in program.stream_sites],
    }
