"""Static-analyzer benchmark: shallow + deep lint over the shipped tree.

Runs ``repro.lint`` (per-file D001–D011) and ``repro.lint --deep``
(interprocedural D102, D104, D105) over ``src/`` and ``benchmarks/`` and
records the analyzer's cost profile into ``BENCH_lint.json``: file/graph
sizes (modules, functions, call edges) and wall time for a
*cold* pass (fresh summary cache) and a *warm* pass (every module summary
served from the content-digest cache).

The file doubles as the suppression-creep tripwire the shallow summary
always was, now for both passes: findings must be zero, no waiver may be
stale, and the recorded rule lists must match the live registries — a
rule added without regenerating this artifact fails here, which is
exactly how the pre-PR-7 file (still listing D001–D008) went stale.

Warm-vs-cold is asserted on the cache counters (hits == modules), not on
wall-clock, so CI noise cannot flake it; the timings land in the JSON.
"""

from __future__ import annotations

import json
import os
import tempfile

import benchlib
from repro.lint import all_rules, lint_paths, registered_codes
from repro.lint.flow import deep_lint, flow_rule_codes
from repro.lint.reporting import SCHEMA_VERSION, summary_dict
from repro.obs.manifest import run_manifest
from repro.util.atomicio import atomic_write

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT_PATHS = [
    os.path.join(REPO_ROOT, "src"),
    os.path.join(REPO_ROOT, "benchmarks"),
]


def test_lint_tree_and_record_analyzer_cost():
    shallow = lint_paths(LINT_PATHS, all_rules(), root=REPO_ROOT)
    assert [f.format_text() for f in shallow.findings] == []
    assert shallow.suppressions_unused == 0

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = os.path.join(tmp, "flowcache")
        cold = deep_lint(LINT_PATHS, root=REPO_ROOT, cache_dir=cache_dir)
        warm = deep_lint(LINT_PATHS, root=REPO_ROOT, cache_dir=cache_dir)

    for deep in (cold, warm):
        assert [f.format_text() for f in deep.findings] == []
        assert deep.unused_suppression_sites == []

    # Cold pass summarizes everything; warm pass must be all cache hits.
    assert cold.stats.cache_misses == cold.stats.modules
    assert cold.stats.cache_hits == 0
    assert warm.stats.cache_hits == warm.stats.modules
    assert warm.stats.cache_misses == 0
    # Same program either way.
    assert warm.stats.call_edges == cold.stats.call_edges
    assert warm.stats.functions == cold.stats.functions

    # The artifact's rule lists must track the live registries (this is
    # the assertion that catches a stale checked-in BENCH_lint.json).
    assert shallow.rule_codes == registered_codes()
    assert cold.rule_codes == flow_rule_codes()

    manifest = run_manifest()
    payload = {"version": SCHEMA_VERSION, "manifest": manifest}
    payload.update(summary_dict(shallow, cold))
    payload["deep"]["stats_warm"] = warm.stats.to_dict()
    # The analyzer's cost profile joins the run ledger like every other
    # benchmark, keyed bench:lint, so the gate can band the warm-pass time.
    ledger_metrics = {
        "modules": cold.stats.modules,
        "call_edges": cold.stats.call_edges,
        "deep_lint": {
            "cold_s": cold.stats.total_s,
            "warm_s": warm.stats.total_s,
        },
    }
    from repro.obs.ledger import RunLedger, build_bench_record, flatten
    flat = flatten(ledger_metrics)
    payload["history"] = benchlib.bench_history("lint", flat)
    RunLedger(benchlib.ledger_path()).append(
        build_bench_record("lint", flat, manifest=manifest))
    path = os.path.join(benchlib.bench_output_dir(), "BENCH_lint.json")
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    benchlib.WRITTEN_PATHS.append(path)

    benchlib.print_comparison(
        "repro lint --deep analyzer cost",
        [
            ("modules", "n/a", cold.stats.modules),
            ("call edges", "n/a", cold.stats.call_edges),
            ("cold total", "n/a", f"{cold.stats.total_s:.2f}s"),
            (
                "warm total",
                "n/a",
                f"{warm.stats.total_s:.2f}s "
                f"({warm.stats.cache_hits} cache hits)",
            ),
        ],
    )


def test_checked_in_artifact_matches_live_registries():
    """The committed BENCH_lint.json must list exactly the rules that
    exist today, for both passes."""
    with open(os.path.join(REPO_ROOT, "BENCH_lint.json")) as handle:
        payload = json.load(handle)
    assert payload["rules"] == registered_codes()
    assert payload["deep"]["rules"] == flow_rule_codes()
    assert payload["findings"] == 0
    assert payload["deep"]["findings"] == 0
    for stats_key in ("stats", "stats_warm"):
        stats = payload["deep"][stats_key]
        assert stats["modules"] > 0
        assert stats["call_edges"] > 0
        assert "total_s" in stats
