"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — execute the full study pipeline and write the measurement
  artifacts (PSR dataset, tables, sparklines, summary) to a directory;
* ``ablations`` — run the intervention-policy counterfactuals and print
  the comparison table;
* ``trace`` — run a study with span tracing on and print the hierarchical
  phase tree (:mod:`repro.obs.trace`), the one timer report: each PERF
  timer shows as a ``·`` leaf under the span that accrued it; ``--json``
  exports Chrome/Perfetto ``trace_event`` JSON, ``--metrics`` the
  per-sim-day series;
* ``chaos`` — run the same scenario clean and under a named fault profile
  (:mod:`repro.faults`), report injected/retried/degraded counters, and
  assert the resilience invariants (determinism, headline tolerance);
* ``cache`` — inspect, validate, or clear the persistent disk cache tier
  (:mod:`repro.perf.diskcache`) that ``--disk-cache DIR`` /
  ``REPRO_DISK_CACHE`` point study runs at;
* ``gate`` — compare the latest run-ledger record against the committed
  baseline (``baselines/gate.json``) with per-table tolerance bands
  (:mod:`repro.obs.gate`); exit 1 on drift, 2 on missing inputs;
* ``history`` — render the ledger's record list and per-metric
  trajectories as sparklines;
* ``compare`` — diff two ledger records metric by metric;
* ``lint`` — run the determinism/concurrency static analyzer
  (:mod:`repro.lint`) over the given paths; exits non-zero on findings.

``run`` and ``chaos`` append one record per completed run to the ledger
named by ``--ledger`` / ``REPRO_LEDGER`` (no ledger → no append), which
is what ``gate``/``history``/``compare`` read.

``run`` also carries the crash-safety knobs: ``--checkpoint`` persists
per-sim-day state, ``--resume`` continues a killed run from it, and
``--die-after-day`` simulates the kill (checkpoint, then exit code 3).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from time import perf_counter
from typing import List, Optional

# The study stack (repro.study, .ecosystem, .crawler, .analysis) imports
# numpy, scipy and networkx; the commands that run a study import it
# themselves, so ``lint``, ``gate`` and the other ledger commands start
# without it.
from repro.faults import PROFILES, SimulatedCrash, profile_named
from repro.lint import (
    format_json,
    format_text,
    lint_paths,
    select_rules,
    write_summary,
)
from repro.obs.gate import (
    gate_history,
    load_baseline,
    run_gate,
    write_baseline,
)
from repro.obs.ledger import (
    LEDGER_ENV,
    RunLedger,
    build_study_record,
    shown_metrics,
    timed,
)
from repro.obs.manifest import run_manifest
from repro.obs.trace import TRACER, set_tracing_enabled
from repro.perf.cache import set_caches_enabled, set_disk_cache
from repro.perf.diskcache import DiskCache
from repro.reporting import (
    render_drift_table,
    render_history,
    render_record_diff,
    render_table,
    sparkline_row,
)
from repro.util.atomicio import atomic_write
from repro.util.perf import PERF


def _add_study_args(parser: argparse.ArgumentParser) -> None:
    """The scenario/knob options shared by run / trace / chaos."""
    parser.add_argument("--preset", choices=("small", "paper"), default="small")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="paper-preset census scale (ignored for small)")
    parser.add_argument("--terms", type=int, default=8,
                        help="monitored terms per vertical (paper preset)")
    parser.add_argument("--stride", type=int, default=3,
                        help="crawl stride, days")
    parser.add_argument("--seed", type=int, default=None, help="scenario seed")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed caches "
                             "(bit-identical, slower)")
    parser.add_argument("--disk-cache", default=None, metavar="DIR",
                        help="persist cache entries under DIR so later runs "
                             "warm-start (bit-identical; also honours the "
                             "REPRO_DISK_CACHE environment variable)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="ignore REPRO_DISK_CACHE and run memory-only")


def _add_ledger_args(parser: argparse.ArgumentParser,
                     writes: bool = False) -> None:
    hint = ("append a run record to" if writes else "read records from")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help=f"{hint} this JSONL run ledger "
                             f"(default: ${LEDGER_ENV}"
                             + ("; no ledger, no append)" if writes else ")"))


def _ledger_path(args) -> Optional[str]:
    return args.ledger or os.environ.get(LEDGER_ENV) or None


def _write_manifest(out: str, manifest: dict) -> None:
    """``manifest.json``: the one place an output directory keeps its
    run's provenance; the data files beside it carry none."""
    with atomic_write(os.path.join(out, "manifest.json")) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Search + Seizure' (IMC 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the study pipeline and write artifacts")
    _add_study_args(run)
    run.add_argument("--trace", action="store_true",
                     help="record span traces; writes trace.json + manifest.json "
                          "next to the artifacts and prints the phase tree")
    run.add_argument("--out", default="study-output", help="output directory")
    run.add_argument("--profile", choices=sorted(PROFILES), default=None,
                     help="inject faults from a named profile into the "
                          "measurement crawl")
    run.add_argument("--fault-seed", type=int, default=0,
                     help="fault-injection seed (independent of the "
                          "scenario seed)")
    run.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="persist a per-sim-day checkpoint to PATH")
    run.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                     help="checkpoint every N simulated days")
    run.add_argument("--resume", action="store_true",
                     help="continue from the --checkpoint file when present")
    run.add_argument("--die-after-day", type=int, default=None, metavar="N",
                     help="crash drill: checkpoint after sim-day index N, "
                          "then exit with code 3")
    _add_ledger_args(run, writes=True)

    ablations = sub.add_parser("ablations", help="run intervention counterfactuals")
    ablations.add_argument("--days", type=int, default=70, help="window length")
    ablations.add_argument("--jobs", type=int, default=1,
                           help="worker processes, one variant each "
                                "(same outcomes, same order, any value)")
    ablations.add_argument("--no-cache", action="store_true",
                           help="disable the content-addressed caches")
    ablations.add_argument("--json", default=None, metavar="PATH",
                           help="write outcomes + run manifest as JSON")

    trace = sub.add_parser(
        "trace", help="run a traced study and print the span tree"
    )
    _add_study_args(trace)
    trace.add_argument("--json", default=None, metavar="PATH",
                       help="write Chrome/Perfetto trace_event JSON "
                            "(open in chrome://tracing or ui.perfetto.dev)")
    trace.add_argument("--metrics", default=None, metavar="PATH",
                       help="write the per-sim-day metrics.jsonl series")
    trace.add_argument("--counters", action="store_true",
                       help="also show PERF counter deltas per span")
    trace.add_argument("--sparklines", action="store_true",
                       help="also print the per-sim-day series as sparklines")

    chaos = sub.add_parser(
        "chaos", help="run clean + fault-injected studies and compare"
    )
    _add_study_args(chaos)
    chaos.add_argument("--profile", choices=sorted(PROFILES),
                       default="monsoon", help="fault profile to inject")
    chaos.add_argument("--fault-seed", type=int, default=0,
                       help="fault-injection seed")
    chaos.add_argument("--out", default="chaos-output",
                       help="output directory")
    chaos.add_argument("--tolerance", type=float, default=0.5, metavar="T",
                       help="max allowed relative PSR-count deviation of the "
                            "chaos run from the clean run")
    chaos.add_argument("--skip-verify", action="store_true",
                       help="skip the repeat chaos run that proves "
                            "same-fault-seed determinism")
    _add_ledger_args(chaos, writes=True)

    gate = sub.add_parser(
        "gate", help="band the latest ledger record against the baseline"
    )
    _add_ledger_args(gate)
    gate.add_argument("--baseline", default="baselines/gate.json",
                      metavar="PATH", help="committed baseline file")
    gate.add_argument("--key", default=None,
                      help="gate the latest record with this key "
                           "(default: the ledger's latest record)")
    gate.add_argument("--kind", default=None,
                      help="restrict record selection to this kind "
                           "(e.g. study, chaos)")
    gate.add_argument("--update", action="store_true",
                      help="write/refresh the baseline entry from the "
                           "selected record instead of gating")
    gate.add_argument("--verdict", default=None, metavar="PATH",
                      help="also write the deterministic verdict lines "
                           "(byte-identical across cache variants "
                           "on a clean run)")
    gate.add_argument("--report", default=None, metavar="PATH",
                      help="also write the full drift report "
                           "(values + ledger-history sparklines)")

    history = sub.add_parser(
        "history", help="render ledger record list + metric trajectories"
    )
    _add_ledger_args(history)
    history.add_argument("paths", nargs="*",
                         default=["psr.total", "psr.doorways", "psr.stores",
                                  "wall_s"],
                         help="metric dot-paths to sparkline "
                              "(default: headline counts + wall time)")
    history.add_argument("--kind", default=None,
                         help="filter records by kind")
    history.add_argument("--key", default=None,
                         help="filter records by comparability key")
    history.add_argument("--limit", type=int, default=32, metavar="N",
                         help="show at most the last N records")

    compare = sub.add_parser(
        "compare", help="diff two ledger records metric by metric"
    )
    _add_ledger_args(compare)
    compare.add_argument("ref_a", help="record: an integer shorter than six "
                                       "characters is an index (-1 = latest); "
                                       "anything else is a run-id prefix")
    compare.add_argument("ref_b", help="record: index or run-id prefix, "
                                       "read as for ref_a")

    cache = sub.add_parser(
        "cache", help="inspect, validate, or clear the persistent disk cache"
    )
    cache.add_argument("--dir", default=None, metavar="DIR",
                       help="cache directory (default: $REPRO_DISK_CACHE)")
    cache.add_argument("--validate", action="store_true",
                       help="digest-check every entry; quarantine failures "
                            "(exit 1 when any entry was bad)")
    cache.add_argument("--clear", action="store_true",
                       help="remove every cached entry and the quarantine")
    cache.add_argument("--json", action="store_true",
                       help="print machine-readable stats")

    lint = sub.add_parser(
        "lint", help="run the determinism/concurrency static analyzer"
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="comma-separated rule codes to run (default: all)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", dest="fmt", help="output format")
    lint.add_argument("--summary", default=None, metavar="PATH",
                      help="write BENCH_lint.json-style summary counts")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")
    return parser


def _apply_disk_args(args) -> None:
    """Resolve the persistent-tier knobs before any cache is touched."""
    if getattr(args, "no_disk_cache", False):
        set_disk_cache(None)
    elif getattr(args, "disk_cache", None):
        set_disk_cache(args.disk_cache)


def _config_for(args):
    from repro.ecosystem import paper_preset, small_preset

    if args.preset == "paper":
        kwargs = {"scale": args.scale, "terms_per_vertical": args.terms}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        return paper_preset(**kwargs)
    if args.seed is not None:
        return small_preset(seed=args.seed)
    return small_preset()


def command_run(args) -> int:
    from repro.crawler import CrawlPolicy
    from repro.study import StudyRun

    if args.no_cache:
        set_caches_enabled(False)
    _apply_disk_args(args)
    if args.trace:
        set_tracing_enabled(True)
    if args.die_after_day is not None and args.checkpoint is None:
        print("repro run: --die-after-day requires --checkpoint",
              file=sys.stderr)
        return 2
    config = _config_for(args)
    print(f"Running {args.preset} preset "
          f"({len(config.verticals)} verticals, "
          f"{len(config.all_campaign_specs())} campaigns, "
          f"{len(config.window)} days"
          + (f", faults={args.profile}" if args.profile else "")
          + ")...", flush=True)
    study = StudyRun(
        config, crawl_policy=CrawlPolicy(stride_days=args.stride),
        fault_profile=profile_named(args.profile) if args.profile else None,
        fault_seed=args.fault_seed,
        checkpoint_path=args.checkpoint,
        checkpoint_every_days=args.checkpoint_every,
        resume=args.resume,
        die_after_day=args.die_after_day,
    )
    try:
        with timed() as clock:
            results = study.execute()
    except SimulatedCrash:
        print(f"simulated crash after day index {args.die_after_day}; "
              f"checkpoint saved to {args.checkpoint} "
              f"(continue with --resume)")
        return SimulatedCrash.exit_code
    if study.resumed_from_day is not None:
        print(f"resumed from checkpoint at day index "
              f"{study.resumed_from_day}")
    os.makedirs(args.out, exist_ok=True)

    results.dataset.dump_jsonl(os.path.join(args.out, "psrs.jsonl"))
    # metrics.jsonl rides with --trace.  Its rows are deterministic, and
    # provenance (created_at, git_sha, cpus) goes only to manifest.json
    # and trace.json, so two traced runs differ in those two files alone.
    if args.trace and results.metrics is not None:
        results.metrics.write_jsonl(os.path.join(args.out, "metrics.jsonl"))

    with TRACER.span("analysis"):
        artifacts = _analysis_artifacts(args, results)
    for name, content in artifacts.items():
        with atomic_write(os.path.join(args.out, name)) as handle:
            handle.write(content + "\n")
    if args.trace:
        manifest = run_manifest(config)
        TRACER.dump_chrome_trace(os.path.join(args.out, "trace.json"),
                                 manifest=manifest)
        _write_manifest(args.out, manifest)
        print(TRACER.render())
    print(artifacts["summary.txt"])
    extras = "psrs.jsonl" if not args.trace else \
        "psrs.jsonl, metrics.jsonl, trace.json, manifest.json"
    print(f"\nArtifacts written to {args.out}/ "
          f"({', '.join(sorted(artifacts))} + {extras})")
    ledger_path = _ledger_path(args)
    if ledger_path:
        record = RunLedger(ledger_path).append(build_study_record(
            config, results, wall_s=clock["wall_s"], stride=args.stride,
            preset=args.preset, profile=args.profile,
            fault_seed=args.fault_seed,
            # Fault-injected runs are their own kind: their headline
            # numbers must never blend into the clean study history.
            kind="study" if args.profile is None else "faulted",
        ))
        print(f"Ledger record {record['run_id']} appended to {ledger_path}")
    return 0


def _analysis_artifacts(args, results) -> dict:
    """Tables, figure, and summary for one completed study run."""
    from repro.analysis import (
        DailyAggregates,
        campaign_table,
        label_coverage,
        rotation_reactions,
        seizure_table,
        sparkline_extremes,
        supplier_summary,
        vertical_table,
    )

    dataset = results.dataset
    aggregates = DailyAggregates(dataset)

    table1_rows = vertical_table(dataset, aggregates)
    table1 = render_table(
        ["Vertical", "# PSRs", "# Doorways", "# Stores", "# Campaigns"],
        [[r.vertical, r.psrs, r.doorways, r.stores, r.campaigns] for r in table1_rows],
        title="Table 1",
    )
    brand_names = [b.name for b in results.world.brand_catalog.all()]
    table2_rows = campaign_table(dataset, results.archive, brand_names,
                                 aggregates=aggregates)
    table2_rows.sort(key=lambda r: -r.doorways)
    table2 = render_table(
        ["Campaign", "# Doorways", "# Stores", "# Brands", "Peak (days)"],
        [[r.campaign, r.doorways, r.stores, r.brands, r.peak_days] for r in table2_rows],
        title="Table 2",
    )
    table3_rows = seizure_table(dataset, results.crawler)
    table3 = render_table(
        ["Firm", "# Cases", "# Brands", "# Seized", "# Stores", "# Classified",
         "# Campaigns"],
        [[r.firm, r.cases, r.brands, r.seized_domains, r.observed_stores,
          r.classified_stores, r.campaigns] for r in table3_rows],
        title="Table 3",
    )
    fig3_lines = ["Figure 3 — % results poisoned (top-100)"]
    for vertical in dataset.verticals():
        extremes = sparkline_extremes(dataset, vertical, 100, aggregates)
        fig3_lines.append(
            sparkline_row(vertical, [v for _, v in extremes.series], width=40)
        )

    coverage = label_coverage(dataset)
    summary_lines = [
        f"PSRs: {len(dataset):,}",
        f"doorway domains: {len(dataset.doorway_hosts()):,}",
        f"stores: {len(dataset.store_hosts()):,}",
        f"'hacked' label coverage: {coverage.coverage:.2%}",
    ]
    if results.attribution is not None:
        summary_lines.append(
            f"attribution rate: {results.attribution.attribution_rate:.1%} "
            f"over {len(results.attribution.campaigns)} campaigns"
        )
    for stats in rotation_reactions(dataset):
        summary_lines.append(
            f"{stats.firm}: {stats.redirected_stores}/{stats.seized_stores} seized "
            f"stores redirected, {stats.mean_reaction_days:.0f}d mean reaction"
        )
    if results.supplier is not None:
        shipped = supplier_summary(results.supplier.scrape_all())
        summary_lines.append(
            f"supplier: {shipped.total_records:,} shipments, "
            f"{shipped.delivery_rate:.0%} delivered"
        )

    return {
        "table1.txt": table1,
        "table2.txt": table2,
        "table3.txt": table3,
        "figure3.txt": "\n".join(fig3_lines),
        "summary.txt": "\n".join(summary_lines),
    }


def command_ablations(args) -> int:
    from repro.analysis import run_intervention_ablations
    from repro.ecosystem import small_preset

    if args.no_cache:
        set_caches_enabled(False)
    print(f"Running intervention ablations over a {args.days}-day window "
          f"(jobs={args.jobs})...", flush=True)
    outcomes = run_intervention_ablations(
        lambda: small_preset(days=args.days), jobs=args.jobs
    )
    baseline = outcomes[0]
    print(render_table(
        ["Policy", "Orders", "vs base", "Sales", "vs base", "PSRs", "Seized"],
        [[o.name, o.total_orders, f"{o.orders_vs(baseline):.2f}x",
          o.completed_sales, f"{o.sales_vs(baseline):.2f}x",
          o.psr_count, o.seized_domains] for o in outcomes],
    ))
    if args.json:
        payload = {
            "manifest": run_manifest(small_preset(days=args.days),
                                     jobs=args.jobs),
            "outcomes": [asdict(o) for o in outcomes],
        }
        with atomic_write(args.json) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nOutcomes + manifest written to {args.json}")
    return 0


def command_trace(args) -> int:
    from repro.crawler import CrawlPolicy
    from repro.study import StudyRun

    if args.no_cache:
        set_caches_enabled(False)
    _apply_disk_args(args)
    set_tracing_enabled(True)
    config = _config_for(args)
    print(f"Tracing {args.preset} preset "
          f"({len(config.verticals)} verticals, {len(config.window)} days, "
          f"cache={'off' if args.no_cache else 'on'})...", flush=True)
    start = perf_counter()
    results = StudyRun(
        config, crawl_policy=CrawlPolicy(stride_days=args.stride),
    ).execute()
    wall_s = perf_counter() - start
    print(TRACER.render(show_counters=args.counters))
    traced_s = TRACER.total_s()
    print(f"\ntraced {traced_s:.3f}s of {wall_s:.3f}s wall-clock "
          f"({traced_s / wall_s:.1%} coverage)")
    if args.sparklines and results.metrics is not None:
        print()
        print(results.metrics.render_sparklines())
    if args.json:
        TRACER.dump_chrome_trace(args.json, manifest=run_manifest(config))
        print(f"\nChrome trace written to {args.json} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    if args.metrics and results.metrics is not None:
        results.metrics.write_jsonl(args.metrics)
        print(f"Per-sim-day metrics written to {args.metrics}")
    return 0


def command_chaos(args) -> int:
    """Clean run vs fault-injected run of the same scenario.

    Asserts the resilience invariants the fault layer guarantees: the
    chaos run completes (no crash), the same fault seed reproduces
    byte-identical output, and the headline counts stay within
    ``--tolerance`` of the clean run — checked with the same band
    machinery the release gate uses (:func:`repro.obs.gate.check_bands`),
    the clean run acting as the baseline.  Exit 1 on any violation.
    """
    from repro.crawler import CrawlPolicy
    from repro.obs.gate import Band, check_bands
    from repro.obs.ledger import flatten
    from repro.study import StudyRun

    if args.no_cache:
        set_caches_enabled(False)
    _apply_disk_args(args)
    profile = profile_named(args.profile)
    os.makedirs(args.out, exist_ok=True)

    def run_study(fault_profile=None):
        return StudyRun(
            _config_for(args),
            crawl_policy=CrawlPolicy(stride_days=args.stride),
            fault_profile=fault_profile,
            fault_seed=args.fault_seed,
        ).execute()

    config = _config_for(args)
    print(f"Chaos drill: {args.preset} preset, profile '{profile.name}' "
          f"(fault seed {args.fault_seed}, {len(config.window)} days)...",
          flush=True)
    with timed() as clean_clock:
        clean = run_study()
    counter_base = dict(PERF.counters())
    with timed() as chaos_clock:
        chaos = run_study(profile)
    fault_counters = {
        name: value - counter_base.get(name, 0)
        for name, value in sorted(PERF.counters().items())
        if name.startswith("faults.") and value != counter_base.get(name, 0)
    }

    clean.dataset.dump_jsonl(os.path.join(args.out, "psrs-clean.jsonl"))
    chaos.dataset.dump_jsonl(os.path.join(args.out, "psrs.jsonl"))
    if chaos.metrics is not None:
        chaos.metrics.write_jsonl(os.path.join(args.out, "metrics.jsonl"))
    _write_manifest(args.out, run_manifest(
        config, fault_profile=profile.name, fault_seed=args.fault_seed))

    # The clean run is the baseline; the chaos run must stay inside the
    # tolerance bands.  Only the banded paths are enforced — the rest of
    # the headline tree rides along for the report.
    bands = [
        Band("psr.total", rel_tol=args.tolerance, abs_tol=2),
        Band("psr.doorways", rel_tol=args.tolerance, abs_tol=2),
        Band("psr.stores", rel_tol=args.tolerance, abs_tol=2),
    ]
    checks = check_bands(flatten(chaos.headline()),
                         flatten(clean.headline()), bands)
    print(render_drift_table(
        checks,
        title=f"Clean vs '{profile.name}' "
              f"(tolerance {args.tolerance:.0%})",
    ))
    print("\nFault counters (chaos run):")
    if fault_counters:
        for name, value in fault_counters.items():
            print(f"  {name:40s} {value:>8,}")
    else:
        print("  (none injected)")

    failures = []
    for check in checks:
        if check.status == "drift":
            failures.append(
                f"{check.path} deviates beyond tolerance: clean "
                f"{check.baseline:g}, chaos {check.current:g} "
                f"(allowed ±{check.allowed:g})"
            )
        elif check.status == "missing":
            failures.append(f"{check.path} missing from the chaos run")
    if not args.skip_verify:
        print("\nVerifying same-fault-seed determinism (repeat chaos run)...",
              flush=True)
        repeat = run_study(profile)
        repeat_path = os.path.join(args.out, "psrs-repeat.jsonl")
        repeat.dataset.dump_jsonl(repeat_path)
        with open(os.path.join(args.out, "psrs.jsonl"), "rb") as first:
            first_bytes = first.read()
        with open(repeat_path, "rb") as second:
            identical = second.read() == first_bytes
        os.unlink(repeat_path)
        if identical:
            print("  identical output: yes")
        else:
            failures.append("repeat chaos run with the same fault seed "
                            "produced different output")

    ledger_path = _ledger_path(args)
    if ledger_path:
        ledger = RunLedger(ledger_path)
        ledger.append(build_study_record(
            config, clean, wall_s=clean_clock["wall_s"], stride=args.stride,
            preset=args.preset, kind="study",
        ))
        record = ledger.append(build_study_record(
            config, chaos, wall_s=chaos_clock["wall_s"], stride=args.stride,
            preset=args.preset, kind="chaos",
            profile=profile.name, fault_seed=args.fault_seed,
        ))
        print(f"\nLedger records (clean + chaos, latest {record['run_id']}) "
              f"appended to {ledger_path}")

    if failures:
        for failure in failures:
            print(f"\nINVARIANT VIOLATED: {failure}")
        return 1
    print(f"\nAll resilience invariants hold; artifacts in {args.out}/")
    return 0


def command_gate(args) -> int:
    """Band the latest ledger record against the committed baseline.

    Exit 0 when every banded metric holds, 1 on drift (or a banded
    baseline metric the run lost), 2 on missing inputs (no ledger, no
    matching record, no baseline entry for the record's key).
    """
    ledger_path = _ledger_path(args)
    if not ledger_path:
        print(f"repro gate: no ledger (pass --ledger or set ${LEDGER_ENV})",
              file=sys.stderr)
        return 2
    ledger = RunLedger(ledger_path)
    record = ledger.latest(kind=args.kind, key=args.key)
    if record is None:
        print(f"repro gate: {ledger_path}: no matching run record",
              file=sys.stderr)
        return 2

    if args.update:
        existing = None
        if os.path.exists(args.baseline):
            existing = load_baseline(args.baseline)
        write_baseline(args.baseline, [record], existing=existing)
        print(f"baseline entry for {record['key']} "
              f"(run {record['run_id']}) written to {args.baseline}")
        return 0

    try:
        baseline = load_baseline(args.baseline)
    except FileNotFoundError:
        print(f"repro gate: {args.baseline}: no baseline file "
              f"(create one with --update)", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro gate: {exc}", file=sys.stderr)
        return 2
    result = run_gate(record, baseline)
    if result is None:
        print(f"repro gate: {args.baseline}: no baseline entry for key "
              f"{record['key']} (add one with --update)", file=sys.stderr)
        return 2

    verdict = "\n".join(result.verdict_lines())
    print(verdict)
    if args.verdict:
        with atomic_write(args.verdict) as handle:
            handle.write(verdict + "\n")

    report_parts = [render_drift_table(
        result.checks, title=f"Drift report for {record['key']} "
                             f"(run {record['run_id']})")]
    series = gate_history(ledger, result.checks, key=record["key"],
                          kind=record.get("kind"))
    report_parts.append(render_history(series))
    report = "\n\n".join(report_parts)
    if args.report:
        with atomic_write(args.report) as handle:
            handle.write(report + "\n")
        print(f"\nDrift report written to {args.report}")
    if not result.ok:
        print()
        print(report)
        return 1
    return 0


def command_history(args) -> int:
    """Ledger record list + per-metric trajectories."""
    ledger_path = _ledger_path(args)
    if not ledger_path:
        print(f"repro history: no ledger "
              f"(pass --ledger or set ${LEDGER_ENV})", file=sys.stderr)
        return 2
    ledger = RunLedger(ledger_path)
    records = ledger.records(kind=args.kind, key=args.key)
    if not records:
        print(f"repro history: {ledger_path}: no matching run records",
              file=sys.stderr)
        return 2
    shown = records[-args.limit:]
    rows = []
    for record in shown:
        manifest = record.get("manifest") or {}
        rows.append([
            record.get("run_id", "?"),
            record.get("kind", "?"),
            str(record.get("key", "?"))[:24],
            str(manifest.get("git_sha"))[:12],
            f"{record['wall_s']:.1f}s" if record.get("wall_s") else "-",
            manifest.get("created_at", "-"),
        ])
    print(render_table(
        ["Run", "Kind", "Key", "Git", "Wall", "Created"],
        rows, title=f"Ledger {ledger_path} "
                    f"({len(shown)} of {len(records)} records)",
    ))
    series = ledger.history(args.paths, kind=args.kind, key=args.key)
    series = {path: values[-args.limit:]
              for path, values in sorted(series.items()) if values}
    if series:
        print()
        print(render_history(series))
    return 0


def command_compare(args) -> int:
    """Metric-by-metric diff of two ledger records."""
    ledger_path = _ledger_path(args)
    if not ledger_path:
        print(f"repro compare: no ledger "
              f"(pass --ledger or set ${LEDGER_ENV})", file=sys.stderr)
        return 2
    ledger = RunLedger(ledger_path)
    try:
        record_a = ledger.find(args.ref_a)
        record_b = ledger.find(args.ref_b)
    except LookupError as exc:
        print(f"repro compare: {exc}", file=sys.stderr)
        return 2
    print(render_record_diff(record_a, record_b,
                             shown_metrics(record_a), shown_metrics(record_b)))
    return 0


def command_cache(args) -> int:
    """Stats / integrity check / clear for the persistent disk tier."""
    path = args.dir or os.environ.get("REPRO_DISK_CACHE")
    if not path:
        print("repro cache: no cache directory "
              "(pass --dir or set REPRO_DISK_CACHE)", file=sys.stderr)
        return 2
    if not os.path.isdir(path) and not args.clear:
        print(f"repro cache: {path}: no such directory", file=sys.stderr)
        return 2
    disk = DiskCache(path)
    if args.clear:
        removed = disk.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {path}")
        return 0
    validation = None
    if args.validate:
        validation = disk.validate()
    stats = disk.stats()
    if args.json:
        payload = dict(stats)
        if validation is not None:
            payload["validation"] = validation
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = [
            [name, c["entries"], f"{c['bytes'] / 1024:.0f} KiB",
             c["hits"], c["misses"],
             "-" if c["hit_rate"] is None else f"{c['hit_rate']:.0%}"]
            for name, c in sorted(stats["caches"].items())
        ]
        print(render_table(
            ["Cache", "Entries", "Size", "Hits", "Misses", "Hit rate"],
            rows, title=f"Disk cache at {stats['path']}",
        ))
        print(f"\ntotal: {stats['entries']} entries, "
              f"{stats['total_bytes'] / 1024 / 1024:.1f} MiB "
              f"(cap {stats['max_bytes'] / 1024 / 1024 / 1024:.1f} GiB), "
              f"{stats['quarantined']} quarantined")
        if validation is not None:
            print(f"validate: {validation['checked']} checked, "
                  f"{validation['ok']} ok, "
                  f"{validation['quarantined']} quarantined")
    if validation is not None and validation["quarantined"]:
        return 1
    return 0


def command_lint(args) -> int:
    selected = args.select.split(",") if args.select else None
    try:
        rules = select_rules(selected)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.list_rules:
        for rule in rules:
            print(f"{rule.code}  {rule.name:24s} {rule.hint}")
        return 0
    try:
        report = lint_paths(args.paths, rules)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        print(format_json(report))
    else:
        print(format_text(report))
    if args.summary:
        write_summary(report, args.summary)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return command_run(args)
    if args.command == "ablations":
        return command_ablations(args)
    if args.command == "trace":
        return command_trace(args)
    if args.command == "chaos":
        return command_chaos(args)
    if args.command == "gate":
        return command_gate(args)
    if args.command == "history":
        return command_history(args)
    if args.command == "compare":
        return command_compare(args)
    if args.command == "cache":
        return command_cache(args)
    if args.command == "lint":
        return command_lint(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
