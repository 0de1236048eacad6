"""Microbenchmark: columnar SERP serving vs. the seed's scalar loop.

Builds the ecosystem at the default benchmark scale (the same
``paper_preset`` the table/figure benchmarks use), advances 60 days of
campaign and intervention state so the index carries doorways, penalties,
and labels, then serves monitored terms through

* ``scalar_serp`` — a line-faithful copy of the pre-columnar engine's
  scoring loop, including its per-entry dataclass results and id()-keyed
  static-score cache, and
* ``SearchEngine.serp`` — the columnar path under test.

The two must agree field-for-field — identical ordering and labels,
bit-exact scores (``NoiseSource.for_serp`` delivers the batch stream one
scalar draw at a time) — before any timing is trusted; the comparison
then lands in ``BENCH_serp.json`` (see ``benchlib.write_bench_json``).

No absolute-time assertions: CI boxes vary.  The speedup *ratio* is
asserted only at the default scale, with a floor well under the target so
noisy neighbours cannot flake the suite; the measured ratio is what the
JSON records.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ecosystem import paper_preset
from repro.ecosystem.simulator import Simulator
from repro.search.engine import SearchEngine
from repro.search.index import IndexedEntry, no_seo_signal
from repro.search.serp import ResultLabel
from repro.util.simtime import SimDate

from benchlib import print_comparison, write_bench_json

#: Default benchmark scale — mirrors benchmarks/conftest.py.  The CI perf
#: smoke overrides these down via environment variables.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
TERMS_PER_VERTICAL = int(os.environ.get("REPRO_BENCH_TERMS", "8"))
AT_DEFAULT_SCALE = "REPRO_BENCH_SCALE" not in os.environ
WARMUP_DAYS = 60
TIMING_REPS = int(os.environ.get("REPRO_BENCH_REPS", "20"))


@dataclass
class _SeedResult:
    """The seed engine's SearchResult was a dataclass; the reference loop
    keeps paying its construction cost to stay a faithful 'before'."""

    rank: int
    url: str
    host: str
    path: str
    label: ResultLabel
    score: float
    entry: Optional[IndexedEntry]


def scalar_serp(
    engine: SearchEngine,
    static_cache: Dict[int, float],
    term: str,
    day,
) -> List[_SeedResult]:
    """The pre-columnar ``SearchEngine.serp`` body, verbatim in structure:
    per-entry gauss noise, python-level scoring, key-lambda sort, host-cap
    fill.  Reads the live engine's state so both paths rank the same
    world."""
    day = SimDate(day)
    gauss = engine._noise.for_serp(term, day)
    w_seo = engine.ranking.w_seo
    w_auth = engine.ranking.w_authority
    w_rel = engine.ranking.w_relevance
    penalties = engine._penalties
    scored: List[Tuple[float, IndexedEntry]] = []
    for entry in engine.index.candidates(term):
        indexed_on = entry.indexed_on
        if indexed_on is not None and day < indexed_on:
            continue
        key = id(entry)
        static = static_cache.get(key)
        if static is None:
            static = w_auth * entry.authority + w_rel * entry.relevance
            static_cache[key] = static
        score = static + gauss()
        signal = entry.seo_signal
        if signal is not no_seo_signal:
            score += w_seo * signal(day)
        penalty = penalties.get(entry.host)
        if penalty is not None and penalty.since <= day:
            score -= penalty.amount
        scored.append((score, entry))
    scored.sort(key=lambda pair: -pair[0])

    results: List[_SeedResult] = []
    per_host: Dict[str, int] = {}
    for score, entry in scored:
        count = per_host.get(entry.host, 0)
        if count >= engine.max_results_per_host:
            continue
        per_host[entry.host] = count + 1
        rank = len(results) + 1
        results.append(
            _SeedResult(
                rank=rank,
                url=entry.url,
                host=entry.host,
                path=entry.path,
                label=engine._result_label(entry.host, entry.path, day),
                score=score,
                entry=entry,
            )
        )
        if rank >= engine.serp_size:
            break
    return results


def _mid_study_world():
    """The bench-preset world with 60 days of campaign/intervention churn
    (no traffic pass needed to exercise the serving path)."""
    config = paper_preset(scale=SCALE, terms_per_vertical=TERMS_PER_VERTICAL)
    sim = Simulator(config)
    world = sim.build()
    for offset, day in enumerate(world.window):
        if offset >= WARMUP_DAYS:
            break
        world.today = day
        for campaign in sim.campaigns:
            campaign.on_day(world, day)
        sim.search_team.on_day(world, day)
        for firm in sim.firms:
            firm.on_day(world, day)
    return world


def _sample_queries(world) -> List[Tuple[str, object]]:
    days = list(world.window)[20:WARMUP_DAYS:7]
    # repro: allow-D005 verticals dict is built in fixed config order; sampling must match the golden serve sequence
    terms = [vertical.terms[0] for vertical in world.verticals.values()]
    return [(term, day) for term in terms for day in days]


def test_serp_columnar_vs_scalar():
    world = _mid_study_world()
    engine = world.engine
    queries = _sample_queries(world)
    static_cache: Dict[int, float] = {}
    per_query = len(queries)

    scalar_reps: List[float] = []
    columnar_reps: List[float] = []
    # -- equivalence first: same ranks, urls, labels, bit-exact scores --- #
    for term, day in queries:
        expected = scalar_serp(engine, static_cache, term, day)
        actual = engine.serp(term, day).results
        assert len(actual) == len(expected), (term, day)
        for exp, act in zip(expected, actual):
            assert (act.rank, act.url, act.host, act.path, act.label) == (
                exp.rank, exp.url, exp.host, exp.path, exp.label), (term, day)
            assert act.score == exp.score, (term, day, exp.rank)

    # -- then timing over identical query streams ------------------------ #
    candidates = [len(engine.index.candidates(term)) for term, _ in queries]

    # Interleave the two sides rep by rep — each side runs its full
    # query stream back to back, so both are measured in their own
    # steady state (finer interleaving pollutes the columnar path's
    # caches with the scalar loop's garbage churn and overstates its
    # cost by ~8%).  Each side's *minimum* rep is the headline:
    # standard timeit doctrine — on a shared box, higher readings
    # measure interference, not the code.  Medians land in the JSON
    # alongside for context.
    gc.collect()
    for _ in range(TIMING_REPS):
        t0 = time.perf_counter()
        for term, day in queries:
            scalar_serp(engine, static_cache, term, day)
        t1 = time.perf_counter()
        for term, day in queries:
            engine.serp(term, day)
        t2 = time.perf_counter()
        scalar_reps.append(t1 - t0)
        columnar_reps.append(t2 - t1)

    scalar_us = min(scalar_reps) / per_query * 1e6
    columnar_us = min(columnar_reps) / per_query * 1e6
    speedup = scalar_us / columnar_us

    write_bench_json("serp", {
        "scale": SCALE,
        "terms_per_vertical": TERMS_PER_VERTICAL,
        "queries": len(queries),
        "timing_reps": TIMING_REPS,
        "serp_size": engine.serp_size,
        "candidates_per_term": {
            "min": min(candidates), "max": max(candidates),
            "mean": sum(candidates) / len(candidates),
        },
        "scalar_us_per_serp": scalar_us,
        "columnar_us_per_serp": columnar_us,
        "scalar_us_per_serp_median": statistics.median(scalar_reps) / per_query * 1e6,
        "columnar_us_per_serp_median": statistics.median(columnar_reps) / per_query * 1e6,
        "speedup": speedup,
    }, ledger_metrics={
        "scalar_us_per_serp": scalar_us,
        "columnar_us_per_serp": columnar_us,
        "speedup": speedup,
    })
    print_comparison("SERP serving (us/serp)", [
        ("scalar (seed)", "-", f"{scalar_us:.1f}"),
        ("columnar", "-", f"{columnar_us:.1f}"),
        ("speedup", ">=3x target", f"{speedup:.2f}x"),
    ])

    if AT_DEFAULT_SCALE:
        # Conservative floor: the target is >=3x, but CI noise must not
        # flake the suite; BENCH_serp.json carries the measured ratio.
        assert speedup > 1.5, f"columnar serving only {speedup:.2f}x faster"
