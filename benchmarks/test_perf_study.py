"""End-to-end study timing: the content-addressed caches' headline A/B.

Runs the full pipeline (simulation, crawl, test orders, classification,
attribution) twice over the identical scenario — once under
``caches_disabled()`` and once with the caches live — and records both
wall times, their ratio, the hot-path breakdown from the always-on
:data:`repro.util.perf.PERF` registry, and the cache hit/miss/evict
counters into ``BENCH_study.json``.

The two legs must produce *byte-identical* PSR dumps: caching changes
wall-clock, never results.  That equivalence is asserted here on the big
preset as well as in ``tests/test_perf_cache.py`` on the small one.

Default configuration is the paper preset at the benchmark scale
(0.25 census, 8 terms/vertical, 3-day stride — mirrors
``benchmarks/conftest.py``).  The CI smoke sets
``REPRO_BENCH_STUDY_PRESET=small`` to keep the job short; other knobs:
``REPRO_BENCH_SCALE``, ``REPRO_BENCH_TERMS``, ``REPRO_BENCH_STUDY_DAYS``
(small preset window).

A classification-only pass also times one classifier fit (``fit_s``) on
the study's labeled pages: features plus the batched one-vs-rest solve.

A third pair of legs measures the *persistent* disk tier: two identical
small-preset runs share one ``--disk-cache`` store (cold populates, warm
reads back), byte-compared and recorded under the ``disk`` block together
with the checkpoint byte accounting at ``--checkpoint-every 1``
(``REPRO_BENCH_DISK_DAYS`` sets the window, default 30).

The speedup floor is asserted only at the default configuration and well
under the measured ratio so CI noise cannot flake the suite; the JSON is
the artifact.
"""

from __future__ import annotations

import gc
import os
import time

from repro.classify.pipeline import CampaignClassifier
from repro.crawler.serp_crawler import CrawlPolicy
from repro.ecosystem import paper_preset, small_preset
from repro.perf.cache import (
    caches_disabled,
    disk_cache,
    reset_caches,
    set_disk_cache,
)
from repro.study import StudyRun
from repro.util.perf import PERF

from benchlib import print_comparison, write_bench_json

PRESET = os.environ.get("REPRO_BENCH_STUDY_PRESET", "paper")
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
TERMS_PER_VERTICAL = int(os.environ.get("REPRO_BENCH_TERMS", "8"))
DAYS = int(os.environ.get("REPRO_BENCH_STUDY_DAYS", "70"))
AT_DEFAULT = not any(
    name in os.environ
    for name in ("REPRO_BENCH_STUDY_PRESET", "REPRO_BENCH_SCALE",
                 "REPRO_BENCH_TERMS", "REPRO_BENCH_STUDY_DAYS")
)
#: Disk-tier cold/warm A/B window (small preset, always — the disk legs
#: measure the persistent tier, not the scenario scale).
DISK_DAYS = int(os.environ.get("REPRO_BENCH_DISK_DAYS", "30"))


def _disk_tier_block(tmp_path):
    """Cold -> warm small-preset A/B over one shared store, plus the
    checkpoint byte accounting at ``--checkpoint-every 1``."""

    def leg():
        reset_caches()
        PERF.reset()
        start = time.perf_counter()
        results = StudyRun(small_preset(days=DISK_DAYS), classify=False,
                           crawl_policy=CrawlPolicy(stride_days=2)).execute()
        wall_s = time.perf_counter() - start
        counters = {name: value
                    for name, value in sorted(PERF.counters().items())
                    if name.startswith("cache.")}
        path = os.path.join(str(tmp_path), "disk_leg.jsonl")
        results.dataset.dump_jsonl(path)
        with open(path, "rb") as handle:
            return wall_s, counters, handle.read()

    previous = set_disk_cache(os.path.join(str(tmp_path), "dcache"))
    try:
        cold_s, cold_counters, cold_bytes = leg()
        warm_s, warm_counters, warm_bytes = leg()
        # Store-health snapshot after both legs: entry/byte totals vs the
        # cap and the quarantine count, for the release gate's bands.
        stats = disk_cache().stats()
        store = {
            "entries": stats["entries"],
            "total_bytes": stats["total_bytes"],
            "max_bytes": stats["max_bytes"],
            "utilization": stats["utilization"],
            "quarantined": stats["quarantined"],
        }
    finally:
        set_disk_cache(previous)
        reset_caches()
    assert warm_bytes == cold_bytes, "warm start changed the PSR records"
    warm_hits = sum(value for name, value in warm_counters.items()
                    if name.endswith(".disk_hit"))
    assert warm_hits > 0, "warm leg never read the disk tier"
    assert any(name.endswith(".write") and value > 0
               for name, value in cold_counters.items()), \
        "cold leg never populated the disk tier"

    ckpt_run = StudyRun(small_preset(days=DISK_DAYS), classify=False,
                        crawl_policy=CrawlPolicy(stride_days=2),
                        checkpoint_path=os.path.join(str(tmp_path), "b.ckpt"),
                        checkpoint_every_days=1)
    ckpt_run.execute()
    checkpoint = ckpt_run.checkpoint_stats
    assert checkpoint["saves"] == DISK_DAYS
    return {
        "days": DISK_DAYS,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s,
        "cold_counters": cold_counters,
        "warm_counters": warm_counters,
        "checkpoint": checkpoint,
        "store": store,
    }


def _study_run():
    if PRESET == "paper":
        config = paper_preset(scale=SCALE, terms_per_vertical=TERMS_PER_VERTICAL)
        return StudyRun(config, crawl_policy=CrawlPolicy(stride_days=3),
                        seed_label_count=491, refinement_rounds=1)
    return StudyRun(small_preset(days=DAYS),
                    crawl_policy=CrawlPolicy(stride_days=2))


def _timed_leg():
    PERF.reset()
    start = time.perf_counter()
    results = _study_run().execute()
    total_s = time.perf_counter() - start
    return results, total_s, PERF.report(), PERF.counters()


def test_study_end_to_end_perf(tmp_path):
    # -- leg 1: caches disabled (the 'before' wall-clock) ---------------- #
    with caches_disabled():
        results_plain, total_s_uncached, perf_uncached, _ = _timed_leg()
    plain_path = os.path.join(str(tmp_path), "plain.jsonl")
    results_plain.dataset.dump_jsonl(plain_path)
    # Release leg 1's world before timing leg 2: a couple hundred
    # thousand retained PSRs tax every GC pass of the cached leg.
    del results_plain
    gc.collect()

    # -- leg 2: caches live, cold start --------------------------------- #
    reset_caches()
    results, total_s_cached, breakdown, counters = _timed_leg()
    cache_counters = {name: value for name, value in sorted(counters.items())
                      if name.startswith("cache.")}
    speedup = total_s_uncached / total_s_cached

    # -- equivalence: the two legs are byte-identical ------------------- #
    cached_path = os.path.join(str(tmp_path), "cached.jsonl")
    results.dataset.dump_jsonl(cached_path)
    with open(plain_path, "rb") as handle:
        plain_bytes = handle.read()
    with open(cached_path, "rb") as handle:
        cached_bytes = handle.read()
    assert cached_bytes == plain_bytes, "caching changed the PSR records"

    # -- one classifier fit on the study's labeled pages ---------------- #
    fit_timing = {}
    if results.labeled_pages and len({p.campaign for p in results.labeled_pages}) >= 2:
        t0 = time.perf_counter()
        CampaignClassifier().fit(results.labeled_pages)
        fit_timing["fit_s"] = time.perf_counter() - t0

    # -- persistent disk tier: cold vs warm, plus checkpoints ----------- #
    disk = _disk_tier_block(tmp_path)
    checkpoint = disk["checkpoint"]

    payload = {
        "preset": PRESET,
        "cpus": os.cpu_count(),
        "scale": SCALE if PRESET == "paper" else None,
        "terms_per_vertical": TERMS_PER_VERTICAL if PRESET == "paper" else None,
        "days": DAYS if PRESET == "small" else None,
        "psrs": len(results.dataset),
        "total_s_uncached": total_s_uncached,
        "total_s_cached": total_s_cached,
        "cache_speedup": speedup,
        "perf": breakdown,
        "perf_uncached": perf_uncached,
        "cache_counters": cache_counters,
        "disk": disk,
        **fit_timing,
    }
    serp_stats = breakdown.get("engine.serp") or {}
    write_bench_json("study", payload, ledger_metrics={
        "psrs": len(results.dataset),
        "total_s_uncached": total_s_uncached,
        "total_s_cached": total_s_cached,
        "cache_speedup": speedup,
        "serp_mean_us": serp_stats.get("mean_us", 0.0),
        "disk_cold_s": disk["cold_s"],
        "disk_warm_s": disk["warm_s"],
        "disk_warm_speedup": disk["warm_speedup"],
        "checkpoint_delta_ratio": checkpoint["delta_ratio"],
        "disk_store": disk["store"],
    })

    rows = [
        ("total (uncached)", "-", f"{total_s_uncached:.2f}s"),
        ("total (cached)", "-", f"{total_s_cached:.2f}s"),
        ("cache speedup", ">=1.5x target", f"{speedup:.2f}x"),
        (f"disk warm start ({disk['days']}d small)", "-",
         f"{disk['cold_s']:.2f}s cold -> {disk['warm_s']:.2f}s warm "
         f"({disk['warm_speedup']:.2f}x)"),
        ("checkpoints (every=1)", "-",
         f"{checkpoint['bytes_written'] / checkpoint['saves'] / 1e3:.0f} KB "
         f"per save over {checkpoint['saves']} saves"),
    ]
    for name in ("simulator.day", "engine.serp", "web.fetch", "classifier.fit"):
        stats = breakdown.get(name)
        if stats:
            rows.append((
                name, "-",
                f"{stats['total_s']:.2f}s over {stats['calls']} calls",
            ))
    if fit_timing:
        rows.append((
            f"classifier fit ({len(results.labeled_pages)} pages)", "-",
            f"{fit_timing['fit_s']:.2f}s",
        ))
    print_comparison("Study end-to-end (cached vs uncached)", rows)

    assert len(results.dataset) > 0
    assert "engine.serp" in breakdown and "simulator.day" in breakdown
    hit_counters = [name for name, value in cache_counters.items()
                    if name.endswith(".hit") and value > 0]
    assert hit_counters, "cached leg recorded no cache hits"
    if AT_DEFAULT:
        # The measured ratio (BENCH_study.json) is the claim; this floor
        # only guards against the caches silently stopping to matter.
        assert speedup > 1.2, f"caches only bought {speedup:.2f}x"
