"""Per-layer metrics: which functions are wrapped and what each metric means.

Every wrapped function is a public method or function of a module that the
program keeps; none lives in ``perf/shardpool.py``.  :data:`LAYER_METRICS`
is the source of the ``per_layer`` list in ``BENCHMARK.json`` and says, for
each metric, which end-to-end metric on which workload it should move.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, NamedTuple

from spans import SpanRecorder


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


LAYER_METRICS: List[LayerMetric] = [
    LayerMetric("ecosystem.days", "count", "lower", "nothing; checks run length"),
    LayerMetric("market.traffic_s", "s", "lower",
                "run_s on every workload; largest share on rerun-warm"),
    LayerMetric("seo.campaign_s", "s", "lower", "run_s on every workload"),
    LayerMetric("seo.campaign_calls", "count", "lower", "run_s on every workload"),
    LayerMetric("interventions.day_s", "s", "lower", "run_s on every workload (<=2%)"),
    LayerMetric("search.serp_s", "s", "lower", "run_s on study and rerun-warm"),
    LayerMetric("search.serp_calls", "count", "lower", "run_s on study and rerun-warm"),
    LayerMetric("perf.cache.serp.hit_ratio", "fraction", "higher",
                "run_s on study and rerun-warm"),
    LayerMetric("crawler.day_s", "s", "lower", "run_s on crawl-daily, less on study"),
    LayerMetric("crawler.days", "count", "lower", "run_s on crawl-daily, less on study"),
    LayerMetric("crawler.dagger_s", "s", "lower", "run_s on crawl-daily, less on study"),
    LayerMetric("crawler.dagger_calls", "count", "lower", "run_s on crawl-daily, less on study"),
    LayerMetric("crawler.dagger_cloaked_ratio", "fraction", "higher",
                "run_s on crawl-daily, less on study"),
    LayerMetric("crawler.vangogh_s", "s", "lower", "run_s on crawl-daily, less on study"),
    LayerMetric("crawler.vangogh_calls", "count", "lower", "run_s on crawl-daily, less on study"),
    LayerMetric("crawler.vangogh_iframe_ratio", "fraction", "higher",
                "run_s on crawl-daily, less on study"),
    LayerMetric("web.fetch_s", "s", "lower", "run_s on crawl-daily"),
    LayerMetric("web.fetch_calls", "count", "lower", "run_s on crawl-daily"),
    LayerMetric("orders.day_s", "s", "lower", "run_s on every workload"),
    LayerMetric("obs.metrics_day_s", "s", "lower", "run_s on every workload"),
    LayerMetric("classify.features_s", "s", "lower",
                "run_s and attribution_accuracy on study only"),
    LayerMetric("classify.fit_s", "s", "lower", "run_s and attribution_accuracy on study only"),
    LayerMetric("classify.fit_calls", "count", "lower",
                "run_s and attribution_accuracy on study only"),
    LayerMetric("classify.solver_iterations", "count", "lower",
                "run_s and attribution_accuracy on study only"),
    LayerMetric("classify.attribute_s", "s", "lower",
                "run_s and attribution_accuracy on study only"),
    LayerMetric("analysis.tables_s", "s", "lower", "run_s on study"),
] + [
    LayerMetric(f"perf.cache.{name}.hit_ratio", "fraction", "higher",
                "run_s and peak_rss_mb on every workload")
    for name in ("dom", "render", "shingle", "features", "notice")
] + [
    LayerMetric("perf.disk.load_s", "s", "lower", "run_s on rerun-warm"),
    LayerMetric("perf.disk.load_wait_s", "s", "lower", "run_s on rerun-warm"),
    LayerMetric("perf.disk.loads", "count", "lower", "run_s on rerun-warm"),
    LayerMetric("perf.disk.hit_ratio", "fraction", "higher", "run_s on rerun-warm"),
    LayerMetric("perf.disk.store_s", "s", "lower", "setup_s on rerun-warm"),
    LayerMetric("perf.disk.store_wait_s", "s", "lower", "setup_s on rerun-warm"),
    LayerMetric("perf.disk.stores", "count", "lower", "setup_s on rerun-warm"),
    LayerMetric("perf.disk.bytes", "bytes", "lower", "setup_s on rerun-warm"),
    LayerMetric("perf.gc.pause_s", "s", "lower", "run_s and peak_rss_mb on every workload"),
    LayerMetric("perf.gc.collections", "count", "lower",
                "run_s and peak_rss_mb on every workload"),
    LayerMetric("faults.checkpoint.save_s", "s", "lower", "setup_s on checkpointed"),
    LayerMetric("faults.checkpoint.wait_s", "s", "lower", "setup_s on checkpointed"),
    LayerMetric("faults.checkpoint.saves", "count", "lower",
                "setup_s on checkpointed"),
    LayerMetric("faults.checkpoint.payload_bytes", "bytes", "lower",
                "setup_s on checkpointed"),
    LayerMetric("faults.checkpoint.bytes_written", "bytes", "lower",
                "setup_s on checkpointed"),
    LayerMetric("faults.checkpoint.chunk_reuse_ratio", "fraction", "higher",
                "setup_s on checkpointed"),
    LayerMetric("faults.fetch_retries", "count", "lower", "nothing; stays 0 on clean runs"),
    LayerMetric("trace.overhead_s", "s", "lower",
                "nothing; traced run_s minus untraced run_s of the same run"),
]

#: Span names whose metrics include the set-up phase, where the disk store
#: is filled and the checkpoints are written.
SETUP_SPANS = ("DiskCache.store", "Checkpointer.save")


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's entry points at class (or module) level, and time
    collector passes as ``gc`` spans so they leave the layers' self time."""
    from repro.classify import pipeline
    from repro.classify.features import Vocabulary
    from repro.classify.linear import L1LogisticRegression, OneVsRestL1Logistic
    from repro.classify.pipeline import CampaignClassifier
    from repro.crawler.dagger import Dagger
    from repro.crawler.serp_crawler import SearchCrawler
    from repro.crawler.vangogh import VanGogh
    from repro.ecosystem.simulator import Simulator
    from repro.faults.checkpoint import Checkpointer
    from repro.interventions.payments import PaymentInterventionTeam
    from repro.interventions.search_ops import SearchQualityTeam
    from repro.interventions.seizure import BrandProtectionFirm
    from repro.obs.metrics import MetricsRecorder
    from repro.orders.purchase_pair import TestOrderer
    from repro.perf.diskcache import DISK_MISS, DiskCache
    from repro.search.engine import SearchEngine
    from repro.seo.campaign import Campaign
    from repro.study import StudyResults
    from repro.web.hosting import Web

    def crawl_days(rec, result, args):
        rec.counts["crawler.days"] = args[0].crawl_day_count

    def dagger_outcome(rec, result, args):
        if result.cloaked:
            rec.count("crawler.dagger_cloaked")

    def vangogh_outcome(rec, result, args):
        if result.iframe_cloaked:
            rec.count("crawler.vangogh_iframe")

    def solver_iterations(rec, result, args):
        rec.count("classify.solver_iterations", result.n_iter_)

    def disk_outcome(rec, result, args):
        if result is not DISK_MISS:
            rec.count("perf.disk.hits")

    wrap = recorder.wrap
    wrap(Simulator, "step_day", "Simulator.step_day")
    wrap(Campaign, "on_day", "Campaign.on_day")
    for team in (SearchQualityTeam, BrandProtectionFirm, PaymentInterventionTeam):
        wrap(team, "on_day", "interventions.on_day")
    wrap(SearchEngine, "serp", "SearchEngine.serp")
    wrap(SearchCrawler, "on_day", "SearchCrawler.on_day", on_result=crawl_days)
    wrap(Dagger, "check", "Dagger.check", on_result=dagger_outcome)
    wrap(VanGogh, "check", "VanGogh.check", on_result=vangogh_outcome)
    wrap(Web, "fetch", "Web.fetch")
    wrap(TestOrderer, "on_day", "TestOrderer.on_day")
    wrap(MetricsRecorder, "on_day", "MetricsRecorder.on_day")
    wrap(pipeline, "extract_features", "classify.features")
    wrap(Vocabulary, "fit", "classify.features")
    wrap(pipeline, "vectorize", "classify.features")
    wrap(OneVsRestL1Logistic, "fit", "OneVsRestL1Logistic.fit")
    wrap(L1LogisticRegression, "fit", "L1LogisticRegression.fit",
         on_result=solver_iterations, span=False)
    wrap(CampaignClassifier, "attribute", "CampaignClassifier.attribute")
    wrap(StudyResults, "headline", "StudyResults.headline")
    wrap(DiskCache, "load", "DiskCache.load", on_result=disk_outcome)
    wrap(DiskCache, "store", "DiskCache.store")
    wrap(Checkpointer, "save", "Checkpointer.save")

    began: List[float] = []

    def on_gc(phase, info):
        if not recorder.active:
            return
        if phase == "start":
            began[:] = [time.perf_counter(), time.thread_time()]
        elif began:
            recorder.record("gc", began[0], time.perf_counter(), time.thread_time() - began[1])
            began.clear()

    gc.callbacks.append(on_gc)


def layer_metrics(rows: Dict[str, Dict[str, float]], counts: Dict[str, int],
                  perf: Dict[str, int], disk_bytes: int,
                  checkpoint: Dict[str, float]) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` but ``trace.overhead_s``.

    ``rows`` are :func:`spans.self_times` rows, ``counts`` the recorder's
    hook counts, ``perf`` the PERF counter deltas of the measured phase,
    ``disk_bytes`` the disk store's size and ``checkpoint`` the
    ``Checkpointer.stats()`` of the run (empty without checkpoints).
    """
    def row(name):
        return rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "wait_s": 0.0})

    def hit_ratio(cache):
        hits = perf.get(f"cache.{cache}.hit", 0)
        return _ratio(hits, hits + perf.get(f"cache.{cache}.miss", 0))

    dagger, vangogh = row("Dagger.check"), row("VanGogh.check")
    loads, stores = row("DiskCache.load"), row("DiskCache.store")
    saves = row("Checkpointer.save")
    metrics = {
        "ecosystem.days": row("Simulator.step_day")["calls"],
        "market.traffic_s": row("Simulator.step_day")["self_s"],
        "seo.campaign_s": row("Campaign.on_day")["self_s"],
        "seo.campaign_calls": row("Campaign.on_day")["calls"],
        "interventions.day_s": row("interventions.on_day")["self_s"],
        "search.serp_s": row("SearchEngine.serp")["self_s"],
        "search.serp_calls": row("SearchEngine.serp")["calls"],
        "perf.cache.serp.hit_ratio": hit_ratio("serp"),
        "crawler.day_s": row("SearchCrawler.on_day")["self_s"],
        "crawler.days": counts.get("crawler.days", 0),
        "crawler.dagger_s": dagger["self_s"],
        "crawler.dagger_calls": dagger["calls"],
        "crawler.dagger_cloaked_ratio": _ratio(counts.get("crawler.dagger_cloaked", 0),
                                               dagger["calls"]),
        "crawler.vangogh_s": vangogh["self_s"],
        "crawler.vangogh_calls": vangogh["calls"],
        "crawler.vangogh_iframe_ratio": _ratio(counts.get("crawler.vangogh_iframe", 0),
                                               vangogh["calls"]),
        "web.fetch_s": row("Web.fetch")["self_s"],
        "web.fetch_calls": row("Web.fetch")["calls"],
        "orders.day_s": row("TestOrderer.on_day")["self_s"],
        "obs.metrics_day_s": row("MetricsRecorder.on_day")["self_s"],
        "classify.features_s": row("classify.features")["self_s"],
        "classify.fit_s": row("OneVsRestL1Logistic.fit")["self_s"],
        "classify.fit_calls": row("OneVsRestL1Logistic.fit")["calls"],
        "classify.solver_iterations": counts.get("classify.solver_iterations", 0),
        "classify.attribute_s": row("CampaignClassifier.attribute")["self_s"],
        "analysis.tables_s": row("StudyResults.headline")["self_s"],
    }
    for cache in ("dom", "render", "shingle", "features", "notice"):
        metrics[f"perf.cache.{cache}.hit_ratio"] = hit_ratio(cache)
    metrics.update({
        "perf.disk.load_s": loads["self_s"],
        "perf.disk.load_wait_s": loads["wait_s"],
        "perf.disk.loads": loads["calls"],
        "perf.disk.hit_ratio": _ratio(counts.get("perf.disk.hits", 0), loads["calls"]),
        "perf.disk.store_s": stores["self_s"],
        "perf.disk.store_wait_s": stores["wait_s"],
        "perf.disk.stores": stores["calls"],
        "perf.disk.bytes": disk_bytes,
        "perf.gc.pause_s": row("gc")["self_s"],
        "perf.gc.collections": row("gc")["calls"],
        "faults.checkpoint.save_s": saves["self_s"],
        "faults.checkpoint.wait_s": saves["wait_s"],
        "faults.checkpoint.saves": checkpoint.get("saves", 0),
        "faults.checkpoint.payload_bytes": checkpoint.get("payload_bytes_total", 0),
        "faults.checkpoint.bytes_written": checkpoint.get("bytes_written", 0),
        "faults.checkpoint.chunk_reuse_ratio": _ratio(
            checkpoint.get("chunks_reused", 0),
            checkpoint.get("chunks_reused", 0) + checkpoint.get("chunks_written", 0)),
        "faults.fetch_retries": perf.get("faults.retried", 0) + perf.get("faults.gave_up", 0),
    })
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
