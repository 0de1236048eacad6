"""The content-addressed caching layer: mechanics and equivalence.

Two kinds of guarantee live here.  Mechanics: LRU bounds, hit/miss/evict
accounting in the PERF registry (every lookup counted, over a whole
study too), content addressing, StaticPage generator memoization, SERP
re-serves that track every mutation channel, and the scoped GC tune.
Equivalence: a cached study run is *byte-identical* to a cache-disabled
one, and multiprocess ablations return the same outcomes in the same
order for any job count — caching and parallelism change wall-clock,
never results.
"""

from __future__ import annotations

import gc
import os
from collections import Counter

import pytest

from repro.analysis.ablations import (
    VARIANT_ORDER,
    run_ablation,
    run_intervention_ablations,
)
from repro.crawler import CrawlPolicy
from repro.crawler.dagger import text_shingle
from repro.ecosystem import small_preset
from repro.market.stores import Store
from repro.perf.cache import (
    LRUCache,
    caches_disabled,
    caches_enabled,
    content_key,
    parse_html_cached,
    render_document_cached,
    reset_caches,
    set_caches_enabled,
)
from repro.perf.gctune import LOW_PAUSE_THRESHOLDS, low_pause_gc
from repro.search import ResultLabel, SearchEngine, SearchIndex
from repro.study import StudyRun
from repro.util.perf import PERF
from repro.util.rng import RandomStreams
from repro.util.simtime import SimDate
from repro.web.domains import DomainRegistry
from repro.web.sites import Site, SiteKind, StaticPage


class TestContentKey:
    def test_identical_html_same_key(self):
        assert content_key("<html><p>x</p></html>") == content_key("<html><p>x</p></html>")

    def test_different_html_different_key(self):
        assert content_key("<p>a</p>") != content_key("<p>b</p>")

    def test_key_is_compact_digest(self):
        assert len(content_key("<p>hi</p>")) == 16


class TestLRUCache:
    def test_hit_miss_evict_accounting(self):
        cache = LRUCache("t-accounting", maxsize=2)
        calls = []

        def build(arg):
            calls.append(arg)
            return arg.upper()

        before = PERF.counters()
        assert cache.get_or_build("a", build, "a") == "A"
        assert cache.get_or_build("a", build, "a") == "A"  # hit
        assert cache.get_or_build("b", build, "b") == "B"
        assert cache.get_or_build("c", build, "c") == "C"  # evicts 'a'
        assert calls == ["a", "b", "c"]
        assert cache.get_or_build("a", build, "a") == "A"  # rebuilt
        assert calls == ["a", "b", "c", "a"]
        after = PERF.counters()

        def delta(name):
            return after[f"cache.t-accounting.{name}"] - before.get(
                f"cache.t-accounting.{name}", 0)

        assert delta("hit") == 1
        assert delta("miss") == 4
        assert delta("evict") == 2

    def test_lru_recency_order(self):
        cache = LRUCache("t-recency", maxsize=2)
        build = lambda arg: arg  # noqa: E731
        cache.get_or_build(1, build, 1)
        cache.get_or_build(2, build, 2)
        cache.get_or_build(1, build, 1)  # 1 now most recent
        cache.get_or_build(3, build, 3)  # evicts 2, not 1
        calls = []
        cache.get_or_build(1, lambda a: calls.append(a), 1)
        assert calls == []  # 1 survived

    def test_counters_registered_at_zero(self):
        LRUCache("t-registered", maxsize=4)
        counters = PERF.counters()
        assert counters.get("cache.t-registered.hit") == 0
        assert counters.get("cache.t-registered.miss") == 0
        assert counters.get("cache.t-registered.evict") == 0

    def test_disabled_bypasses_storage(self):
        cache = LRUCache("t-disabled", maxsize=4)
        with caches_disabled():
            assert not caches_enabled()
            assert cache.memo_html("<p>x</p>", lambda h: len(h)) == 8
            assert len(cache) == 0
        assert caches_enabled()


class TestLowPauseGC:
    def test_scope_restores_thresholds_without_collecting(self):
        """Leaving the scope restores the thresholds and runs no
        collection: the cycles it deferred wait for the next ordinary
        pass.  Automatic collection is off here, so any pass seen was
        started by the scope itself."""
        passes = []

        def on_gc(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        previous = gc.get_threshold()
        was_enabled = gc.isenabled()
        gc.disable()
        gc.callbacks.append(on_gc)
        try:
            with low_pause_gc():
                assert gc.get_threshold() == LOW_PAUSE_THRESHOLDS
                with low_pause_gc():
                    assert gc.get_threshold() == LOW_PAUSE_THRESHOLDS
                assert gc.get_threshold() == LOW_PAUSE_THRESHOLDS
            assert gc.get_threshold() == previous
        finally:
            gc.callbacks.remove(on_gc)
            if was_enabled:
                gc.enable()
        assert passes == []

    def test_ablation_frees_its_world(self):
        """A variant's stores sit in reference cycles (each store's page
        factory is bound to its campaign), so only a full pass frees them;
        ``run_ablation`` runs one itself rather than leave every variant
        of an ablation sweep resident.  Automatic collection is off here,
        so nothing else could free them."""
        gc.collect()
        before = _live_stores()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            run_ablation("baseline", _ablation_factory(), crawl_stride=4)
            after = _live_stores()
        finally:
            if was_enabled:
                gc.enable()
        assert after == before


def _live_stores() -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Store))


class TestSharedWrappers:
    def test_parse_html_cached_shares_documents(self):
        reset_caches()
        html = "<html><body><p>shared</p></body></html>"
        assert parse_html_cached(html) is parse_html_cached(html)
        with caches_disabled():
            a = parse_html_cached(html)
            b = parse_html_cached(html)
            assert a is not b
            assert a.to_html() == b.to_html()

    def test_render_cached_keys_on_profile(self):
        reset_caches()
        html = "<html><body><script>document.write('<b>x</b>');</script></body></html>"
        from repro.web.fetch import CRAWLER, RENDERING_CRAWLER

        same = render_document_cached(html, RENDERING_CRAWLER)
        assert render_document_cached(html, RENDERING_CRAWLER) is same
        # A different profile (field-wise: CRAWLER has a bot UA and no JS)
        # keys a separate entry even for identical HTML.
        assert render_document_cached(html, CRAWLER) is not same
        # Cached or not, the rendered view is identical.
        with caches_disabled():
            fresh = render_document_cached(html, RENDERING_CRAWLER)
        assert fresh.to_html() == same.to_html()

    def test_text_shingle_cached_equals_uncached(self):
        reset_caches()
        html = "<html><head><title>Cheap Uggs</title></head><body>Buy cheap uggs now</body></html>"
        cached = text_shingle(html)
        with caches_disabled():
            plain = text_shingle(html)
        assert cached == plain
        assert "uggs" in cached


class TestStaticPageMemo:
    def test_generator_invoked_once(self):
        calls = []

        def gen():
            calls.append(1)
            return "<html><body>store</body></html>"

        page = StaticPage("/", generator=gen)
        assert page.html == page.html == "<html><body>store</body></html>"
        assert len(calls) == 1

    def test_empty_generator_output_memoized(self):
        # Seed regression: an empty render was re-invoked on every access.
        calls = []

        def gen():
            calls.append(1)
            return ""

        page = StaticPage("/", generator=gen)
        assert page.html == ""
        assert page.html == ""
        assert len(calls) == 1

    def test_regenerate_bumps_version_and_reinvokes(self):
        outputs = iter(["<p>v1</p>", "<p>v2</p>"])
        calls = []

        def gen():
            calls.append(1)
            return next(outputs)

        page = StaticPage("/", generator=gen)
        assert page.content_version == 1
        assert page.html == "<p>v1</p>"
        assert page.regenerate() == 2
        assert page.html == "<p>v2</p>"
        assert page.content_version == 2
        assert len(calls) == 2

    def test_literal_page_version_bumps_without_generator(self):
        page = StaticPage("/", html="<p>fixed</p>")
        assert page.regenerate() == 2
        assert page.html == "<p>fixed</p>"


def _tiny_engine():
    streams = RandomStreams(99)
    registry = DomainRegistry()
    index = SearchIndex()
    day0 = SimDate("2013-11-13")
    for i in range(12):
        domain = registry.register(f"host{i}.com", day0)
        site = Site(domain, SiteKind.LEGITIMATE, authority=0.3 + 0.05 * i,
                    created_on=day0)
        index.add_page("term", site, "/", relevance=0.5 + 0.02 * i)
    engine = SearchEngine(index, streams, serp_size=10)
    return engine, registry, day0


def _page(serp):
    return [(r.rank, r.url, r.score.hex(), r.label) for r in serp.results]


class TestSerpMemo:
    """Repeat serves of one (term, day).  The engine keeps no page memo:
    ranking noise is a pure function of (term, day), so a repeat serve
    recomputes an equal page, and one after an index or intervention
    change reflects that change, exactly as a fresh engine would."""

    def test_repeat_serve_returns_memoized_page(self):
        engine, _, day0 = _tiny_engine()
        first = engine.serp("term", day0)
        second = engine.serp("term", day0)
        assert second is not first
        assert _page(second) == _page(first)
        assert len(first.results) == 10

    def test_demotion_invalidates(self):
        engine, _, day0 = _tiny_engine()
        first = engine.serp("term", day0)
        engine.demote_host("host11.com", day0, amount=2.0)
        second = engine.serp("term", day0)
        assert [r.url for r in second.results] != [r.url for r in first.results]
        fresh, _, _ = _tiny_engine()
        fresh.demote_host("host11.com", day0, amount=2.0)
        assert _page(second) == _page(fresh.serp("term", day0))

    def test_label_invalidates(self):
        engine, _, day0 = _tiny_engine()
        engine.serp("term", day0)
        engine.label_host("host3.com", day0, ResultLabel.HACKED)
        second = engine.serp("term", day0)
        assert any(r.label is ResultLabel.HACKED for r in second.results
                   if r.host == "host3.com")
        fresh, _, _ = _tiny_engine()
        fresh.label_host("host3.com", day0, ResultLabel.HACKED)
        assert _page(second) == _page(fresh.serp("term", day0))

    def test_index_mutation_invalidates(self):
        engine, registry, day0 = _tiny_engine()
        engine.serp("term", day0)
        domain = registry.register("late.com", day0)
        site = Site(domain, SiteKind.LEGITIMATE, authority=0.95, created_on=day0)
        engine.index.add_page("term", site, "/", relevance=0.9)
        second = engine.serp("term", day0)
        assert any(r.host == "late.com" for r in second.results)
        fresh, fresh_registry, _ = _tiny_engine()
        fresh_site = Site(fresh_registry.register("late.com", day0),
                          SiteKind.LEGITIMATE, authority=0.95, created_on=day0)
        fresh.index.add_page("term", fresh_site, "/", relevance=0.9)
        assert _page(second) == _page(fresh.serp("term", day0))

    def test_serve_is_bit_identical_cached_or_not(self):
        engine, _, day0 = _tiny_engine()
        cached = engine.serp("term", day0 + 4)
        fresh_engine, _, _ = _tiny_engine()
        with caches_disabled():
            plain = fresh_engine.serp("term", day0 + 4)
        assert _page(cached) == _page(plain)


def _study_bytes(tmp_path, name, days=25):
    results = StudyRun(
        small_preset(days=days), crawl_policy=CrawlPolicy(stride_days=2)
    ).execute()
    path = os.path.join(tmp_path, name)
    results.dataset.dump_jsonl(path)
    with open(path, "rb") as handle:
        return handle.read(), results


def test_study_counts_every_cache_lookup(monkeypatch):
    """Over a whole study, each cache's hit + miss equals the lookups made
    on it: no lookup is left out of the counters (nor counted twice)."""
    lookups = Counter()
    get_or_build = LRUCache.get_or_build

    def counting(self, key, build, arg):
        lookups[self.name] += 1
        return get_or_build(self, key, build, arg)

    monkeypatch.setattr(LRUCache, "get_or_build", counting)
    previous = set_caches_enabled(True)
    try:
        reset_caches()
        before = PERF.counters()
        StudyRun(small_preset(days=20), crawl_policy=CrawlPolicy(stride_days=2)).execute()
        after = PERF.counters()
    finally:
        set_caches_enabled(previous)

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    assert {"dom", "render", "shingle", "notice", "features"} <= set(lookups)
    for name, count in sorted(lookups.items()):
        assert delta(f"cache.{name}.hit") + delta(f"cache.{name}.miss") == count, name


def test_built_tree_hand_off_changes_nothing_observable(monkeypatch, tmp_path):
    """A small study with the DOM cache adopting built trees, and again
    with every adoption refused (each miss parses), gives the same
    ``cache.*`` counters, metrics rows and PSR records."""
    import repro.perf.cache as cache_module

    def run(name):
        reset_caches()
        before = PERF.counters()
        results = StudyRun(small_preset(), classify=False).execute()
        after = PERF.counters()
        counters = {
            key: after[key] - before.get(key, 0)
            for key in after if key.startswith("cache.")
        }
        path = os.path.join(str(tmp_path), name)
        results.metrics.write_jsonl(path)
        results.dataset.dump_jsonl(path + ".psrs")
        with open(path, "rb") as metrics, open(path + ".psrs", "rb") as psrs:
            return counters, metrics.read(), psrs.read()

    previous = set_caches_enabled(True)
    try:
        adopted = Counter()
        built_tree = cache_module.built_tree

        def counting(html):
            tree = built_tree(html)
            adopted[tree is not None] += 1
            return tree

        monkeypatch.setattr(cache_module, "built_tree", counting)
        shipped = run("shipped")
        monkeypatch.setattr(cache_module, "built_tree", lambda html: None)
        parsed = run("parsed")
    finally:
        set_caches_enabled(previous)
        reset_caches()

    assert adopted[True] > adopted[False] > 0
    assert shipped[0]["cache.dom.miss"] > 0
    assert shipped[0] == parsed[0]
    assert shipped[1] == parsed[1]
    assert shipped[2] == parsed[2]


class TestCachedStudyEquivalence:
    def test_psr_records_byte_identical(self, tmp_path):
        reset_caches()
        cached_bytes, cached = _study_bytes(str(tmp_path), "cached.jsonl")
        with caches_disabled():
            plain_bytes, plain = _study_bytes(str(tmp_path), "plain.jsonl")
        assert cached_bytes == plain_bytes
        assert len(cached.dataset) == len(plain.dataset) > 0
        # The cached run actually exercised the caches.
        counters = PERF.counters()
        for name in ("cache.dom.hit", "cache.shingle.hit", "cache.notice.hit"):
            assert counters.get(name, 0) > 0, name


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("cache_on", [True, False], ids=["cache", "nocache"])
def test_ablation_outcomes_invariant(jobs, cache_on, ablation_reference):
    if cache_on:
        outcomes = run_intervention_ablations(
            _ablation_factory, crawl_stride=4, jobs=jobs)
    else:
        with caches_disabled():
            outcomes = run_intervention_ablations(
                _ablation_factory, crawl_stride=4, jobs=jobs)
    assert [o.name for o in outcomes] == list(VARIANT_ORDER)
    assert outcomes == ablation_reference


def _ablation_factory():
    return small_preset(days=14)


@pytest.fixture(scope="module")
def ablation_reference():
    """Sequential, cache-on outcomes every parametrization must match."""
    reset_caches()
    return run_intervention_ablations(_ablation_factory, crawl_stride=4, jobs=1)
