"""Tests for the measurement crawlers: Dagger, VanGogh, store detection,
records, and the full SERP crawl loop (via the session study fixture)."""

import pytest

from repro.util.rng import RandomStreams
from repro.util.simtime import SimDate
from repro.web.domains import DomainRegistry
from repro.web.fetch import Response
from repro.web.hosting import Web
from repro.web.sites import Site, SiteKind, StaticPage
from repro.seo import CloakingType, make_kit
from repro.seo.doorways import build_doorway
from repro.seo.templates import assign_theme
from repro.faults import FaultInjector, ResilientFetcher, profile_named
from repro.crawler import (
    CrawlPolicy,
    Dagger,
    PsrDataset,
    PsrRecord,
    StoreDetector,
    VanGogh,
)
from repro.crawler.dagger import jaccard, text_shingle


@pytest.fixture()
def cloaked_web(day0):
    """A tiny web: one legit site, one redirect doorway, one iframe doorway,
    one storefront."""
    streams = RandomStreams(77)
    web = Web()

    legit_domain = web.domains.register("legit.com", day0)
    legit = Site(legit_domain, SiteKind.LEGITIMATE, authority=0.5, created_on=day0)
    legit.add_page(StaticPage("/", html="<html><body><p>honest reviews of boots</p></body></html>"))
    web.add_site(legit)

    store_domain = web.domains.register("uggstore.com", day0)
    store = Site(store_domain, SiteKind.STOREFRONT, created_on=day0)
    store.add_page(StaticPage(
        "/",
        html="<html><body><a href='/cart'>Add to Cart</a><a href='/checkout'>Checkout</a></body></html>",
        cookies=("zenid", "realypay_session"),
    ))
    web.add_site(store)

    theme = assign_theme("KEY", streams)
    for host, kit_type in (("redirdoor.com", CloakingType.REDIRECT),
                           ("framedoor.com", CloakingType.IFRAME)):
        domain = web.domains.register(host, day0)
        site = Site(domain, SiteKind.LEGITIMATE, authority=0.4, created_on=day0)
        site.add_page(StaticPage("/", html="<html><body>gardening blog</body></html>"))
        web.add_site(site)
        kit = make_kit(kit_type, streams, f"KEY-{host}")
        build_doorway(
            "KEY", "Uggs", ["cheap uggs"], site, compromised=True, day=day0,
            theme=theme, kit=kit, landing_url=lambda: "http://uggstore.com/",
            streams=streams,
        )
    return web


def _doorway_path(web, host, day0):
    site = web.get_site(host)
    return next(p for p in site.paths() if p != "/")


class TestTextShingle:
    def test_tokens_lowercased(self):
        tokens = text_shingle("<html><body><p>Cheap UGGS</p></body></html>")
        assert "cheap" in tokens and "uggs" in tokens

    def test_jaccard_identical(self):
        a = {"x", "y"}
        assert jaccard(a, a) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_jaccard_empty(self):
        assert jaccard(set(), set()) == 1.0


class TestDagger:
    def test_legit_page_clean(self, cloaked_web, day0):
        result = Dagger(cloaked_web).check("http://legit.com/", day0)
        assert not result.cloaked
        assert result.similarity > 0.9

    def test_redirect_cloaking_detected(self, cloaked_web, day0):
        url = f"http://redirdoor.com{_doorway_path(cloaked_web, 'redirdoor.com', day0)}"
        result = Dagger(cloaked_web).check(url, day0)
        assert result.cloaked
        assert result.mechanism == "redirect"
        assert result.landing_url == "http://uggstore.com/"

    def test_iframe_cloaking_invisible_to_dagger(self, cloaked_web, day0):
        """The blind spot that motivated VanGogh: same HTML both ways."""
        url = f"http://framedoor.com{_doorway_path(cloaked_web, 'framedoor.com', day0)}"
        result = Dagger(cloaked_web).check(url, day0)
        assert not result.cloaked

    def test_content_cloaking_detected(self, day0):
        """A page serving totally different text to crawler vs user."""
        web = Web()
        from repro.web.sites import DynamicPage
        from repro.web.fetch import PageResult
        domain = web.domains.register("content.com", day0)
        site = Site(domain, SiteKind.DEDICATED_DOORWAY, created_on=day0)

        def respond(profile, d):
            if profile.looks_like_crawler:
                return PageResult(html="<html><body>cheap uggs boots outlet sale</body></html>")
            return PageResult(html="<html><body>totally unrelated casino poker slots</body></html>")

        site.add_page(DynamicPage("/", respond))
        web.add_site(site)
        result = Dagger(web).check("http://content.com/", day0)
        assert result.cloaked
        assert result.mechanism == "content"


class TestVanGogh:
    def test_iframe_cloaking_detected(self, cloaked_web, day0):
        url = f"http://framedoor.com{_doorway_path(cloaked_web, 'framedoor.com', day0)}"
        result = VanGogh(cloaked_web).check(url, day0)
        assert result.iframe_cloaked
        assert result.iframe_src == "http://uggstore.com/"
        assert result.landing_response is not None
        assert result.landing_response.ok

    def test_legit_page_clean(self, cloaked_web, day0):
        result = VanGogh(cloaked_web).check("http://legit.com/", day0)
        assert not result.iframe_cloaked

    def test_small_iframe_not_flagged(self, day0):
        web = Web()
        domain = web.domains.register("ads.com", day0)
        site = Site(domain, SiteKind.LEGITIMATE, created_on=day0)
        site.add_page(StaticPage(
            "/",
            html='<html><body><iframe src="http://ad.net/" width="300" height="250"></iframe></body></html>',
        ))
        web.add_site(site)
        result = VanGogh(web).check("http://ads.com/", day0)
        assert not result.iframe_cloaked
        assert result.rendered_iframe_count == 1

    def test_oversized_pixel_iframe_flagged(self, day0):
        web = Web()
        domain = web.domains.register("px.com", day0)
        site = Site(domain, SiteKind.LEGITIMATE, created_on=day0)
        site.add_page(StaticPage(
            "/",
            html='<html><body><iframe src="http://s.com/" width="1200" height="900"></iframe></body></html>',
        ))
        web.add_site(site)
        assert VanGogh(web).check("http://px.com/", day0).iframe_cloaked


class TestVanGoghMalformedIframeSrc:
    """A kit whose iframe points at a malformed URL still cloaks; there is
    just no landing to fetch, whichever fetcher VanGogh was handed."""

    @pytest.fixture()
    def broken_kit_web(self, day0):
        streams = RandomStreams(78)
        web = Web()
        domain = web.domains.register("brokenframe.com", day0)
        site = Site(domain, SiteKind.LEGITIMATE, authority=0.4, created_on=day0)
        site.add_page(StaticPage("/", html="<html><body>gardening blog</body></html>"))
        web.add_site(site)
        build_doorway(
            "KEY", "Uggs", ["cheap uggs"], site, compromised=True, day=day0,
            theme=assign_theme("KEY", streams),
            kit=make_kit(CloakingType.IFRAME, streams, "KEY-broken"),
            landing_url=lambda: "not a url", streams=streams,
        )
        return web

    @pytest.mark.parametrize("profile", [None, "clean"])
    def test_cloaked_without_landing(self, broken_kit_web, day0, profile):
        web = broken_kit_web
        if profile is not None:
            web.fault_injector = FaultInjector(profile_named(profile), seed=0)
        url = f"http://brokenframe.com{_doorway_path(web, 'brokenframe.com', day0)}"
        result = VanGogh(web, fetch=ResilientFetcher(web).fetch).check(url, day0)
        assert result.iframe_cloaked
        assert result.iframe_src == "not a url"
        assert result.landing_response is None


class TestStoreDetector:
    def test_cookie_detection(self):
        detector = StoreDetector()
        landing = Response(200, "u", "u", html="<html></html>",
                           cookies=("zenid", "other"))
        evidence = detector.detect(landing)
        assert evidence.is_store
        assert "zenid" in evidence.cookie_hits

    def test_content_detection(self):
        detector = StoreDetector()
        landing = Response(200, "u", "u", html="<html><body>proceed to checkout</body></html>")
        evidence = detector.detect(landing)
        assert evidence.is_store
        assert "checkout" in evidence.content_hits

    def test_clean_page(self):
        detector = StoreDetector()
        landing = Response(200, "u", "u", html="<html><body>a poem</body></html>")
        assert not detector.detect(landing).is_store

    def test_failed_fetch_not_store(self):
        detector = StoreDetector()
        assert not detector.detect(Response(404, "u", "u")).is_store
        assert not detector.detect(None).is_store


class TestPsrRecords:
    def _record(self, day0, **overrides):
        fields = dict(
            day=day0, vertical="Uggs", term="cheap uggs", rank=3,
            url="http://d.com/x.html", host="d.com", path="/x.html",
            label="none", mechanism="iframe", landing_url="http://s.com/",
            landing_host="s.com", is_store=True, seizure_case=None,
            seizure_firm=None, seizure_brand=None, campaign="KEY",
        )
        fields.update(overrides)
        return PsrRecord(**fields)

    def test_json_roundtrip(self, day0):
        record = self._record(day0)
        back = PsrRecord.from_json(record.to_json())
        assert back == record or all(
            getattr(back, f) == getattr(record, f) for f in PsrRecord.__slots__
        )

    def test_penalized_semantics(self, day0):
        assert not self._record(day0).penalized
        assert self._record(day0, label="hacked").penalized
        assert self._record(day0, seizure_case="c1").penalized

    def test_dataset_first_last_seen(self, day0):
        dataset = PsrDataset()
        dataset.add(self._record(day0))
        dataset.add(self._record(day0 + 10))
        assert dataset.host_first_seen("d.com") == day0
        assert dataset.host_last_seen("d.com") == day0 + 10

    def test_dataset_fraction(self, day0):
        dataset = PsrDataset()
        dataset.note_serp(day0, "Uggs", 100)
        dataset.add(self._record(day0, rank=5))
        dataset.add(self._record(day0, rank=50, url="u2", path="/y.html"))
        assert dataset.psr_fraction(day0, "Uggs", 100) == pytest.approx(0.02)
        assert dataset.psr_fraction(day0, "Uggs", 10) == pytest.approx(0.1)

    def test_dataset_jsonl_roundtrip(self, tmp_path, day0):
        dataset = PsrDataset()
        for i in range(5):
            dataset.add(self._record(day0 + i, rank=i + 1))
        path = str(tmp_path / "psrs.jsonl")
        dataset.dump_jsonl(path)
        loaded = PsrDataset.load_jsonl(path)
        assert len(loaded) == 5
        assert loaded.records[2].rank == 3

    def test_daily_counts_filters(self, day0):
        dataset = PsrDataset()
        dataset.add(self._record(day0, campaign="KEY", rank=5))
        dataset.add(self._record(day0, campaign="VERA", rank=15, url="u2"))
        assert dataset.daily_counts(campaign="KEY")[day0.ordinal] == 1
        assert dataset.daily_counts(topk=10)[day0.ordinal] == 1


class TestCrawlerIntegration:
    """Assertions over the session study's crawled dataset."""

    def test_crawler_found_psrs(self, study):
        assert len(study.dataset) > 100

    def test_mechanisms_match_campaign_kits(self, study):
        """Each doorway host's detected mechanism must match the cloaking
        kit its true campaign uses."""
        by_kit = {c.name: c.spec.cloaking for c in study.world.campaigns()}
        for record in study.dataset.records[:500]:
            pair = study.world.doorway_at(record.host)
            assert pair is not None, record.host
            campaign = pair[0]
            expected = by_kit[campaign.name]
            if expected is CloakingType.IFRAME:
                assert record.mechanism == "iframe"
            else:
                assert record.mechanism in ("redirect", "content")

    def test_no_false_positive_doorways(self, study):
        """Every PSR host is a genuine doorway (the paper's cloaking-based
        definition has ~zero false positives, Section 4.1.3)."""
        for record in study.dataset.records:
            assert study.world.doorway_at(record.host) is not None

    def test_store_landings_are_real_stores(self, study):
        for record in study.dataset.records:
            if record.is_store:
                store = study.world.store_at(record.landing_host)
                assert store is not None

    def test_seizure_notices_match_ground_truth(self, study):
        events = study.world.events.of_kind(study.world.events.SEIZURE_CASE)
        true_cases = {e.payload["case_id"] for e in events}
        for case_id in study.crawler.notices:
            assert case_id in true_cases

    def test_coverage_recorded_for_crawl_days(self, study):
        days = study.dataset.crawl_days()
        assert days
        for day in days[:5]:
            for vertical in study.dataset.verticals():
                coverage = study.dataset.coverage(day, vertical)
                if coverage is not None:
                    assert coverage.slots_top100 >= coverage.slots_top10
