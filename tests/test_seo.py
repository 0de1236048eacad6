"""Tests for the SEO package: templates, cloaking, schedules, C&C,
doorways."""

import pytest

from repro.util.rng import RandomStreams
from repro.util.simtime import DateRange, SimDate
from repro.web.domains import DomainRegistry
from repro.web.fetch import CRAWLER, SEARCH_USER, USER
from repro.web.sites import Site, SiteKind, StaticPage
from repro.html.parser import parse_html
from repro.web.render import render_document
from repro.seo import (
    Burst,
    CloakingType,
    CommandAndControl,
    DoorwayPageContext,
    EffortSchedule,
    IframeCloakingKit,
    RedirectCloakingKit,
    THEME_FAMILIES,
    make_kit,
)
from repro.seo.doorways import build_doorway
from repro.seo.schedule import random_schedule
from repro.seo.templates import TemplateTheme, assign_theme


@pytest.fixture()
def theme():
    return assign_theme("KEY", RandomStreams(9))


class TestTemplates:
    def test_theme_deterministic(self):
        a = assign_theme("KEY", RandomStreams(9))
        b = assign_theme("KEY", RandomStreams(9))
        assert a.class_prefix == b.class_prefix
        assert a.analytics_provider == b.analytics_provider
        assert a.stylesheet_path == b.stylesheet_path

    def test_distinct_campaigns_distinct_telltales(self):
        streams = RandomStreams(9)
        a = assign_theme("KEY", streams)
        b = assign_theme("MOONKIS", streams)
        assert a.class_prefix != b.class_prefix

    def test_theme_family_pinnable(self):
        theme = TemplateTheme("X", THEME_FAMILIES[0], RandomStreams(1))
        assert theme.family.family_id == "zc-classic"
        assert theme.platform == "zencart"

    def test_doorway_page_contains_term(self, theme):
        html = theme.doorway_seo_page("cheap uggs boots", "Uggs", "seed")
        assert "cheap uggs boots" in html
        doc = parse_html(html)
        assert doc.find_all("h1")

    def test_doorway_page_parseable_and_stuffed(self, theme):
        html = theme.doorway_seo_page("cheap nike", "Nike", "s2")
        text = parse_html(html).text_content().lower()
        assert text.count("cheap nike") >= 4


class TestSchedule:
    def test_burst_active_window(self, day0):
        burst = Burst(start=day0, duration_days=10, level=0.8)
        assert burst.active_on(day0)
        assert burst.active_on(day0 + 9)
        assert not burst.active_on(day0 + 10)

    def test_level_takes_max_of_bursts(self, day0):
        schedule = EffortSchedule(
            [Burst(day0, 10, 0.5), Burst(day0 + 5, 10, 0.9)], background=0.05
        )
        assert schedule.level(day0) == 0.5
        assert schedule.level(day0 + 6) == 0.9
        assert schedule.level(day0 + 30) == 0.05

    def test_shutdown_zeroes_effort(self, day0):
        schedule = EffortSchedule([Burst(day0, 100, 0.8)], background=0.05)
        schedule.shutdown(day0 + 10)
        assert schedule.level(day0 + 9) == 0.8
        assert schedule.level(day0 + 10) == 0.0

    def test_random_schedule_peak_within_window(self, streams, day0):
        window = DateRange(day0, day0 + 200)
        schedule = random_schedule(streams, "x", window, peak_days_hint=40,
                                   peak_level=0.8)
        main = schedule.bursts[0]
        assert main.start in window
        assert 5 <= main.duration_days <= len(window)
        assert schedule.peak_level() > 0

    def test_random_schedule_deterministic(self, day0):
        window = DateRange(day0, day0 + 100)
        a = random_schedule(RandomStreams(3), "x", window, 30, 0.7)
        b = random_schedule(RandomStreams(3), "x", window, 30, 0.7)
        assert [(x.start, x.duration_days, x.level) for x in a.bursts] == \
               [(x.start, x.duration_days, x.level) for x in b.bursts]


class TestCnc:
    def test_set_and_get(self, day0):
        cnc = CommandAndControl("KEY", "keycdn1.net")
        cnc.set_landing("store-1", "http://a.com/", day0)
        assert cnc.landing_url("store-1") == "http://a.com/"
        assert cnc.landing_url("ghost") is None

    def test_history_records_changes(self, day0):
        cnc = CommandAndControl("KEY", "keycdn1.net")
        cnc.set_landing("s", "http://a.com/", day0)
        cnc.set_landing("s", "http://a.com/", day0 + 1)  # no-op
        cnc.set_landing("s", "http://b.com/", day0 + 2)
        assert len(cnc.history("s")) == 2
        assert cnc.history("s")[-1].url == "http://b.com/"

    def test_directory_snapshot(self, day0):
        cnc = CommandAndControl("KEY", "keycdn1.net")
        cnc.set_landing("a", "http://a.com/", day0)
        snap = cnc.directory_snapshot()
        snap["a"] = "tampered"
        assert cnc.landing_url("a") == "http://a.com/"


def _doorway_setup(day0, kit_type, compromised=True):
    streams = RandomStreams(11)
    registry = DomainRegistry()
    domain = registry.register("blog.com", day0 - 100)
    site = Site(domain, SiteKind.LEGITIMATE, authority=0.6, created_on=day0 - 100)
    site.add_page(StaticPage("/", html="<html><body>my travel blog</body></html>"))
    theme = assign_theme("KEY", streams)
    kit = make_kit(kit_type, streams, "KEY")
    doorway = build_doorway(
        campaign="KEY",
        vertical="Uggs",
        terms=["cheap uggs", "uggs outlet"],
        site=site,
        compromised=compromised,
        day=day0,
        theme=theme,
        kit=kit,
        landing_url=lambda: "http://uggstore.com/",
        streams=streams,
    )
    return doorway, site


class TestRedirectCloaking:
    def test_crawler_sees_seo_content(self, day0):
        doorway, site = _doorway_setup(day0, CloakingType.REDIRECT)
        page = site.get_page(doorway.pages[0].path)
        result = page.respond(CRAWLER, day0)
        assert result.redirect_to is None
        assert "cheap uggs" in result.html or "uggs outlet" in result.html

    def test_search_user_redirected_to_store(self, day0):
        doorway, site = _doorway_setup(day0, CloakingType.REDIRECT)
        page = site.get_page(doorway.pages[0].path)
        result = page.respond(SEARCH_USER, day0)
        assert result.redirect_to == "http://uggstore.com/"

    def test_direct_user_sees_original_content(self, day0):
        """Compromised sites stay hidden from their owners (Section 3.1.1)."""
        doorway, site = _doorway_setup(day0, CloakingType.REDIRECT)
        page = site.get_page(doorway.pages[0].path)
        result = page.respond(USER, day0)
        assert "travel blog" in result.html

    def test_dedicated_doorway_shows_seo_to_direct_user(self, day0):
        streams = RandomStreams(12)
        registry = DomainRegistry()
        domain = registry.register("throwaway.biz", day0)
        site = Site(domain, SiteKind.DEDICATED_DOORWAY, authority=0.1, created_on=day0)
        theme = assign_theme("KEY", streams)
        doorway = build_doorway(
            "KEY", "Uggs", ["cheap uggs"], site, compromised=False, day=day0,
            theme=theme, kit=RedirectCloakingKit(),
            landing_url=lambda: "http://s.com/", streams=streams,
        )
        page = site.get_page(doorway.pages[0].path)
        assert "cheap uggs" in page.respond(USER, day0).html

    def test_no_live_store_falls_back_to_seo(self, day0):
        kit = RedirectCloakingKit()
        ctx = DoorwayPageContext(
            campaign="K", vertical="V", term="t",
            landing_url=lambda: None,
            seo_page=StaticPage("/t.html", html="<html><body>seo</body></html>"),
        )
        result = kit.respond(ctx, SEARCH_USER, day0)
        assert result.redirect_to is None
        assert "seo" in result.html


class TestIframeCloaking:
    def test_same_html_for_crawler_and_user(self, day0):
        doorway, site = _doorway_setup(day0, CloakingType.IFRAME)
        page = site.get_page(doorway.pages[0].path)
        crawler_view = page.respond(CRAWLER, day0).html
        user_view = page.respond(SEARCH_USER, day0).html
        assert crawler_view == user_view

    def test_no_http_redirect(self, day0):
        doorway, site = _doorway_setup(day0, CloakingType.IFRAME)
        page = site.get_page(doorway.pages[0].path)
        assert page.respond(SEARCH_USER, day0).redirect_to is None

    def test_unrendered_view_has_no_iframe(self, day0):
        doorway, site = _doorway_setup(day0, CloakingType.IFRAME)
        page = site.get_page(doorway.pages[0].path)
        doc = parse_html(page.respond(CRAWLER, day0).html)
        assert doc.find_all("iframe") == []

    def test_rendered_view_reveals_fullpage_iframe(self, day0):
        doorway, site = _doorway_setup(day0, CloakingType.IFRAME)
        page = site.get_page(doorway.pages[0].path)
        rendered = render_document(parse_html(page.respond(SEARCH_USER, day0).html))
        iframes = rendered.find_all("iframe")
        assert iframes
        assert iframes[0].get("src") == "http://uggstore.com/"

    def test_make_kit_validates(self):
        with pytest.raises(ValueError):
            make_kit(CloakingType.NONE, RandomStreams(1), "X")


class TestDoorwayBuild:
    def test_compromised_site_marked(self, day0):
        doorway, site = _doorway_setup(day0, CloakingType.REDIRECT)
        assert site.kind is SiteKind.COMPROMISED
        assert doorway.compromised

    def test_pages_per_term(self, day0):
        doorway, _ = _doorway_setup(day0, CloakingType.REDIRECT)
        assert len(doorway.pages) == 2
        assert {p.term for p in doorway.pages} == {"cheap uggs", "uggs outlet"}

    def test_paths_keyword_friendly(self, day0):
        doorway, _ = _doorway_setup(day0, CloakingType.REDIRECT)
        for page in doorway.pages:
            assert page.path.endswith(".html")
            assert "cheap-uggs" in page.path or "uggs-outlet" in page.path

    def test_root_preserved_on_compromise(self, day0):
        doorway, site = _doorway_setup(day0, CloakingType.REDIRECT)
        root = site.get_page("/")
        assert "travel blog" in root.respond(USER, day0).html

    def test_quality_in_range(self, day0):
        doorway, _ = _doorway_setup(day0, CloakingType.REDIRECT)
        assert 0.4 <= doorway.quality <= 1.0
