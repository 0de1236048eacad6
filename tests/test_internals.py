"""Breadth tests: event log, campaign internals, engine ranking properties,
schedule properties, and miscellaneous corners."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.rng import RandomStreams
from repro.util.simtime import DateRange, SimDate
from repro.ecosystem.events import EventLog
from repro.seo.schedule import Burst, EffortSchedule, random_schedule
from repro.seo.campaign import Campaign, CampaignSpec
from repro.search import RankingModel, SearchEngine, SearchIndex
from repro.web.domains import DomainRegistry
from repro.web.sites import DynamicPage, Site, SiteKind
from repro.web.fetch import PageResult, USER
from repro.ecosystem import small_preset
from repro.study import StudyRun


class TestEventLog:
    def test_record_and_query_by_kind(self, day0):
        log = EventLog()
        log.record("a", day0, x=1)
        log.record("b", day0 + 1, y=2)
        log.record("a", day0 + 2, x=3)
        assert len(log) == 3
        assert [e.payload["x"] for e in log.of_kind("a")] == [1, 3]
        assert log.of_kind("missing") == []

    def test_iteration_preserves_order(self, day0):
        log = EventLog()
        for i in range(5):
            log.record("k", day0 + i, i=i)
        assert [e.payload["i"] for e in log] == list(range(5))

    def test_events_are_frozen(self, day0):
        log = EventLog()
        event = log.record("k", day0)
        with pytest.raises(Exception):
            event.kind = "other"


class TestScheduleProperties:
    @given(
        st.integers(0, 200), st.integers(5, 120),
        st.floats(0.1, 1.0), st.floats(0.0, 0.1),
    )
    @settings(max_examples=60, deadline=None)
    def test_level_bounded_by_peak_and_background(self, start, duration, level, background):
        day0 = SimDate("2013-11-13")
        schedule = EffortSchedule(
            [Burst(day0 + start, duration, level)], background=background
        )
        for offset in (0, start, start + duration - 1, start + duration, 400):
            value = schedule.level(day0 + offset)
            assert min(background, level) <= value <= max(background, level)

    def test_level_cached(self, day0):
        schedule = EffortSchedule([Burst(day0, 10, 0.5)])
        assert schedule.level(day0) == schedule.level(day0)

    @given(st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_random_schedule_burst_count(self, count):
        window = DateRange("2013-11-13", "2014-07-15")
        schedule = random_schedule(
            RandomStreams(1), "x", window, 30, 0.7, burst_count=count
        )
        assert len(schedule.bursts) == count

    def test_pinned_main_start(self):
        window = DateRange("2013-11-13", "2014-07-15")
        schedule = random_schedule(
            RandomStreams(1), "x", window, 30, 0.7, main_start_offset=0
        )
        assert schedule.bursts[0].start == window.start


class TestCampaignInternals:
    def _world_and_campaign(self, spec=None):
        from repro.ecosystem import Simulator, small_preset

        sim = Simulator(small_preset(days=40))
        world = sim.build()
        return world, world.campaign_by_name("MSVALIDATE")

    def test_brand_pool_sized_by_spec(self):
        world, campaign = self._world_and_campaign()
        assert len(campaign.brand_pool) == campaign.spec.brands

    def test_stores_distributed_across_verticals(self):
        world, campaign = self._world_and_campaign()
        verticals = {s.vertical for s in campaign.stores}
        assert verticals <= set(campaign.spec.verticals)
        assert len(campaign.stores) >= campaign.spec.stores

    def test_store_pages_complete(self, day0):
        world, campaign = self._world_and_campaign()
        store = campaign.stores[0]
        site = world.web.get_site(store.current_domain.name)
        paths = site.paths()
        assert "/" in paths
        assert "/checkout" in paths
        assert "/checkout/confirm" in paths
        assert any(p.startswith("/product/") for p in paths)

    def test_checkout_confirm_allocates_sequentially(self, day0):
        world, campaign = self._world_and_campaign()
        store = campaign.stores[0]
        site = world.web.get_site(store.current_domain.name)
        page = site.get_page("/checkout/confirm")
        first = page.respond(USER, world.window.start)
        second = page.respond(USER, world.window.start)
        import re
        a = int(re.search(r"Order Number:\s*(\d+)", first.html).group(1))
        b = int(re.search(r"Order Number:\s*(\d+)", second.html).group(1))
        assert b == a + 1

    def test_plain_checkout_shows_no_number(self):
        world, campaign = self._world_and_campaign()
        store = campaign.stores[0]
        site = world.web.get_site(store.current_domain.name)
        page = site.get_page("/checkout")
        assert "Order Number" not in page.respond(USER, world.window.start).html

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="X", verticals=["V"], doorways=1, stores=1,
                         brands=0, peak_days=1)


def _engine_with_candidates(seed, authorities):
    streams = RandomStreams(seed)
    registry = DomainRegistry()
    index = SearchIndex()
    day0 = SimDate("2013-11-13")
    for i, authority in enumerate(authorities):
        domain = registry.register(f"s{i}.com", day0)
        site = Site(domain, SiteKind.LEGITIMATE, authority=authority, created_on=day0)
        index.add_page("t", site, "/", relevance=0.5)
    return SearchEngine(index, streams, ranking=RankingModel(noise_sigma=0.0))


class TestEngineProperties:
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_zero_noise_ranks_by_score(self, authorities, seed):
        engine = _engine_with_candidates(seed, authorities)
        serp = engine.serp("t", SimDate("2014-01-01"))
        scores = [r.score for r in serp.results]
        assert scores == sorted(scores, reverse=True)

    def test_host_cap_honored_even_with_many_pages(self, day0):
        streams = RandomStreams(1)
        registry = DomainRegistry()
        index = SearchIndex()
        domain = registry.register("big.com", day0)
        site = Site(domain, SiteKind.LEGITIMATE, authority=0.9, created_on=day0)
        for i in range(20):
            index.add_page("t", site, f"/p{i}.html", relevance=0.9)
        engine = SearchEngine(index, streams, max_results_per_host=2)
        assert len(engine.serp("t", day0)) == 2

    def test_site_query_empty_for_unknown(self, day0):
        engine = _engine_with_candidates(0, [0.5])
        assert engine.site_query("nope.com", day0) == []


class TestDynamicPage:
    def test_responder_receives_profile_and_day(self, day0):
        seen = {}

        def respond(profile, day):
            seen["agent"] = profile.user_agent
            seen["day"] = day
            return PageResult(html="<html></html>")

        page = DynamicPage("/x", respond)
        page.respond(USER, day0)
        assert seen["agent"] == USER.user_agent
        assert seen["day"] == day0


class TestWorldMisc:
    def test_compromise_pool_drains(self):
        from repro.ecosystem import Simulator, small_preset

        config = small_preset(days=40)
        sim = Simulator(config)
        world = sim.build()
        before = world.compromise_pool_remaining()
        sim.run()
        assert world.compromise_pool_remaining() <= before

    def test_take_compromise_target_exhausts_gracefully(self):
        from repro.ecosystem.world import World

        # Direct check on the pool primitive.
        from repro.ecosystem import Simulator, small_preset
        sim = Simulator(small_preset(days=10))
        world = sim.build()
        while world.take_compromise_target() is not None:
            pass
        assert world.take_compromise_target() is None


def test_study_run_refuses_other_job_counts():
    """A study runs in one process; ``jobs`` stays only as ``jobs=1``."""
    StudyRun(small_preset(days=2), jobs=1)
    with pytest.raises(ValueError, match="jobs must be 1"):
        StudyRun(small_preset(days=2), jobs=2)
