"""The day-stepped ecosystem simulator.

Each simulated day:

1. campaigns act (doorway creation, seizure reactions, domain rotations);
2. the search quality team sweeps (labels, demotions);
3. brand-protection firms file and execute court cases;
4. the engine serves every monitored term's SERP once, and the traffic pass
   turns PSR visibility into store visits, order creations, and supplier
   shipments;
5. registered observers (the measurement crawler) see the same SERPs.

SERPs are computed exactly once per (term, day) and shared between the
traffic pass and observers, so measurement and ground truth never diverge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.trace import TRACER
from repro.util.randmath import binomial, poisson
from repro.util.rng import RandomStreams
from repro.util.simtime import SimDate
from repro.web.hosting import Web
from repro.web.population import BackgroundWebBuilder
from repro.search.ctr import ClickModel
from repro.search.engine import SearchEngine
from repro.search.index import SearchIndex
from repro.search.query import QueryVolumeModel, Vertical, make_vertical
from repro.search.serp import Serp
from repro.market.brands import default_brand_catalog
from repro.market.payments import default_payment_network
from repro.market.supplier import Supplier
from repro.market.traffic import GeoModel, REFERRER_RETENTION
from repro.seo.campaign import Campaign
from repro.interventions.search_ops import SearchQualityTeam
from repro.interventions.seizure import BrandProtectionFirm, SeizureAuthority
from repro.interventions.payments import PaymentInterventionTeam
from repro.ecosystem.config import ScenarioConfig
from repro.ecosystem.events import EventLog
from repro.ecosystem.world import World

#: Supplier partner id used for untracked wholesale volume.
WHOLESALE_PARTNER = "WHOLESALE.MISC"


@dataclass
class DayContext:
    """What observers receive each simulated day."""

    day: SimDate
    #: term -> SERP for every monitored term.
    serps: Dict[str, Serp]
    #: term -> vertical name.
    vertical_of_term: Dict[str, str]


class Simulator:
    """Builds a world from a config and runs the study window."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.streams = RandomStreams(config.seed)
        self.world = self._build_world()
        self.campaigns: List[Campaign] = []
        self.search_team: Optional[SearchQualityTeam] = None
        self.firms: List[BrandProtectionFirm] = []
        self.payment_team: Optional[PaymentInterventionTeam] = None
        self.supplier: Optional[Supplier] = None
        self._click_carry: Dict[str, float] = {}
        self._click_model = ClickModel()
        self._geo = GeoModel(self.streams)
        self._traffic_rng = self.streams.get("traffic")
        self._built = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _build_world(self) -> World:
        config = self.config
        web = Web()
        index = SearchIndex()
        engine = SearchEngine(
            index,
            self.streams,
            serp_size=config.serp_size,
            label_root_only=config.search_policy.label_root_only,
        )
        verticals: Dict[str, Vertical] = {}
        for spec in config.verticals:
            verticals[spec.name] = make_vertical(
                spec.name, spec.brands, config.terms_per_vertical,
                self.streams, composite=spec.composite,
                universe_factor=config.term_universe_factor,
            )
        world = World(
            streams=self.streams,
            window=config.window,
            web=web,
            index=index,
            engine=engine,
            verticals=verticals,
            brand_catalog=default_brand_catalog(),
            payment_network=default_payment_network(),
            query_volume=QueryVolumeModel(self.streams),
            events=EventLog(),
        )
        return world

    def build(self) -> World:
        """Populate the world: background web, campaigns, interventions."""
        if self._built:
            return self.world
        config = self.config
        world = self.world
        epoch = config.window.start - 365
        builder = BackgroundWebBuilder(world.web, self.streams, world.forge, epoch)
        for name, vertical in world.verticals.items():
            pages = builder.build_competitors(
                name, vertical.universe,
                config.competitor_sites_per_vertical,
                config.legit_candidates_per_term,
            )
            for spec in pages:
                for term, relevance in spec.relevances.items():
                    world.index.add_page(term, spec.site, spec.path, relevance)
        world.set_compromise_pool(builder.build_compromise_pool(config.compromise_pool_size))

        for spec in config.all_campaign_specs():
            campaign = Campaign(spec, self.streams)
            campaign.setup(world)
            world.add_campaign(campaign)
            self.campaigns.append(campaign)

        self.search_team = SearchQualityTeam(
            config.search_policy, self.streams, config.scripted_demotions
        )
        authority = SeizureAuthority(world.web)
        for firm_spec in config.firms:
            self.firms.append(
                BrandProtectionFirm(
                    name=firm_spec.name,
                    clients=firm_spec.clients,
                    policy=firm_spec.policy,
                    streams=self.streams,
                    authority=authority,
                )
            )
        if config.supplier_partners:
            partners = list(config.supplier_partners) + [WHOLESALE_PARTNER]
            self.supplier = Supplier("lux-fulfill", self.streams, partners)
            world.suppliers.append(self.supplier)
        if config.payment_policy is not None and config.payment_policy.start_day is not None:
            self.payment_team = PaymentInterventionTeam(config.payment_policy, self.streams)
        self._built = True
        return world

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    def run(
        self,
        observers: Sequence[object] = (),
        start_index: int = 0,
        checkpointer=None,
    ) -> World:
        """Run the window; observers get a DayContext every day.

        ``start_index`` skips already-simulated days when resuming from a
        checkpoint (the checkpointed state already contains their
        effects).  ``checkpointer`` (a
        :class:`repro.faults.checkpoint.Checkpointer`) is called after
        every completed day; it may raise
        :class:`~repro.faults.checkpoint.SimulatedCrash`.
        """
        self.build()
        world = self.world
        vertical_of_term = self.vertical_of_term_map()
        with TRACER.span("simulate", days=len(world.window) - start_index):
            for day_index, day in enumerate(world.window):
                if day_index < start_index:
                    continue
                with TRACER.span("day", sim_day=day.isoformat()):
                    context = self.step_day(day, vertical_of_term)
                    for observer in observers:
                        observer.on_day(world, context)
                if checkpointer is not None:
                    checkpointer.on_day_complete(self, observers, day_index, day)
        return world

    def vertical_of_term_map(self) -> Dict[str, str]:
        """term -> vertical name, for every monitored term."""
        vertical_of_term: Dict[str, str] = {}
        for name, vertical in self.world.verticals.items():
            for term in vertical.terms:
                vertical_of_term[term] = name
        return vertical_of_term

    def step_day(
        self, day: SimDate, vertical_of_term: Optional[Dict[str, str]] = None
    ) -> DayContext:
        """Advance the world through one simulated day — campaigns,
        interventions, SERP serving, and the traffic pass — and return the
        :class:`DayContext` observers would receive.

        This is everything :meth:`run` does per day *except* notifying
        observers and checkpointing.  Every draw comes from this
        simulator's own named streams, so stepping a simulator unpickled
        from a checkpoint produces bit-identical world state.
        """
        world = self.world
        world.today = day
        if vertical_of_term is None:
            vertical_of_term = self.vertical_of_term_map()
        with TRACER.span("campaigns"):
            self._campaign_pass(world, day)
        assert self.search_team is not None
        with TRACER.span("interventions"):
            self.search_team.on_day(world, day)
            for firm in self.firms:
                firm.on_day(world, day)
            if self.payment_team is not None:
                self.payment_team.on_day(world, day)
        with TRACER.span("serps"):
            serps = {
                term: world.engine.serp(term, day)
                for term in vertical_of_term
            }
        with TRACER.span("traffic"):
            self._traffic_pass(day, serps)
        return DayContext(day=day, serps=serps, vertical_of_term=vertical_of_term)

    def _campaign_pass(self, world, day: SimDate) -> None:
        """Run every campaign's day, skipping provable no-ops.

        Most campaigns most days have no due doorways, no seized stores,
        and no pending rotations; :meth:`Campaign.day_has_work` detects
        that exactly (a skipped campaign would have drawn no randomness
        and mutated no state), so the pass only pays for campaigns with
        actual work.  Campaign order is preserved for the ones that run —
        shared-world mutations (domain registration, compromise-target
        assignment) stay in the sequential order.
        """
        blacklist_active = bool(world.payment_network.blacklisted())
        for campaign in self.campaigns:
            if campaign.day_has_work(world, day, blacklist_active):
                campaign.on_day(world, day)

    # ------------------------------------------------------------------ #
    # Traffic: PSR visibility -> visits -> orders -> shipments
    # ------------------------------------------------------------------ #

    def _traffic_pass(self, day: SimDate, serps: Dict[str, Serp]) -> None:
        world = self.world
        clicks: Dict[str, float] = {}
        referrers: Dict[str, Counter] = {}
        for term, serp in serps.items():
            volume = world.query_volume.volume(term, day)
            for result in serp.results:
                pair = world.doorway_at(result.host)
                if pair is None:
                    continue
                doorway_domain = world.web.domains.get(result.host)
                if doorway_domain is not None and doorway_domain.seized_as_of(day):
                    # A seized doorway serves the notice page: the click is
                    # lost before it ever reaches the store.
                    continue
                store = world.landing_store_of(result.host)
                if store is None:
                    continue
                host_now = store.host_on(day)
                if host_now is None:
                    continue
                domain = world.web.domains.get(host_now)
                if domain is not None and domain.seized_as_of(day):
                    # Doorways still forward, but users land on the seizure
                    # notice: no store visit, no order.
                    continue
                expected = self._click_model.expected_clicks(result, volume)
                if expected <= 0.0:
                    continue
                clicks[store.store_id] = clicks.get(store.store_id, 0.0) + expected
                referrers.setdefault(store.store_id, Counter())[result.host] += max(
                    1, int(expected)
                )
        self._settle_stores(day, clicks, referrers)

    def _settle_stores(
        self, day: SimDate, clicks: Dict[str, float], referrers: Dict[str, Counter]
    ) -> None:
        world = self.world
        config = self.config
        rng = self._traffic_rng
        for store in world.stores():
            store_id = store.store_id
            host_now = store.host_on(day)
            if host_now is None:
                continue
            domain = world.web.domains.get(host_now)
            seized = domain is not None and domain.seized_as_of(day)
            carry = self._click_carry.get(store_id, 0.0)
            total = carry + clicks.get(store_id, 0.0)
            search_visits = int(total)
            self._click_carry[store_id] = total - search_visits
            direct_visits = poisson(rng, config.direct_visits_per_day)
            visits = search_visits + direct_visits
            if seized:
                continue
            if visits == 0:
                continue
            if search_visits > 0:
                world.note_store_sighting(store, day)
            pages = max(
                visits,
                int(round(visits * rng.gauss(config.pages_per_visit, 0.5))),
            )
            referred = min(search_visits, int(round(search_visits * REFERRER_RETENTION)))
            referrer_counts = self._scale_referrers(
                referrers.get(store_id, Counter()), referred
            )
            countries = self._geo.sample_countries(store_id, visits)
            store.visits.record(
                day, visits, pages, host_now,
                referrer_hosts=referrer_counts, countries=countries,
            )
            creation_rate = store.order_creation_rate * store.conversion_ramp(day)
            created = binomial(rng, visits, creation_rate)
            if created:
                store.record_orders(day, created)
                # A terminated processor cannot clear payments: order numbers
                # still get allocated (users reach checkout) but nothing
                # completes until the campaign re-signs elsewhere.
                if world.payment_network.is_blacklisted(store.processor.name):
                    completed = 0
                else:
                    completed = binomial(rng, created, store.completion_rate)
                if completed:
                    store.record_completed_sales(day, completed)
                if completed and self.supplier is not None:
                    campaign_name = world.campaign_of_store(store_id)
                    if campaign_name in self.supplier.partner_campaigns:
                        self.supplier.fulfill_orders(campaign_name, day, completed)
        if self.supplier is not None and config.supplier_background_orders_per_day > 0:
            background = poisson(rng, config.supplier_background_orders_per_day)
            if background:
                self.supplier.fulfill_orders(WHOLESALE_PARTNER, day, background)

    @staticmethod
    def _scale_referrers(raw: Counter, target_total: int) -> Counter:
        """Scale referrer click counts down to the retained-referrer total."""
        if target_total <= 0 or not raw:
            return Counter()
        raw_total = sum(raw.values())
        scaled: Counter = Counter()
        for host, count in raw.items():
            share = int(round(count / raw_total * target_total))
            if share > 0:
                scaled[host] = share
        return scaled
