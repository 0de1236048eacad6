"""Campaign agents.

A :class:`Campaign` owns its storefronts, doorway fleet, cloaking kit, page
theme, C&C directory, and per-vertical effort schedules, and reacts to
interventions: after a storefront domain seizure it rotates the store onto a
backup domain and repoints doorways via the C&C (Section 5.3.2); campaigns
configured for proactive rotation move domains on a timer even without a
seizure (Figure 5's coco*.com behaviour).

The campaign interacts with the rest of the simulation through a ``world``
object (see :class:`repro.ecosystem.world.World`) supplying the web, the
search index, domain registration, the compromise pool, and the event log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.util.ids import slugify
from repro.util.rng import RandomStreams
from repro.util.simtime import DateRange, SimDate
from repro.web.sites import DynamicPage, Site, SiteKind, StaticPage
from repro.web.fetch import PageResult
from repro.market.products import generate_products
from repro.market.stores import Store
from repro.seo.cloaking import CloakingType, make_kit
from repro.seo.cnc import CommandAndControl
from repro.seo.doorways import Doorway, build_doorway
from repro.seo.linkfarm import LinkFarm
from repro.seo.schedule import EffortSchedule, random_schedule
from repro.seo.templates import THEME_FAMILIES, TemplateTheme, assign_theme


class ScheduledSignal:
    """Doorway SEO signal: the campaign's effort level times page quality.

    Structured (rather than a closure) so the search index can group
    same-schedule entries and the engine can evaluate each schedule once
    per SERP instead of once per candidate — every page of every doorway
    in a (campaign, vertical) shares one :class:`EffortSchedule`.
    """

    __slots__ = ("schedule", "quality")

    def __init__(self, schedule: EffortSchedule, quality: float):
        self.schedule = schedule
        self.quality = quality

    def __call__(self, day) -> float:
        return self.schedule.level(day) * self.quality


class _StorefrontHome:
    """Picklable generator for a store's home page (checkpointable state)."""

    __slots__ = ("theme", "store", "host")

    def __init__(self, theme: TemplateTheme, store: Store, host: str):
        self.theme = theme
        self.store = store
        self.host = host

    def __call__(self) -> str:
        return self.theme.storefront_home(self.store, self.host)


class _StorefrontProduct:
    """Picklable generator for one product page."""

    __slots__ = ("theme", "store", "product", "key")

    def __init__(self, theme: TemplateTheme, store: Store, product, key: str):
        self.theme = theme
        self.store = store
        self.product = product
        self.key = key

    def __call__(self) -> str:
        return self.theme.storefront_product(self.store, self.product, self.key)


class _StorefrontCheckout:
    """Picklable generator for the checkout page."""

    __slots__ = ("theme", "store")

    def __init__(self, theme: TemplateTheme, store: Store):
        self.theme = theme
        self.store = store

    def __call__(self) -> str:
        return self.theme.storefront_checkout(self.store, None)


class _CheckoutConfirm:
    """Picklable responder for /checkout/confirm: allocates an order number
    per request (the purchase-pair observable)."""

    __slots__ = ("theme", "store", "cookies")

    def __init__(self, theme: TemplateTheme, store: Store, cookies: tuple):
        self.theme = theme
        self.store = store
        self.cookies = cookies

    def __call__(self, profile, day) -> PageResult:
        number = self.store.allocate_order_number(day)
        return PageResult(
            html=self.theme.storefront_checkout(self.store, number),
            cookies=self.cookies,
        )


class _CncLanding:
    """Picklable C&C landing-URL lookup bound to one (campaign, store).

    Doorway page contexts hold one of these; like :class:`ScheduledSignal`
    it is a class rather than a closure so checkpointed worlds pickle."""

    __slots__ = ("campaign", "store_id")

    def __init__(self, campaign: "Campaign", store_id: str):
        self.campaign = campaign
        self.store_id = store_id

    def __call__(self) -> Optional[str]:
        assert self.campaign.cnc is not None
        return self.campaign.cnc.landing_url(self.store_id)


@dataclass
class CampaignSpec:
    """Static description of one campaign (Table 2 row, roughly)."""

    name: str
    verticals: List[str]
    doorways: int
    stores: int
    brands: int
    #: Peak poisoning duration hint, days (Table 2's "Peak" column).
    peak_days: int
    cloaking: CloakingType = CloakingType.IFRAME
    peak_level: float = 0.75
    background_level: float = 0.03
    compromised_fraction: float = 0.85
    #: Fraction of compromised doorways whose *root* is also cloaked (these
    #: are the PSRs the root-only "hacked" label can actually mark).
    root_injection_fraction: float = 0.2
    #: Mean days from a store seizure to repointing doorways at a backup.
    reaction_delay_mean: float = 7.0
    #: Rotate storefront domains proactively every N days (None = reactive only).
    proactive_rotation_days: Optional[int] = None
    terms_per_doorway: Tuple[int, int] = (4, 8)
    #: Pin the theme family (family_id) for confusability experiments.
    theme_family: Optional[str] = None
    #: Brands guaranteed to enter the campaign's pool beyond the vertical
    #: anchors (e.g., BIGLOVE's Chanel storefront).
    extra_brands: List[str] = field(default_factory=list)
    #: Pin the main SEO burst to start this many days into the window
    #: (None = random placement).
    main_burst_start_offset: Optional[int] = None
    #: Stop all SEO on this day (ISO string), e.g. after losing a supplier.
    shutdown_day: Optional[str] = None

    def __post_init__(self):
        if not self.verticals:
            raise ValueError(f"campaign {self.name!r} must target at least one vertical")
        if self.stores < 1 or self.doorways < 1:
            raise ValueError(f"campaign {self.name!r} needs stores and doorways")
        if self.brands < 1:
            raise ValueError(f"campaign {self.name!r} needs at least one brand")


@dataclass
class _PendingDoorway:
    day: SimDate
    vertical: str


@dataclass
class _PendingRotation:
    due: SimDate
    store: Store
    reason: str  # 'seizure' | 'proactive'


_LOCALES = ("us", "us", "us", "uk", "de", "jp", "au", "fr", "it")


class Campaign:
    """Runtime state and behaviour of one SEO campaign."""

    def __init__(self, spec: CampaignSpec, streams: RandomStreams):
        self.spec = spec
        self.name = spec.name
        self._streams = streams.child(f"campaign:{slugify(spec.name)}")
        self._rng = self._streams.get("lifecycle")
        family = None
        if spec.theme_family is not None:
            matches = [f for f in THEME_FAMILIES if f.family_id == spec.theme_family]
            if not matches:
                raise ValueError(f"unknown theme family {spec.theme_family!r}")
            family = matches[0]
        self.theme: TemplateTheme = assign_theme(spec.name, self._streams, family)
        self.kit = make_kit(spec.cloaking, self._streams, spec.name)
        self.cnc: Optional[CommandAndControl] = None
        self.stores: List[Store] = []
        self.doorways: List[Doorway] = []
        self.schedules: Dict[str, EffortSchedule] = {}
        self._stores_by_vertical: Dict[str, List[Store]] = {}
        self._doorway_plan: List[_PendingDoorway] = []
        self._pending_rotations: List[_PendingRotation] = []
        self._rotation_scheduled: Dict[str, SimDate] = {}
        self._last_proactive: Dict[str, SimDate] = {}
        self._resign_scheduled: Dict[str, SimDate] = {}
        self.brand_pool: List[str] = []
        #: Backlink farm powering the campaign's dedicated doorways.
        self.link_farm = LinkFarm(
            spec.name, self._streams,
            farm_size=max(10, min(120, spec.doorways * 2)),
        )

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def setup(self, world) -> None:
        """Create stores, schedules, C&C, and the doorway rollout plan."""
        spec = self.spec
        window: DateRange = world.window
        self.cnc = CommandAndControl(self.name, world.forge.cnc_domain(self.name))
        self._build_brand_pool(world)
        self._build_schedules(world, window)
        self._build_stores(world)
        self._plan_doorways(window)

    def _build_brand_pool(self, world) -> None:
        anchors: List[str] = []
        for vertical_name in self.spec.verticals:
            vertical = world.verticals[vertical_name]
            anchors.extend(b for b in vertical.brands if b not in anchors)
        pool = list(anchors)
        for extra in self.spec.extra_brands:
            if extra not in pool:
                pool.append(extra)
        if len(pool) < self.spec.brands:
            extras = [
                b.name for b in world.brand_catalog.all() if b.name not in pool
            ]
            self._rng.shuffle(extras)
            pool.extend(extras[: self.spec.brands - len(pool)])
        self.brand_pool = pool[: max(self.spec.brands, len(self.spec.extra_brands) + 1)]

    def _build_schedules(self, world, window: DateRange) -> None:
        shutdown = SimDate(self.spec.shutdown_day) if self.spec.shutdown_day else None
        for vertical_name in self.spec.verticals:
            schedule = random_schedule(
                self._streams,
                f"{vertical_name}",
                window,
                peak_days_hint=self.spec.peak_days,
                peak_level=self.spec.peak_level * self._rng.uniform(0.85, 1.1),
                background=self.spec.background_level,
                main_start_offset=self.spec.main_burst_start_offset,
                # Campaign-qualified so no two live schedules ever share a
                # grouping key (the stream name above is only unique within
                # this campaign's RNG subtree).
                group_key=f"{self.spec.name}:{vertical_name}",
            )
            if shutdown is not None:
                schedule.shutdown(shutdown)
            self.schedules[vertical_name] = schedule

    def _build_stores(self, world) -> None:
        spec = self.spec
        per_vertical = max(1, spec.stores // len(spec.verticals))
        remaining = spec.stores
        for index, vertical_name in enumerate(spec.verticals):
            count = per_vertical
            if index == len(spec.verticals) - 1:
                count = max(1, remaining)
            count = min(count, remaining) if remaining else 0
            for slot in range(count):
                self._create_store(world, vertical_name, slot)
            remaining -= count
            if remaining <= 0:
                remaining = 0
        # One dedicated store per pinned extra brand (e.g., BIGLOVE's
        # Chanel storefront of Figure 5), anchored in the first vertical.
        for offset, extra in enumerate(self.spec.extra_brands):
            self._create_store(
                world, self.spec.verticals[0], 1000 + offset, anchor_brand=extra
            )

    def _create_store(
        self, world, vertical_name: str, slot: int, anchor_brand: Optional[str] = None
    ) -> Store:
        vertical = world.verticals[vertical_name]
        anchor = anchor_brand if anchor_brand is not None else self._rng.choice(vertical.brands)
        locale = self._rng.choice(_LOCALES)
        store_id = f"{slugify(self.name)}-{slugify(vertical_name)}-{slot}"
        brands = [anchor]
        extra_count = self._rng.randint(0, min(2, max(0, len(self.brand_pool) - 1)))
        extras = [b for b in self.brand_pool if b != anchor]
        if extras and extra_count:
            brands.extend(self._rng.sample(extras, min(extra_count, len(extras))))
        products: List = []
        for brand_name in brands:
            brand = world.brand_catalog.get(brand_name)
            products.extend(generate_products(brand, 12, self._streams.child(store_id)))
        locale_tag = "" if locale == "us" else locale
        domain = world.register_domain(
            world.forge.store_domain(anchor, locale_tag), world.window.start
        )
        processor = world.payment_network.assign(store_id, self._streams)
        store = Store(
            store_id=store_id,
            campaign=self.name,
            vertical=vertical_name,
            brands=brands,
            products=products,
            processor=processor,
            first_domain=domain,
            opened_on=world.window.start,
            locale=locale,
            order_number_start=self._rng.randint(400, 5000),
            platform=self.theme.platform,
            order_creation_rate=self._rng.uniform(0.008, 0.016),
            completion_rate=self._rng.uniform(0.5, 0.7),
            awstats_public=self._rng.random() < 0.09,
        )
        store.page_factory = self._store_page_factory
        world.web.add_site(store.build_site(world.window.start))
        self.stores.append(store)
        self._stores_by_vertical.setdefault(vertical_name, []).append(store)
        assert self.cnc is not None
        self.cnc.set_landing(store.store_id, f"http://{domain.name}/", world.window.start)
        world.track_store(self, store)
        return store

    def _store_page_factory(self, store: Store, site: Site) -> None:
        """Build a store's pages on a (possibly new) domain."""
        cookies = self.theme.platform_cookies() + (store.processor.cookie_name,)
        host = site.host
        theme = self.theme
        site.add_page(
            StaticPage(
                "/",
                generator=_StorefrontHome(theme, store, host),
                cookies=cookies,
            )
        )
        for product in store.products[:6]:
            site.add_page(
                StaticPage(
                    f"/product/{product.sku}.html",
                    generator=_StorefrontProduct(
                        theme, store, product, f"{host}:{product.sku}"
                    ),
                    cookies=cookies,
                )
            )
        site.add_page(
            StaticPage(
                "/checkout",
                generator=_StorefrontCheckout(theme, store),
                cookies=cookies,
            )
        )
        site.add_page(
            DynamicPage("/checkout/confirm", _CheckoutConfirm(theme, store, cookies))
        )

    def _plan_doorways(self, window: DateRange) -> None:
        spec = self.spec
        plan: List[_PendingDoorway] = []
        for index in range(spec.doorways):
            vertical_name = spec.verticals[index % len(spec.verticals)]
            schedule = self.schedules[vertical_name]
            if self._rng.random() < 0.6 and schedule.bursts:
                burst = self._rng.choice(schedule.bursts)
                day = window.clip(burst.start + self._rng.randint(0, 9))
            else:
                day = window.start + self._rng.randint(0, len(window) - 1)
            plan.append(_PendingDoorway(day=day, vertical=vertical_name))
        plan.sort(key=lambda p: p.day.ordinal)
        self._doorway_plan = plan

    # ------------------------------------------------------------------ #
    # Daily behaviour
    # ------------------------------------------------------------------ #

    def on_day(self, world, day: SimDate) -> None:
        self._create_due_doorways(world, day)
        self._detect_seizures(world, day)
        self._schedule_proactive_rotations(world, day)
        self._execute_due_rotations(world, day)
        self._resign_frozen_processors(world, day)

    def day_has_work(self, world, day: SimDate, blacklist_active: bool = True) -> bool:
        """Exact no-op precheck for :meth:`on_day`.

        Returns False only when every daily sub-step would provably draw
        no randomness and mutate no state, so the simulator's batched
        campaign pass can skip this campaign without changing any RNG
        stream or world state.  Each clause mirrors the entry condition of
        the corresponding ``on_day`` sub-method; keep them in sync.
        ``blacklist_active`` lets the caller hoist the world-level
        "any processor blacklisted?" check out of the per-campaign loop.
        """
        if self._doorway_plan and self._doorway_plan[0].day <= day:
            return True  # _create_due_doorways pops a due entry
        for rotation in self._pending_rotations:
            if rotation.due <= day:
                return True  # _execute_due_rotations rotates
        interval = self.spec.proactive_rotation_days
        for store in self.stores:
            if store.store_id not in self._rotation_scheduled:
                if store.current_domain.seized_as_of(day):
                    return True  # _detect_seizures schedules (and draws)
                if interval is not None and day - self._last_proactive.get(
                    store.store_id, store.opened_on
                ) >= interval:
                    return True  # _schedule_proactive_rotations schedules
        if blacklist_active:
            network = world.payment_network
            for store in self.stores:
                if network.is_blacklisted(store.processor.name):
                    return True  # _resign_frozen_processors reacts (and draws)
        return False

    def _create_due_doorways(self, world, day: SimDate) -> None:
        while self._doorway_plan and self._doorway_plan[0].day <= day:
            pending = self._doorway_plan.pop(0)
            self._create_doorway(world, day, pending.vertical)

    def _create_doorway(self, world, day: SimDate, vertical_name: str) -> Optional[Doorway]:
        vertical = world.verticals[vertical_name]
        compromised = self._rng.random() < self.spec.compromised_fraction
        site: Optional[Site] = None
        if compromised:
            site = world.take_compromise_target()
            if site is None:
                compromised = False
        if site is None:
            domain = world.register_domain(world.forge.doorway_domain(), day)
            # Authority comes from the campaign's backlink farm: the engine
            # sees the farm's link equity pointing at this fresh domain.
            self.link_farm.add_doorway(domain.name)
            site = Site(domain, SiteKind.DEDICATED_DOORWAY,
                        authority=self.link_farm.authority_of(domain.name),
                        created_on=day)
            world.web.add_site(site)
        # Root-injected doorways overwrite the hacked site's main page; the
        # stuffed root ranks for several terms and few subpages exist.
        # These are the doorways whose PSRs the root-only "hacked" label can
        # actually reach (Section 5.2.2).
        inject_root = (
            compromised and self._rng.random() < self.spec.root_injection_fraction
        )
        lo, hi = self.spec.terms_per_doorway
        if inject_root:
            lo, hi = 1, 1
        term_count = min(len(vertical.universe), self._rng.randint(lo, max(lo, hi)))
        terms = self._rng.sample(vertical.universe, term_count)
        landing_store = self._pick_landing_store(vertical_name)
        landing = self._make_landing_lookup(world, landing_store)
        doorway = build_doorway(
            campaign=self.name,
            vertical=vertical_name,
            terms=terms,
            site=site,
            compromised=compromised,
            day=day,
            theme=self.theme,
            kit=self.kit,
            landing_url=landing,
            streams=self._streams,
        )
        if inject_root:
            self._inject_root(world, doorway, vertical, day, landing)
        schedule = self.schedules[vertical_name]
        indexed_on = day + self._rng.randint(1, 2)  # "SEO'ed in 24 hours"
        for page in doorway.pages:
            signal = self._make_signal(schedule, doorway.quality)
            world.index.add_page(
                page.term, site, page.path, page.relevance,
                seo_signal=signal, indexed_on=indexed_on,
                authority_factor=0.75 if page.path != "/" else 0.95,
            )
        self.doorways.append(doorway)
        world.track_doorway(self, doorway, landing_store)
        return doorway

    def _inject_root(self, world, doorway: Doorway, vertical, day, landing) -> None:
        """Cloak a compromised site's root — one stuffed page ranking for
        several of the vertical's terms (the only PSRs Google's root-only
        'hacked' label can mark, Section 5.2.2)."""
        from repro.seo.cloaking import DoorwayPageContext  # local to avoid cycle noise
        from repro.seo.doorways import DoorwayPage, _make_responder, seo_page

        root_terms = self._rng.sample(
            vertical.universe, min(len(vertical.universe), self._rng.randint(4, 6))
        )
        primary = root_terms[0]
        root = doorway.site.get_page("/")
        context = DoorwayPageContext(
            campaign=self.name, vertical=vertical.name, term=primary, landing_url=landing,
            seo_page=seo_page("/", self.theme, primary, vertical.name, f"{doorway.host}:rootinj"),
            original_page=root if isinstance(root, StaticPage) else None,
        )
        doorway.site.replace_page(DynamicPage("/", _make_responder(self.kit, context)))
        for term in root_terms:
            relevance = self._rng.uniform(0.7, 0.95)
            doorway.pages.append(
                DoorwayPage(path="/", term=term, relevance=relevance, context=context)
            )
        doorway.root_injected = True

    def _make_signal(self, schedule: EffortSchedule, quality: float):
        return ScheduledSignal(schedule, quality)

    def _pick_landing_store(self, vertical_name: str) -> Store:
        stores = self._stores_by_vertical.get(vertical_name)
        if not stores:
            # Campaign targets the vertical with doorways but parks stores
            # elsewhere; reuse any store.
            stores = self.stores
        # Concentrate traffic: the first store per vertical is primary.
        weights = [3.0] + [1.0] * (len(stores) - 1)
        return self._rng.choices(stores, weights=weights, k=1)[0]

    def _make_landing_lookup(self, world, store: Store) -> _CncLanding:
        return _CncLanding(self, store.store_id)

    # ------------------------------------------------------------------ #
    # Seizure reaction and rotation
    # ------------------------------------------------------------------ #

    def _detect_seizures(self, world, day: SimDate) -> None:
        for store in self.stores:
            domain = store.current_domain
            if not domain.seized_as_of(day):
                continue
            if store.store_id in self._rotation_scheduled:
                continue
            delay = max(1, int(self._rng.expovariate(1.0 / self.spec.reaction_delay_mean)))
            due = day + delay
            self._rotation_scheduled[store.store_id] = due
            self._pending_rotations.append(
                _PendingRotation(due=due, store=store, reason="seizure")
            )

    def _schedule_proactive_rotations(self, world, day: SimDate) -> None:
        interval = self.spec.proactive_rotation_days
        if interval is None:
            return
        for store in self.stores:
            if store.store_id in self._rotation_scheduled:
                continue
            last = self._last_proactive.get(store.store_id, store.opened_on)
            if day - last >= interval:
                self._rotation_scheduled[store.store_id] = day
                self._pending_rotations.append(
                    _PendingRotation(due=day, store=store, reason="proactive")
                )

    def _execute_due_rotations(self, world, day: SimDate) -> None:
        still_pending: List[_PendingRotation] = []
        for rotation in self._pending_rotations:
            if rotation.due > day:
                still_pending.append(rotation)
                continue
            self._rotate_store(world, rotation.store, day, rotation.reason)
        self._pending_rotations = still_pending

    def _rotate_store(self, world, store: Store, day: SimDate, reason: str) -> None:
        anchor = store.brands[0]
        locale_tag = "" if store.locale == "us" else store.locale
        new_domain = world.register_domain(world.forge.store_domain(anchor, locale_tag), day)
        old_host = store.current_domain.name
        store.rotate_domain(new_domain, day)
        world.web.add_site(store.build_site(day))
        assert self.cnc is not None
        self.cnc.set_landing(store.store_id, f"http://{new_domain.name}/", day)
        self._rotation_scheduled.pop(store.store_id, None)
        self._last_proactive[store.store_id] = day
        world.record_rotation(self, store, old_host, new_domain.name, day, reason)

    def _resign_frozen_processors(self, world, day: SimDate) -> None:
        """React to payment-processor terminations (Section 4.3.2's
        intervention): after a delay, sign with a surviving processor."""
        network = world.payment_network
        for store in self.stores:
            if not network.is_blacklisted(store.processor.name):
                continue
            due = self._resign_scheduled.get(store.store_id)
            if due is None:
                delay = max(2, int(self._rng.expovariate(1.0 / 8.0)))
                self._resign_scheduled[store.store_id] = day + delay
                continue
            if day < due:
                continue
            del self._resign_scheduled[store.store_id]
            replacement = network.reassign(store.store_id, self._streams)
            if replacement is not None:
                store.processor = replacement

    # ------------------------------------------------------------------ #
    # Ground truth accessors (validation/tests only)
    # ------------------------------------------------------------------ #

    def doorway_hosts(self) -> List[str]:
        return [d.host for d in self.doorways]

    def store_hosts(self) -> List[str]:
        hosts: List[str] = []
        for store in self.stores:
            hosts.extend(store.all_hosts())
        return hosts

    def brands_abused(self) -> List[str]:
        return list(self.brand_pool)

    def __repr__(self) -> str:
        return f"Campaign({self.name!r}, doorways={len(self.doorways)}, stores={len(self.stores)})"
