"""Shared simulation state: the ``world`` object handed to every actor.

Campaigns, intervention teams, and the simulator's traffic pass all operate
on this; it owns the ground-truth registries (doorway->campaign,
store->campaign, store sightings) used for traffic accounting, seizure
discovery, and validation tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.util.rng import RandomStreams
from repro.util.simtime import DateRange, SimDate
from repro.web.domains import Domain
from repro.web.hosting import Web
from repro.web.naming import NameForge
from repro.web.sites import Site
from repro.search.engine import SearchEngine
from repro.search.index import SearchIndex
from repro.search.query import QueryVolumeModel, Vertical
from repro.market.brands import BrandCatalog
from repro.market.payments import PaymentNetwork
from repro.market.stores import Store
from repro.market.supplier import Supplier


@dataclass
class StoreSighting:
    """A storefront host observed receiving search traffic for a brand."""

    host: str
    store_id: str
    brand: str
    first_seen: SimDate
    last_seen: SimDate


class World:
    """All shared simulation state."""

    def __init__(
        self,
        streams: RandomStreams,
        window: DateRange,
        web: Web,
        index: SearchIndex,
        engine: SearchEngine,
        verticals: Dict[str, Vertical],
        brand_catalog: BrandCatalog,
        payment_network: PaymentNetwork,
        query_volume: QueryVolumeModel,
        events,
    ):
        self.streams = streams
        self.window = window
        self.web = web
        self.index = index
        self.engine = engine
        self.verticals = verticals
        self.brand_catalog = brand_catalog
        self.payment_network = payment_network
        self.query_volume = query_volume
        self.events = events
        self.forge = NameForge(streams, web.domains)
        self.today: SimDate = window.start
        self.suppliers: List[Supplier] = []
        self._campaigns: Dict[str, object] = {}
        self._compromise_pool: List[Site] = []
        #: host -> (campaign, doorway); includes every doorway ever created.
        self._doorway_by_host: Dict[str, Tuple[object, object]] = {}
        #: doorway host -> landing Store.
        self._landing_by_host: Dict[str, Store] = {}
        #: store host -> Store (all tenures).
        self._store_by_host: Dict[str, Store] = {}
        self._stores: Dict[str, Store] = {}
        self._store_campaign: Dict[str, str] = {}
        #: (brand -> host -> StoreSighting)
        self._sightings: Dict[str, Dict[str, StoreSighting]] = {}

    # ------------------------------------------------------------------ #
    # Registration / ground-truth tracking
    # ------------------------------------------------------------------ #

    def register_domain(self, name: str, day: SimDate) -> Domain:
        return self.web.domains.register(name, day)

    def set_compromise_pool(self, sites: List[Site]) -> None:
        self._compromise_pool = list(sites)

    def take_compromise_target(self) -> Optional[Site]:
        if not self._compromise_pool:
            return None
        return self._compromise_pool.pop()

    def compromise_pool_remaining(self) -> int:
        return len(self._compromise_pool)

    def add_campaign(self, campaign) -> None:
        self._campaigns[campaign.name] = campaign

    def campaigns(self) -> List[object]:
        return list(self._campaigns.values())

    def campaign_by_name(self, name: str):
        return self._campaigns.get(name)

    def track_store(self, campaign, store: Store) -> None:
        self._stores[store.store_id] = store
        self._store_campaign[store.store_id] = campaign.name
        self._store_by_host[store.current_domain.name] = store

    def track_store_host(self, store: Store, host: str) -> None:
        """Register an additional (rotated-to) host for a store."""
        self._store_by_host[host] = store

    def track_doorway(self, campaign, doorway, landing_store: Optional[Store] = None) -> None:
        self._doorway_by_host[doorway.host] = (campaign, doorway)
        if landing_store is not None:
            self._landing_by_host[doorway.host] = landing_store

    def doorway_at(self, host: str) -> Optional[Tuple[object, object]]:
        return self._doorway_by_host.get(host)

    def landing_store_of(self, doorway_host: str) -> Optional[Store]:
        return self._landing_by_host.get(doorway_host)

    def store_at(self, host: str) -> Optional[Store]:
        return self._store_by_host.get(host)

    def store_by_id(self, store_id: str) -> Optional[Store]:
        return self._stores.get(store_id)

    def stores(self) -> List[Store]:
        return list(self._stores.values())

    def campaign_of_store(self, store_id: str) -> Optional[str]:
        return self._store_campaign.get(store_id)

    def active_doorways(self) -> Iterator[Tuple[object, object]]:
        return iter(self._doorway_by_host.values())

    # ------------------------------------------------------------------ #
    # Sightings (what brand investigators can observe)
    # ------------------------------------------------------------------ #

    def note_store_sighting(self, store: Store, day: SimDate) -> None:
        host = store.host_on(day) or store.current_domain.name
        for brand in store.brands:
            per_brand = self._sightings.setdefault(brand, {})
            sighting = per_brand.get(host)
            if sighting is None:
                per_brand[host] = StoreSighting(
                    host=host, store_id=store.store_id, brand=brand,
                    first_seen=day, last_seen=day,
                )
            else:
                sighting.last_seen = day

    def store_sightings(self, brand: str) -> List[StoreSighting]:
        return list(self._sightings.get(brand, {}).values())

    # ------------------------------------------------------------------ #
    # Event recording hooks (called by actors)
    # ------------------------------------------------------------------ #

    def record_rotation(self, campaign, store: Store, old_host: str, new_host: str,
                        day: SimDate, reason: str) -> None:
        self.track_store_host(store, new_host)
        self.events.record(
            self.events.ROTATION, day,
            campaign=campaign.name, store_id=store.store_id,
            old_host=old_host, new_host=new_host, reason=reason,
        )

    def record_demotion(self, campaign_name: str, day: SimDate, amount: float) -> None:
        self.events.record(self.events.DEMOTION, day, campaign=campaign_name, amount=amount)

    def record_seizure_case(self, firm, case, seized_hosts: List[str], day: SimDate) -> None:
        self.events.record(
            self.events.SEIZURE_CASE, day,
            firm=firm.name, case_id=case.case_id, brand=case.brand,
            domains=list(case.domains), seized=list(seized_hosts),
        )
