"""The purchase-pair order-volume estimator (Section 4.3.1).

Stores hand out monotonically increasing order numbers at checkout, before
payment clears.  Creating a test order at two points in time therefore
bounds the number of orders created in between.  The paper created 1,408
test orders on 290 stores at weekly intervals, capped at three orders per
day per campaign to stay under the radar.

:class:`TestOrderer` runs as a simulator observer: it discovers stores from
the measurement crawler's archive, walks each tracked store's checkout flow
weekly, parses the order number off the payment page, and — when a tracked
domain dies (seizure or rotation) — re-resolves the store through one of
its doorways, exactly the way a returning "customer" would.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.trace import TRACER
from repro.util.simtime import SimDate
from repro.util.stats import cumulative_to_rates, linear_interpolate
from repro.web.fetch import SEARCH_USER
from repro.web.urls import parse_url
from repro.crawler.vangogh import VanGogh
from repro.interventions.notices import parse_notice_page
from repro.orders.fakenames import FakeIdentity, FakeIdentityGenerator
from repro.util.rng import RandomStreams

_ORDER_NUMBER_RE = re.compile(r"Order Number:\s*(\d+)")


@dataclass(frozen=True)
class OrderSample:
    day: SimDate
    order_number: int


@dataclass
class OrderPolicy:
    """Operational limits on test ordering."""

    sample_interval_days: int = 7
    max_orders_per_day_per_campaign: int = 3
    max_tracked_stores: int = 300


@dataclass
class TrackedStore:
    """One store the orderer samples over time."""

    key: str  # first landing host observed = stable identity
    current_host: str
    doorway_url: str  # used to re-resolve after rotations/seizures
    mechanism: str
    campaign_hint: str = ""
    samples: List[OrderSample] = field(default_factory=list)
    next_sample_day: Optional[SimDate] = None
    dead: bool = False
    hosts_seen: List[str] = field(default_factory=list)


class OrderVolumeSeries:
    """Analysis view over one store's samples."""

    def __init__(self, samples: List[OrderSample]):
        self.samples = sorted(samples, key=lambda s: s.day.ordinal)

    def __len__(self) -> int:
        return len(self.samples)

    def total_orders_created(self) -> int:
        """Upper bound on orders created across the sampled span."""
        if len(self.samples) < 2:
            return 0
        return self.samples[-1].order_number - self.samples[0].order_number

    def volume_curve(self) -> List[Tuple[int, int]]:
        """(day_ordinal, cumulative order number) points."""
        return [(s.day.ordinal, s.order_number) for s in self.samples]

    def daily_rates(self) -> Dict[int, float]:
        """Estimated orders/day for each day between samples."""
        return cumulative_to_rates(
            [(s.day.ordinal, float(s.order_number)) for s in self.samples]
        )

    def rate_histogram(self, bin_days: int = 7) -> List[Tuple[int, float]]:
        """(bin start ordinal, mean orders/day) tuples."""
        rates = self.daily_rates()
        if not rates:
            return []
        start = min(rates)
        end = max(rates)
        bins: List[Tuple[int, float]] = []
        cursor = start
        while cursor <= end:
            window = [rates[d] for d in range(cursor, min(cursor + bin_days, end + 1)) if d in rates]
            if window:
                bins.append((cursor, sum(window) / len(window)))
            cursor += bin_days
        return bins

    def peak_daily_rate(self) -> float:
        rates = self.daily_rates()
        return max(rates.values()) if rates else 0.0

    def interpolated_volume(self, day_ordinals: List[int]) -> List[float]:
        return linear_interpolate(
            [(s.day.ordinal, float(s.order_number)) for s in self.samples], day_ordinals
        )


def _host_as_group(host: str) -> str:
    """Default order-cap grouping: each store host is its own group.

    Module-level (not a lambda) so a checkpointed orderer pickles."""
    return host


class TestOrderer:
    """Simulator observer creating weekly test orders on discovered stores."""

    def __init__(
        self,
        web,
        crawler,
        policy: Optional[OrderPolicy] = None,
        campaign_of_host: Optional[Callable[[str], str]] = None,
    ):
        self.web = web
        self.crawler = crawler
        self.policy = policy or OrderPolicy()
        #: Groups stores for the 3-orders/day cap; defaults to per-store.
        self.campaign_of_host = campaign_of_host or _host_as_group
        self.tracked: Dict[str, TrackedStore] = {}
        self._host_to_key: Dict[str, str] = {}
        self._vangogh = VanGogh(web)
        self.total_orders_created = 0
        self._discovery_cursor = 0
        #: Fictional customer identities, one per test order (Section 4.3.1).
        self._identities = FakeIdentityGenerator(RandomStreams(0x0FDE).child("orders"))
        self.identities_used: List[FakeIdentity] = []

    # ------------------------------------------------------------------ #
    # Observer interface
    # ------------------------------------------------------------------ #

    def on_day(self, world, context) -> None:
        day = context.day
        with TRACER.span("orders", sim_day=day.isoformat()):
            self._discover_new_stores(day)
            orders_today: Dict[str, int] = {}
            for tracked in self.tracked.values():
                if tracked.dead or tracked.next_sample_day is None:
                    continue
                if day < tracked.next_sample_day:
                    continue
                group = self.campaign_of_host(tracked.key)
                if orders_today.get(group, 0) >= self.policy.max_orders_per_day_per_campaign:
                    # Defer to tomorrow; the cap is per calendar day.
                    tracked.next_sample_day = day + 1
                    continue
                if self._sample(tracked, day):
                    orders_today[group] = orders_today.get(group, 0) + 1
                tracked.next_sample_day = day + self.policy.sample_interval_days

    # ------------------------------------------------------------------ #

    def _discover_new_stores(self, day: SimDate) -> None:
        records = self.crawler.dataset.records
        new_records = records[self._discovery_cursor:]
        self._discovery_cursor = len(records)
        if len(self.tracked) >= self.policy.max_tracked_stores:
            return
        for record in new_records:
            if not record.is_store:
                continue
            host = record.landing_host
            if host in self._host_to_key:
                continue
            if len(self.tracked) >= self.policy.max_tracked_stores:
                break
            # Stagger first samples so not everything fires the same day.
            tracked = TrackedStore(
                key=host,
                current_host=host,
                doorway_url=record.url,
                mechanism=record.mechanism,
                campaign_hint=record.campaign,
                next_sample_day=day + (len(self.tracked) % self.policy.sample_interval_days),
                hosts_seen=[host],
            )
            self.tracked[host] = tracked
            self._host_to_key[host] = host

    def _sample(self, tracked: TrackedStore, day: SimDate) -> bool:
        number = self._checkout_order_number(tracked.current_host, day)
        if number is None:
            if not self._reresolve(tracked, day):
                return False
            number = self._checkout_order_number(tracked.current_host, day)
            if number is None:
                return False
        # Order numbers are monotone per store; a lower number means the
        # doorway now forwards to a *different* store — stop the series
        # rather than corrupt it.
        if tracked.samples and number < tracked.samples[-1].order_number:
            tracked.dead = True
            return False
        tracked.samples.append(OrderSample(day=day, order_number=number))
        self.identities_used.append(self._identities.identity())
        self.total_orders_created += 1
        return True

    def _checkout_order_number(self, host: str, day: SimDate) -> Optional[int]:
        response = self.web.fetch(f"http://{host}/checkout/confirm", SEARCH_USER, day)
        if not response.ok:
            return None
        if parse_notice_page(response.html) is not None:
            return None
        match = _ORDER_NUMBER_RE.search(response.html)
        if match is None:
            return None
        return int(match.group(1))

    def _reresolve(self, tracked: TrackedStore, day: SimDate) -> bool:
        """Follow the store's doorway again to find its new domain."""
        if tracked.mechanism == "iframe":
            result = self._vangogh.check(tracked.doorway_url, day)
            landing = result.landing_response
        else:
            landing = self.web.fetch(tracked.doorway_url, SEARCH_USER, day)
        if landing is None or not landing.ok:
            return False
        if parse_notice_page(landing.html) is not None:
            return False
        new_host = parse_url(landing.final_url).host
        if new_host == tracked.current_host:
            return False
        tracked.current_host = new_host
        tracked.hosts_seen.append(new_host)
        self._host_to_key[new_host] = tracked.key
        return True

    # ------------------------------------------------------------------ #
    # Analysis accessors
    # ------------------------------------------------------------------ #

    def series_for(self, key: str) -> OrderVolumeSeries:
        tracked = self.tracked.get(key)
        if tracked is None:
            raise KeyError(f"not tracking store {key!r}")
        return OrderVolumeSeries(tracked.samples)

    def tracked_with_samples(self, minimum: int = 2) -> List[TrackedStore]:
        return [t for t in self.tracked.values() if len(t.samples) >= minimum]
