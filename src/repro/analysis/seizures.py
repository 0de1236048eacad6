"""Seizure-intervention analysis: Table 3 and Section 5.3.

All computed from crawl observations: seizure-notice landings give the
court cases, the embedded Schedule A gives the full co-seized domain lists,
and store sightings bracket lifetimes and rotation reactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.util.simtime import SimDate
from repro.util.stats import mean
from repro.crawler.records import PsrDataset
from repro.crawler.serp_crawler import SearchCrawler


@dataclass
class SeizureRow:
    """One row of Table 3 (per brand-protection firm)."""

    firm: str
    cases: int
    brands: int
    #: Total domains listed in those cases' court documents.
    seized_domains: int
    #: Seized store domains directly observed in crawled PSRs.
    observed_stores: int
    #: Of those, stores attributed to a campaign by the classifier.
    classified_stores: int
    #: Distinct campaigns touched by this firm's seizures.
    campaigns: int


def seizure_table(dataset: PsrDataset, crawler: SearchCrawler) -> List[SeizureRow]:
    """Build Table 3 from notice landings plus harvested court documents."""
    firms: Set[str] = {
        r.seizure_firm for r in dataset.records if r.seizure_firm
    }
    rows: List[SeizureRow] = []
    for firm in sorted(firms):
        case_ids = {
            r.seizure_case for r in dataset.records
            if r.seizure_firm == firm and r.seizure_case
        }
        brands = {
            r.seizure_brand for r in dataset.records
            if r.seizure_firm == firm and r.seizure_brand
        }
        # The union of Schedule A lists across this firm's observed cases.
        # Sorted so the lookup order is deterministic: the union itself is
        # order-insensitive today, but this path feeds the seizure table
        # artifact and must not depend on the loop body staying commutative.
        seized_domains: Set[str] = set()
        for case_id in sorted(case_ids):
            notice = crawler.notices.get(case_id)
            if notice is not None:
                seized_domains |= set(notice.co_seized)
        observed = {
            r.landing_host for r in dataset.records
            if r.seizure_firm == firm and r.seizure_case
        }
        # Store attribution: campaign of the same landing host seen *before*
        # the seizure notice replaced it.
        host_campaigns: Dict[str, str] = {}
        for record in dataset.records:
            if record.is_store and record.campaign:
                host_campaigns.setdefault(record.landing_host, record.campaign)
        classified = [h for h in sorted(observed) if h in host_campaigns]
        campaigns = {host_campaigns[h] for h in classified}
        rows.append(
            SeizureRow(
                firm=firm,
                cases=len(case_ids),
                brands=len(brands),
                seized_domains=len(seized_domains),
                observed_stores=len(observed),
                classified_stores=len(classified),
                campaigns=len(campaigns),
            )
        )
    return rows


@dataclass
class StoreLifetimeStats:
    """Seized-store lifetimes (Section 5.3.2's 48-68 day windows)."""

    firm: str
    measured: int
    #: Mean days from first store sighting to last pre-seizure sighting.
    mean_lower_days: float
    #: Mean days from first store sighting to first notice observation.
    mean_upper_days: float


def seized_store_lifetimes(dataset: PsrDataset) -> List[StoreLifetimeStats]:
    """Per firm, bracket how long seized stores monetized traffic before
    the seizure took effect.

    Crawl-blind days (injected SERP outages) extend the *lower* bound:
    a store last seen right before a run of missed crawl days was plausibly
    still up through them, so the last sighting slides forward across the
    contiguous gap (never past the notice observation)."""
    missed = dataset.missed_ordinals()
    first_store_seen: Dict[str, SimDate] = {}
    last_store_seen: Dict[str, SimDate] = {}
    first_notice_seen: Dict[str, Tuple[SimDate, str]] = {}
    for record in dataset.records:
        host = record.landing_host
        if record.seizure_case:
            if host not in first_notice_seen or record.day < first_notice_seen[host][0]:
                first_notice_seen[host] = (record.day, record.seizure_firm or "")
        elif record.is_store:
            if host not in first_store_seen or record.day < first_store_seen[host]:
                first_store_seen[host] = record.day
            if host not in last_store_seen or record.day > last_store_seen[host]:
                last_store_seen[host] = record.day

    by_firm: Dict[str, List[Tuple[int, int]]] = {}
    for host, (notice_day, firm) in first_notice_seen.items():
        start = first_store_seen.get(host)
        if start is None:
            continue
        last_active = last_store_seen.get(host, start)
        last_ordinal = _extend_through_gaps(
            last_active.ordinal, missed, limit=notice_day.ordinal
        )
        lower = max(0, last_ordinal - start.ordinal)
        upper = max(0, notice_day - start)
        by_firm.setdefault(firm, []).append((lower, upper))

    stats: List[StoreLifetimeStats] = []
    for firm in sorted(by_firm):
        bounds = by_firm[firm]
        stats.append(
            StoreLifetimeStats(
                firm=firm,
                measured=len(bounds),
                mean_lower_days=mean([b[0] for b in bounds]),
                mean_upper_days=mean([b[1] for b in bounds]),
            )
        )
    return stats


def _extend_through_gaps(ordinal: int, missed: Set[int], limit: int) -> int:
    """Slide a last-sighting ordinal forward across contiguous missed
    crawl days, stopping strictly before ``limit``."""
    while ordinal + 1 in missed and ordinal + 1 < limit:
        ordinal += 1
    return ordinal


@dataclass
class RotationReactionStats:
    """How campaigns respond to seizures (Section 5.3.2)."""

    firm: str
    seized_stores: int
    redirected_stores: int
    #: Of the redirected, how many of the new domains were seized again.
    reseized_stores: int
    mean_reaction_days: float

    @property
    def redirected_fraction(self) -> float:
        if self.seized_stores == 0:
            return 0.0
        return self.redirected_stores / self.seized_stores


def rotation_reactions(dataset: PsrDataset, orderer=None) -> List[RotationReactionStats]:
    """Measure post-seizure domain agility from crawl data.

    A seized store counts as "redirected" when some doorway that previously
    landed on the seized host later lands on a different store host; the
    reaction time is the gap between the first notice observation and the
    first sighting of the replacement.
    """
    # doorway host -> ordered (day, landing_host, is_store, case, firm).
    by_doorway: Dict[str, List] = {}
    for record in dataset.records:
        by_doorway.setdefault(record.host, []).append(record)
    for records in by_doorway.values():
        records.sort(key=lambda r: r.day.ordinal)

    #: seized landing host -> (first notice day, firm).
    notice_of: Dict[str, Tuple[SimDate, str]] = {}
    for record in dataset.records:
        if record.seizure_case and record.landing_host not in notice_of:
            notice_of[record.landing_host] = (record.day, record.seizure_firm or "")

    redirected: Dict[str, Tuple[str, int, bool]] = {}
    for doorway, records in by_doorway.items():
        for index, record in enumerate(records):
            info = notice_of.get(record.landing_host)
            if info is None or not record.seizure_case:
                continue
            notice_day, firm = info
            for later in records[index + 1:]:
                if later.is_store and later.landing_host != record.landing_host:
                    reaction = later.day - notice_day
                    reseized = later.landing_host in notice_of
                    prior = redirected.get(record.landing_host)
                    if prior is None or reaction < prior[1]:
                        redirected[record.landing_host] = (firm, max(0, reaction), reseized)
                    break

    firms = sorted({firm for _, firm in notice_of.values()})
    stats: List[RotationReactionStats] = []
    for firm in firms:
        seized = [h for h, (_, f) in notice_of.items() if f == firm]
        moved = {h: v for h, v in redirected.items() if v[0] == firm}
        reactions = [v[1] for v in moved.values()]
        stats.append(
            RotationReactionStats(
                firm=firm,
                seized_stores=len(seized),
                redirected_stores=len(moved),
                reseized_stores=sum(1 for v in moved.values() if v[2]),
                mean_reaction_days=mean(reactions) if reactions else 0.0,
            )
        )
    return stats
