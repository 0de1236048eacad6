"""Search-intervention analysis (Section 5.2.2): label coverage, the
root-only policy gap, and doorway lifetimes before labeling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.util.simtime import SimDate
from repro.util.stats import mean
from repro.crawler.records import PsrDataset


@dataclass
class LabelStats:
    total_psrs: int
    labeled_psrs: int
    labeled_hosts: int

    @property
    def coverage(self) -> float:
        """Fraction of PSRs carrying the 'hacked' label (paper: 2.5%)."""
        if self.total_psrs == 0:
            return 0.0
        return self.labeled_psrs / self.total_psrs


def label_coverage(dataset: PsrDataset) -> LabelStats:
    labeled = [r for r in dataset.records if r.label == "hacked"]
    return LabelStats(
        total_psrs=len(dataset),
        labeled_psrs=len(labeled),
        labeled_hosts=len({r.host for r in labeled}),
    )


@dataclass
class RootOnlyGap:
    """How many PSRs escape because only roots are labeled."""

    labeled_results: int
    #: PSRs on labeled hosts that carried no label (the paper's +49%).
    additional_labelable: int

    @property
    def undercount_fraction(self) -> float:
        if self.labeled_results == 0:
            return 0.0
        return self.additional_labelable / self.labeled_results


def root_only_undercount(dataset: PsrDataset) -> RootOnlyGap:
    """Count PSRs sharing a root domain with a labeled result but escaping
    the label themselves (Section 5.2.2's 68,193 vs 102,104)."""
    labeled_hosts: Set[str] = {r.host for r in dataset.records if r.label == "hacked"}
    labeled_results = sum(1 for r in dataset.records if r.label == "hacked")
    additional = sum(
        1
        for r in dataset.records
        if r.label == "none" and r.host in labeled_hosts
    )
    return RootOnlyGap(labeled_results=labeled_results, additional_labelable=additional)


@dataclass
class LabelLifetimes:
    """Doorway lifetimes until labeling, with the paper's two bounds."""

    #: Hosts already labeled the first time the crawler saw them.
    pre_labeled_hosts: int
    measured_hosts: int
    #: Mean of (last unlabeled sighting - first sighting): the lower bound.
    mean_lower_days: float
    #: Mean of (first labeled sighting - first sighting): the upper bound.
    mean_upper_days: float
    per_host_bounds: Dict[str, Tuple[int, int]]


def label_lifetimes(dataset: PsrDataset) -> LabelLifetimes:
    """Reconstruct labeling delays from crawl observations alone.

    The crawler cannot see the exact labeling instant, only the last crawl
    where a host's results were unlabeled and the first where one carried
    the label — hence the paired bounds (the paper reports 13-32 days).
    """
    first_seen: Dict[str, SimDate] = {}
    last_unlabeled: Dict[str, SimDate] = {}
    first_labeled: Dict[str, SimDate] = {}
    for record in dataset.records:
        host = record.host
        if host not in first_seen or record.day < first_seen[host]:
            first_seen[host] = record.day
        if record.label == "hacked":
            if host not in first_labeled or record.day < first_labeled[host]:
                first_labeled[host] = record.day
        else:
            if host not in last_unlabeled or record.day > last_unlabeled[host]:
                last_unlabeled[host] = record.day

    pre_labeled = 0
    bounds: Dict[str, Tuple[int, int]] = {}
    for host, labeled_day in first_labeled.items():
        start = first_seen[host]
        if labeled_day == start:
            pre_labeled += 1
            continue
        unlabeled_before = last_unlabeled.get(host)
        if unlabeled_before is None or unlabeled_before > labeled_day:
            # Label observed before any clean sighting within the series.
            lower = 0
        else:
            lower = unlabeled_before - start
        upper = labeled_day - start
        bounds[host] = (lower, upper)

    lowers = [b[0] for b in bounds.values()]
    uppers = [b[1] for b in bounds.values()]
    return LabelLifetimes(
        pre_labeled_hosts=pre_labeled,
        measured_hosts=len(bounds),
        mean_lower_days=mean(lowers) if lowers else 0.0,
        mean_upper_days=mean(uppers) if uppers else 0.0,
        per_host_bounds=bounds,
    )
