"""The crawler's output: PSR records, crawl coverage, and a page archive.

A :class:`PsrRecord` is one poisoned search result observed on one crawl
day — the unit behind every count in Tables 1-3 and every series in
Figures 2-6.  :class:`PsrDataset` aggregates records with the query helpers
the analysis layer needs, and serializes to JSON lines.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.util.atomicio import atomic_write
from repro.util.simtime import SimDate


@dataclass
class PsrRecord:
    """One poisoned search result on one crawl day."""

    __slots__ = (
        "day", "vertical", "term", "rank", "url", "host", "path", "label",
        "mechanism", "landing_url", "landing_host", "is_store",
        "seizure_case", "seizure_firm", "seizure_brand", "campaign",
    )

    day: SimDate
    vertical: str
    term: str
    rank: int
    url: str
    host: str
    path: str
    #: 'none' | 'hacked' | 'malware' (the SERP warning label).
    label: str
    #: 'redirect' | 'content' | 'iframe'.
    mechanism: str
    landing_url: str
    landing_host: str
    is_store: bool
    #: Set when the landing page was a seizure notice.
    seizure_case: Optional[str]
    seizure_firm: Optional[str]
    seizure_brand: Optional[str]
    #: Filled in by the campaign classifier ('' = unclassified).
    campaign: str

    @property
    def in_top10(self) -> bool:
        return self.rank <= 10

    @property
    def penalized(self) -> bool:
        """Penalized via search (label) or seizure (notice landing)."""
        return self.label != "none" or self.seizure_case is not None

    def to_json(self) -> str:
        payload = {name: getattr(self, name) for name in self.__slots__}
        payload["day"] = self.day.isoformat()
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "PsrRecord":
        payload = json.loads(line)
        payload["day"] = SimDate(payload["day"])
        return cls(**payload)


@dataclass
class SerpCoverage:
    """Result-slot denominators for one (day, vertical)."""

    slots_top100: int = 0
    slots_top10: int = 0
    terms_crawled: int = 0
    #: Terms whose SERP was lost that day (blocked crawl, missing page) —
    #: distinguishes unobserved from observed-and-empty.
    terms_missed: int = 0


class PsrDataset:
    """All PSR records plus crawl coverage."""

    def __init__(self):
        self.records: List[PsrRecord] = []
        #: (day_ordinal, vertical) -> coverage.
        self._coverage: Dict[Tuple[int, str], SerpCoverage] = {}
        self._first_seen_host: Dict[str, SimDate] = {}
        self._last_seen_host: Dict[str, SimDate] = {}
        #: Crawl-day ordinals with at least one missed SERP (empty in
        #: clean runs, so gap tolerance is a strict no-op without faults).
        self._missed_ordinals: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #

    def add(self, record: PsrRecord) -> None:
        self.records.append(record)
        if record.host not in self._first_seen_host:
            self._first_seen_host[record.host] = record.day
        self._last_seen_host[record.host] = record.day

    def note_serp(self, day: SimDate, vertical: str, result_count: int) -> None:
        key = (day.ordinal, vertical)
        coverage = self._coverage.setdefault(key, SerpCoverage())
        coverage.slots_top100 += result_count
        coverage.slots_top10 += min(10, result_count)
        coverage.terms_crawled += 1

    def note_missed_serp(self, day: SimDate, vertical: str, term: str) -> None:
        """Record that (term, day)'s SERP could not be crawled.

        Gap-tolerant analyses (peak duration, seized-store lifetimes)
        read :meth:`missed_ordinals` to bridge these days instead of
        treating absence of records as absence of activity."""
        key = (day.ordinal, vertical)
        coverage = self._coverage.setdefault(key, SerpCoverage())
        coverage.terms_missed += 1
        self._missed_ordinals.add(day.ordinal)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[PsrRecord]:
        return iter(self.records)

    def verticals(self) -> List[str]:
        return sorted({r.vertical for r in self.records})

    def crawl_days(self) -> List[SimDate]:
        ordinals = sorted({day for day, _ in self._coverage})
        return [SimDate(o) for o in ordinals]

    def doorway_hosts(self, vertical: Optional[str] = None) -> Set[str]:
        return {
            r.host for r in self.records if vertical is None or r.vertical == vertical
        }

    def store_hosts(self, vertical: Optional[str] = None) -> Set[str]:
        return {
            r.landing_host
            for r in self.records
            if r.is_store and (vertical is None or r.vertical == vertical)
        }

    def coverage(self, day: SimDate, vertical: str) -> Optional[SerpCoverage]:
        return self._coverage.get((day.ordinal, vertical))

    def missed_ordinals(self) -> Set[int]:
        """Crawl-day ordinals where at least one SERP went unobserved."""
        return set(self._missed_ordinals)

    def psr_fraction(self, day: SimDate, vertical: str, topk: int = 100) -> float:
        """Fraction of crawled result slots that were poisoned."""
        coverage = self._coverage.get((day.ordinal, vertical))
        if coverage is None:
            return 0.0
        slots = coverage.slots_top10 if topk <= 10 else coverage.slots_top100
        if slots == 0:
            return 0.0
        hits = sum(
            1
            for r in self.records
            if r.day == day and r.vertical == vertical and r.rank <= topk
        )
        return hits / slots

    def daily_counts(
        self,
        vertical: Optional[str] = None,
        campaign: Optional[str] = None,
        topk: int = 100,
    ) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for r in self.records:
            if vertical is not None and r.vertical != vertical:
                continue
            if campaign is not None and r.campaign != campaign:
                continue
            if r.rank > topk:
                continue
            counts[r.day.ordinal] = counts.get(r.day.ordinal, 0) + 1
        return counts

    def host_count(self) -> int:
        """Distinct doorway hosts ever recorded (O(1), metrics sampling)."""
        return len(self._first_seen_host)

    def host_first_seen(self, host: str) -> Optional[SimDate]:
        return self._first_seen_host.get(host)

    def host_last_seen(self, host: str) -> Optional[SimDate]:
        return self._last_seen_host.get(host)

    def records_for_campaign(self, campaign: str) -> List[PsrRecord]:
        return [r for r in self.records if r.campaign == campaign]

    def campaigns(self) -> List[str]:
        return sorted({r.campaign for r in self.records if r.campaign})

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def dump_jsonl(self, path: str) -> None:
        """One record per line and nothing else: run provenance goes to
        ``manifest.json``.  Written atomically: a kill mid-dump leaves the
        previous file."""
        with atomic_write(path) as handle:
            for record in self.records:
                handle.write(record.to_json())
                handle.write("\n")

    @classmethod
    def load_jsonl(cls, path: str) -> "PsrDataset":
        """Load a PSR dump, tolerating a torn final line.

        Only the *last* line may be unparseable (a writer killed
        mid-append under a non-atomic writer); it is skipped with a
        warning.  Corruption anywhere else still raises.  A leading
        ``{"_type": "manifest", ...}`` row, which files written by earlier
        versions carry, is skipped."""
        dataset = cls()
        with open(path) as handle:
            lines = handle.read().splitlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            if line.startswith('{"_type"'):
                continue
            try:
                dataset.add(PsrRecord.from_json(line))
            except (json.JSONDecodeError, KeyError, TypeError):
                if index == len(lines) - 1:
                    warnings.warn(
                        f"{path}: skipping torn final line ({len(line)} bytes)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    break
                raise
        return dataset


class PageArchive:
    """Crawled HTML, deduplicated by host, for the classifier.

    ``doorways`` hold the crawler-view (keyword-stuffed) HTML; ``stores``
    hold landing-page HTML.  Rotated store domains appear as new hosts.
    """

    def __init__(self):
        self.doorways: Dict[str, str] = {}
        self.stores: Dict[str, str] = {}

    def add_doorway(self, host: str, html: str) -> None:
        self.doorways.setdefault(host, html)

    def add_store(self, host: str, html: str) -> None:
        self.stores.setdefault(host, html)

    def __len__(self) -> int:
        return len(self.doorways) + len(self.stores)
