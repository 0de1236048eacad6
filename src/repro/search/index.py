"""The search index: per-term candidate sets.

Each term maps to the entries eligible to rank for it.  An entry carries the
engine-visible signals: the hosting site's authority, the page's topical
relevance to the term, and the observed off-page SEO signal (backlink-farm
strength).  The SEO signal is supplied by a callable so campaign effort
schedules can vary it over time without daily index rewrites.

Serving is columnar: :meth:`SearchIndex.columns` materializes a term's
candidates into contiguous NumPy arrays (:class:`TermColumns`) that the
engine scores in bulk.  Columns are cached per term and grow in place: an
:meth:`~SearchIndex.add` only appends to the term's candidate list, and
the next :meth:`~SearchIndex.columns` call appends what arrived since.  A
:meth:`~SearchIndex.remove_host` drops the cached columns of every term it
touches, so a deindexed — or worse, a recycled — entry is never served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.simtime import SimDate
from repro.web.sites import Site

#: Time-varying SEO signal: day -> strength in [0, inf).
SeoSignal = Callable[[object], float]

#: ``indexed_on`` ordinal stand-in for "always eligible" (predates any day).
ALWAYS_INDEXED = -(2**62)

_NO_POSITIONS = np.empty(0, dtype=np.intp)
_NO_QUALITIES = np.empty(0, dtype=np.float64)


def no_seo_signal(day) -> float:
    return 0.0


@dataclass
class IndexedEntry:
    """One (page, term) candidate in the index."""

    url: str
    host: str
    path: str
    site: Site
    relevance: float
    seo_signal: SeoSignal = no_seo_signal
    #: Day the entry entered the index; entries do not rank before this.
    indexed_on: object = None
    #: How much of the host's authority this page inherits.  Search engines
    #: partially discount deep pages injected into hacked hosts, which is
    #: why doorways interleave with (rather than dominate) legitimate
    #: results.
    authority_factor: float = 1.0
    #: Stable per-index identity, assigned once by :meth:`SearchIndex.add`.
    #: Unlike ``id()`` it is never recycled, so removal sets keyed on it
    #: cannot alias a dead entry to a newly allocated one.
    entry_key: Optional[int] = None

    @property
    def authority(self) -> float:
        return self.site.authority * self.authority_factor

    def __repr__(self) -> str:
        return f"IndexedEntry({self.url!r}, rel={self.relevance:.2f})"


class TermColumns:
    """Columnar view of one term's candidates, in candidate order.

    Arrays are parallel to :attr:`entries`; the engine combines them into
    scores without touching the entry objects until results are built.
    Columns only ever grow in place (:meth:`extend`); a removal builds new
    ones.  After an ``extend`` every field equals, element for element,
    what a fresh build over all the entries would hold.
    """

    __slots__ = (
        "entries",
        "authority",
        "relevance",
        "indexed_ord",
        "max_indexed_ord",
        "hosts",
        "urls",
        "paths",
        "host_codes",
        "host_counts",
        "max_host_count",
        "seo_groups",
        "seo_positions",
        "seo_signals",
        "_groups",
    )

    def __init__(self, entries: Sequence[IndexedEntry]):
        self.entries: Tuple[IndexedEntry, ...] = ()
        self.hosts: Tuple[str, ...] = ()
        self.urls: Tuple[str, ...] = ()
        self.paths: Tuple[str, ...] = ()
        self.authority = np.empty(0, dtype=np.float64)
        self.relevance = np.empty(0, dtype=np.float64)
        self.indexed_ord = np.empty(0, dtype=np.int64)
        self.max_indexed_ord = ALWAYS_INDEXED
        #: Hosts as dense integer codes (in first-seen order) so the
        #: engine's per-host result cap can be applied with array ops;
        #: ``max_host_count`` lets it skip cap handling entirely for terms
        #: where no host can exceed it.
        self.host_codes = np.empty(0, dtype=np.intp)
        self.host_counts = np.empty(0, dtype=np.intp)
        self.max_host_count = 0
        #: group key -> index into ``seo_groups``.
        self._groups: Dict[str, int] = {}
        self.seo_groups: Tuple[Tuple[Callable, np.ndarray, np.ndarray], ...] = ()
        self.seo_positions = np.empty(0, dtype=np.intp)
        self.seo_signals: Tuple[SeoSignal, ...] = ()
        self.extend(entries)

    def extend(self, new: Sequence[IndexedEntry]) -> None:
        """Append ``new`` to the columns, in order."""
        k = len(new)
        if k == 0:
            return
        start = len(self.entries)
        self.entries += tuple(new)
        self.hosts += tuple(e.host for e in new)
        self.urls += tuple(e.url for e in new)
        self.paths += tuple(e.path for e in new)
        self.authority = np.concatenate((self.authority, np.fromiter(
            (e.site.authority * e.authority_factor for e in new),
            dtype=np.float64, count=k,
        )))
        self.relevance = np.concatenate((self.relevance, np.fromiter(
            (e.relevance for e in new), dtype=np.float64, count=k,
        )))
        indexed = np.fromiter(
            (
                ALWAYS_INDEXED if e.indexed_on is None else SimDate(e.indexed_on).ordinal
                for e in new
            ),
            dtype=np.int64, count=k,
        )
        self.indexed_ord = np.concatenate((self.indexed_ord, indexed))
        self.max_indexed_ord = max(self.max_indexed_ord, int(indexed.max()))
        # Codes are re-derived from every host rather than kept in a
        # per-term dict: one pass over the host strings is cheap, and the
        # dict would be held for the whole run.
        codes: Dict[str, int] = {}
        self.host_codes = np.fromiter(
            (codes.setdefault(h, len(codes)) for h in self.hosts),
            dtype=np.intp, count=len(self.hosts),
        )
        counts = np.bincount(self.host_codes)
        self.host_counts = counts[self.host_codes]
        self.max_host_count = int(counts.max())
        self._extend_signals(new, start)

    def _extend_signals(self, new: Sequence[IndexedEntry], start: int) -> None:
        """Signals that expose (schedule, quality) structure — every page
        of a (campaign, vertical) shares one schedule — are grouped so
        serving evaluates each schedule once and broadcasts over the
        member qualities; opaque signal callables, and schedules without
        a stable ``group_key``, stay on the per-entry fallback path
        (``seo_positions``/``seo_signals``).  Grouping is keyed by the
        schedule's ``group_key`` — never ``id()``, which CPython recycles
        across allocations: a new schedule at a dead one's address would
        be scored with the dead one's level.

        Groups keep first-seen entry order, and a group's members stay in
        entry order, so appending gives the groups a fresh build would."""
        grown: Dict[int, Tuple[List[int], List[float]]] = {}
        generic_pos: List[int] = []
        generic_sig: List[SeoSignal] = []
        groups = list(self.seo_groups)
        for i, e in enumerate(new, start):
            sig = e.seo_signal
            if sig is no_seo_signal:
                continue
            schedule = getattr(sig, "schedule", None)
            quality = getattr(sig, "quality", None)
            group_key = getattr(schedule, "group_key", None)
            if schedule is not None and quality is not None and group_key is not None:
                slot = self._groups.get(group_key)
                if slot is None:
                    slot = self._groups[group_key] = len(groups)
                    groups.append((schedule.level, _NO_POSITIONS, _NO_QUALITIES))
                members = grown.get(slot)
                if members is None:
                    grown[slot] = members = ([], [])
                members[0].append(i)
                members[1].append(quality)
            else:
                generic_pos.append(i)
                generic_sig.append(sig)
        for slot, (pos, q) in grown.items():
            level, positions, qualities = groups[slot]
            groups[slot] = (
                level,
                np.concatenate((positions, np.asarray(pos, dtype=np.intp))),
                np.concatenate((qualities, np.asarray(q, dtype=np.float64))),
            )
        self.seo_groups = tuple(groups)
        if generic_pos:
            self.seo_positions = np.concatenate(
                (self.seo_positions, np.asarray(generic_pos, dtype=np.intp))
            )
            self.seo_signals += tuple(generic_sig)

    def __len__(self) -> int:
        return len(self.entries)


class SearchIndex:
    """Candidate sets per term, with deindexing support."""

    def __init__(self):
        self._by_term: Dict[str, List[IndexedEntry]] = {}
        self._by_host: Dict[str, List[IndexedEntry]] = {}
        #: term -> columns over a prefix of ``_by_term[term]``: adds only
        #: append to that list, and a removal drops the term's columns.
        self._columns: Dict[str, TermColumns] = {}
        #: Monotonic source of :attr:`IndexedEntry.entry_key` values; never
        #: reused, unlike ``id()``.
        self._next_entry_key = 0

    def add(self, term: str, entry: IndexedEntry) -> IndexedEntry:
        if entry.entry_key is None:
            entry.entry_key = self._next_entry_key
            self._next_entry_key += 1
        self._by_term.setdefault(term, []).append(entry)
        self._by_host.setdefault(entry.host, []).append(entry)
        return entry

    def add_page(
        self,
        term: str,
        site: Site,
        path: str,
        relevance: float,
        seo_signal: SeoSignal = no_seo_signal,
        indexed_on=None,
        authority_factor: float = 1.0,
    ) -> IndexedEntry:
        entry = IndexedEntry(
            url=site.url(path),
            host=site.host,
            path=path,
            site=site,
            relevance=relevance,
            seo_signal=seo_signal,
            indexed_on=indexed_on,
            authority_factor=authority_factor,
        )
        return self.add(term, entry)

    def candidates(self, term: str) -> List[IndexedEntry]:
        return self._by_term.get(term, [])

    def columns(self, term: str) -> TermColumns:
        """The term's candidates as contiguous arrays.  Cached per term:
        candidates added since the last call are appended in place, and
        after a removal the term's columns are built afresh."""
        entries = self._by_term.get(term, [])
        columns = self._columns.get(term)
        if columns is None:
            columns = self._columns[term] = TermColumns(entries)
        elif len(columns) < len(entries):
            columns.extend(entries[len(columns):])
        return columns

    def terms(self) -> List[str]:
        return sorted(self._by_term)

    def entries_for_host(self, host: str) -> List[IndexedEntry]:
        return self._by_host.get(host, [])

    def remove_host(self, host: str) -> int:
        """Deindex every entry on a host (full removal from the index,
        the stronger of the two search penalties).  Returns count removed."""
        removed = self._by_host.pop(host, [])
        if removed:
            doomed = {e.entry_key for e in removed}
            for term, entries in self._by_term.items():
                kept = [e for e in entries if e.entry_key not in doomed]
                if len(kept) != len(entries):
                    self._by_term[term] = kept
                    self._columns.pop(term, None)
        return len(removed)

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._by_term.values())

    def __getstate__(self) -> dict:
        # Columns derive from the candidate lists; the first serve after a
        # load rebuilds them, so checkpoints need not carry them.
        state = self.__dict__.copy()
        del state["_columns"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._columns = {}
