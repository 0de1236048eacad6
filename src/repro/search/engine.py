"""The search engine: SERP serving plus the search-side intervention levers.

Interventions (Section 3.2.1):

* **Demotion** — a per-host score penalty applied from a given day; strong
  penalties push every page on the host out of the top 100.
* **Deindexing** — full removal from the index.
* **"Hacked" label** — attached only to the *root* result of a labeled host
  by default (the policy limitation Section 5.2.2 quantifies); the
  ``label_root_only`` flag exists so ablations can lift the restriction.
* **Malware label** — interstitial, modeled as a near-zero click multiplier.

Serving is columnar (the simulator calls :meth:`SearchEngine.serp` once per
(term, day), making it the hot path of every study run): per-term candidate
arrays come from :meth:`SearchIndex.columns`, static scores and penalty
columns are cached against the index's per-term version counter and a
penalty epoch respectively, noise is drawn in one batch from the same
seeded stream the scalar loop used, and top-k selection runs through
``np.argpartition`` with a full-sort fallback when the host-clustering cap
exhausts the partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.util.perf import PERF
from repro.util.rng import RandomStreams
from repro.util.simtime import SimDate
from repro.search.index import SearchIndex, TermColumns
from repro.search.ranking import NoiseSource, RankingModel
from repro.search.serp import ResultLabel, SearchResult, Serp

_SERP_TIMER = PERF.handle("engine.serp")

#: ``since`` ordinal larger than any real day: "never takes effect".
_NEVER = 2**62


@dataclass
class HostPenalty:
    since: SimDate
    amount: float


@dataclass
class HostLabel:
    since: SimDate
    label: ResultLabel


class SearchEngine:
    """Serves top-k organic results for (term, day) queries."""

    def __init__(
        self,
        index: SearchIndex,
        streams: RandomStreams,
        ranking: Optional[RankingModel] = None,
        serp_size: int = 100,
        label_root_only: bool = True,
        max_results_per_host: int = 2,
    ):
        self.index = index
        self.ranking = ranking if ranking is not None else RankingModel()
        self.serp_size = serp_size
        self.label_root_only = label_root_only
        #: Host-clustering cap, like Google's same-domain result limit.
        self.max_results_per_host = max_results_per_host
        self._noise = NoiseSource(streams, self.ranking.noise_sigma)
        self._penalties: Dict[str, HostPenalty] = {}
        self._labels: Dict[str, HostLabel] = {}
        #: Bumped whenever the penalty/label maps change; per-term penalty
        #: and label columns are rebuilt lazily when their epoch falls
        #: behind.
        self._penalty_epoch = 0
        self._labels_epoch = 0
        #: term -> (columns-object, static-score array).  Keyed by the
        #: TermColumns *identity*, which the index replaces on every term
        #: mutation — so stale statics (including id()-recycled entries
        #: after a deindex/re-add cycle) can never be served.
        self._static_cache: Dict[str, Tuple[TermColumns, np.ndarray]] = {}
        #: term -> (columns, epoch, penalized positions, amounts, since-ords).
        self._penalty_cache: Dict[
            str, Tuple[TermColumns, int, np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        #: term -> (columns, epoch, per-entry label since-ords, per-entry
        #: resolved labels).
        self._label_cache: Dict[
            str, Tuple[TermColumns, int, np.ndarray, List[ResultLabel]]
        ] = {}

    # ------------------------------------------------------------------ #
    # Intervention levers
    # ------------------------------------------------------------------ #

    def demote_host(self, host: str, day: SimDate, amount: float) -> None:
        """Apply (or deepen) a ranking penalty on a host from ``day``."""
        existing = self._penalties.get(host)
        if existing is not None and existing.amount >= amount:
            return
        self._penalties[host] = HostPenalty(since=day, amount=amount)
        self._penalty_epoch += 1

    def deindex_host(self, host: str) -> int:
        if self._penalties.pop(host, None) is not None:
            self._penalty_epoch += 1
        return self.index.remove_host(host)

    def label_host(self, host: str, day: SimDate, label: ResultLabel) -> None:
        self._labels[host] = HostLabel(since=day, label=label)
        self._labels_epoch += 1

    def label_of(self, host: str, day: SimDate) -> ResultLabel:
        state = self._labels.get(host)
        if state is None or day < state.since:
            return ResultLabel.NONE
        return state.label

    def labeled_hosts(self) -> Dict[str, HostLabel]:
        return dict(self._labels)

    def penalized_hosts(self) -> Dict[str, HostPenalty]:
        """Hosts currently under a ranking penalty (metrics sampling)."""
        return dict(self._penalties)

    def penalty_of(self, host: str, day: SimDate) -> float:
        state = self._penalties.get(host)
        if state is None or day < state.since:
            return 0.0
        return state.amount

    # ------------------------------------------------------------------ #
    # Columnar caches
    # ------------------------------------------------------------------ #

    def _static_for(self, term: str, cols: TermColumns) -> np.ndarray:
        cached = self._static_cache.get(term)
        if cached is not None and cached[0] is cols:
            return cached[1]
        static = self.ranking.w_authority * cols.authority
        static += self.ranking.w_relevance * cols.relevance
        self._static_cache[term] = (cols, static)
        return static

    def _penalty_for(
        self, term: str, cols: TermColumns
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(positions, amounts, since-ordinals) over just the *penalized*
        entries — usually a small fraction of the term's candidates —
        rebuilt only when penalties or candidates change."""
        cached = self._penalty_cache.get(term)
        if cached is not None and cached[0] is cols and cached[1] == self._penalty_epoch:
            return cached[2], cached[3], cached[4]
        positions: List[int] = []
        amounts: List[float] = []
        sinces: List[int] = []
        penalties = self._penalties
        for i, host in enumerate(cols.hosts):
            penalty = penalties.get(host)
            if penalty is not None:
                positions.append(i)
                amounts.append(penalty.amount)
                sinces.append(penalty.since.ordinal)
        columns = (
            np.asarray(positions, dtype=np.intp),
            np.asarray(amounts, dtype=np.float64),
            np.asarray(sinces, dtype=np.int64),
        )
        self._penalty_cache[term] = (cols, self._penalty_epoch) + columns
        return columns

    def _labels_for(
        self, term: str, cols: TermColumns
    ) -> Tuple[np.ndarray, List[ResultLabel]]:
        """Per-entry (label since-ordinal, resolved label) columns.  The
        resolution bakes in the root-only "hacked" policy, so serving only
        needs a day comparison per result."""
        cached = self._label_cache.get(term)
        if cached is not None and cached[0] is cols and cached[1] == self._labels_epoch:
            return cached[2], cached[3]
        n = len(cols.entries)
        sinces = np.full(n, _NEVER, dtype=np.int64)
        resolved: List[ResultLabel] = [ResultLabel.NONE] * n
        labels = self._labels
        root_only = self.label_root_only
        for i, host in enumerate(cols.hosts):
            state = labels.get(host)
            if state is None:
                continue
            label = state.label
            if (
                label is ResultLabel.HACKED
                and root_only
                and cols.paths[i] not in ("", "/")
            ):
                continue
            sinces[i] = state.since.ordinal
            resolved[i] = label
        self._label_cache[term] = (cols, self._labels_epoch, sinces, resolved)
        return sinces, resolved

    # ------------------------------------------------------------------ #
    # Query serving
    # ------------------------------------------------------------------ #

    def serp(self, term: str, day) -> Serp:
        """Rank candidates and return the top ``serp_size`` results.

        Ranking noise is a pure function of (term, day) (see
        :class:`~repro.search.ranking.NoiseSource`), so a repeat serve
        under unchanged index and intervention state recomputes an equal
        page — the golden-snapshot test pins this.  Consumers treat Serp
        objects as read-only, as they must for the serps the simulator
        shares across one day's observers."""
        start = perf_counter()
        try:
            if type(day) is not SimDate:
                day = SimDate(day)
            return self._serp(term, day)
        finally:
            _SERP_TIMER.add(perf_counter() - start)

    def _serp(self, term: str, day: SimDate) -> Serp:
        cols = self.index.columns(term)
        n = len(cols.entries)
        if n == 0:
            return Serp(term=term, day=day, results=[])
        day_ord = day.ordinal

        # Noise is drawn for eligible candidates only, in candidate order —
        # the exact draw sequence of the original scalar loop.
        if cols.max_indexed_ord <= day_ord:
            eligible = None  # everything is indexed; skip the masking
            n_eligible = n
            scores = self._static_for(term, cols) + self._noise.batch(term, day, n)
        else:
            eligible = cols.indexed_ord <= day_ord
            idx = np.flatnonzero(eligible)
            n_eligible = idx.size
            if n_eligible == 0:
                return Serp(term=term, day=day, results=[])
            scores = self._static_for(term, cols).copy()
            scores[idx] += self._noise.batch(term, day, n_eligible)

        # Grouped signals: one schedule evaluation broadcast over member
        # qualities.  (level * quality) * w_seo is bit-identical to the
        # scalar loop's w_seo * (level * quality) — float multiplication
        # commutes exactly.
        w_seo = self.ranking.w_seo
        for level, positions, qualities in cols.seo_groups:
            boost = level(day) * qualities
            boost *= w_seo
            scores[positions] += boost
        if cols.seo_signals:
            seo = np.fromiter(
                (signal(day) for signal in cols.seo_signals),
                dtype=np.float64, count=len(cols.seo_signals),
            )
            scores[cols.seo_positions] += self.ranking.w_seo * seo

        if self._penalties:
            positions, amounts, sinces = self._penalty_for(term, cols)
            if positions.size:
                active = sinces <= day_ord
                if active.all():
                    scores[positions] -= amounts
                else:
                    scores[positions[active]] -= amounts[active]

        if eligible is not None:
            scores[~eligible] = -np.inf

        # Top-k selection: partition out a generous prefix (serp_size plus
        # host-cap slack) and sort just that.  Plain (unstable) argsort is
        # safe: eligible scores carry continuous per-query noise, so exact
        # ties are measure-zero, and the ``-inf`` ineligible block — the
        # one place duplicates *do* occur — still sorts last as a group
        # and is cut by position (``n_eligible``), never by order.
        partition = min(n, self.serp_size * max(2, self.max_results_per_host))
        partitioned = partition < n
        neg = -scores
        if partitioned:
            order = np.argpartition(neg, partition - 1)[:partition]
            order = order[np.argsort(neg[order])]
        else:
            order = np.argsort(neg)

        results = self._fill(term, day, cols, scores, order, n_eligible)
        if partitioned and len(results) < self.serp_size:
            # The host cap swallowed the whole partition: fall back to the
            # full stable sort (rare — a single host dominating the top).
            order = np.argsort(-scores, kind="stable")
            results = self._fill(term, day, cols, scores, order, n_eligible)
        return Serp(term=term, day=day, results=results)

    def _fill(
        self,
        term: str,
        day: SimDate,
        cols: TermColumns,
        scores: np.ndarray,
        order: np.ndarray,
        n_eligible: int,
    ) -> List[SearchResult]:
        """Apply the per-host result cap and materialize results, in bulk.

        Ineligible candidates sank to the bottom of ``order`` with ``-inf``
        scores, so dropping them is a position cut at ``n_eligible``.  The
        host cap is an occurrence count in score order over only the
        entries whose host *can* exceed the cap (``cols.host_counts``);
        result objects are built through ``tuple.__new__`` over ``zip`` —
        the generated NamedTuple ``__new__`` is a Python wrapper,
        measurable at serp_size constructions per query.
        """
        serp_size = self.serp_size
        cap = self.max_results_per_host
        n = len(order)
        drops: List[int] = []
        if cols.max_host_count > cap:
            # Only entries on hosts with more than ``cap`` candidates can
            # ever be dropped; count occurrences over just that (small)
            # subset instead of grouping the whole ranking.
            crowded = (cols.host_counts[order] > cap).nonzero()[0]
            if crowded.size:
                codes = cols.host_codes[order[crowded]].tolist()
                seen: Dict[int, int] = {}
                stop = serp_size
                for pos, code in zip(crowded.tolist(), codes):
                    if pos >= stop:
                        # Every current and future drop sits past the final
                        # cut (its post-drop rank is >= serp_size), so the
                        # remaining tail cannot change the page.
                        break
                    count = seen.get(code, 0)
                    if count >= cap:
                        drops.append(pos)
                        stop += 1
                    else:
                        seen[code] = count + 1
        if drops:
            keep = np.ones(n, dtype=bool)
            keep[drops] = False
            if n_eligible < n:
                keep[n_eligible:] = False
            kept_arr = order[keep][:serp_size]
        elif n_eligible < n:
            kept_arr = order[: min(serp_size, n_eligible)]
        else:
            kept_arr = order[:serp_size]
        kept = kept_arr.tolist()
        m = len(kept)
        if m == 0:
            return []
        none_label = ResultLabel.NONE
        if m == 1:
            i = kept[0]
            host = cols.hosts[i]
            label = (
                self._result_label(host, cols.paths[i], day)
                if host in self._labels
                else none_label
            )
            return [SearchResult(
                1, cols.urls[i], host, cols.paths[i], label,
                float(scores[i]), cols.entries[i],
            )]
        labels: object
        if not self._labels:
            labels = repeat(none_label)
        else:
            sinces, resolved = self._labels_for(term, cols)
            active = sinces[kept_arr] <= day.ordinal
            if active.any():
                labels = [none_label] * m
                for j in active.nonzero()[0].tolist():
                    labels[j] = resolved[kept[j]]
            else:
                labels = repeat(none_label)
        sel = itemgetter(*kept)
        # .tolist() on the selected slice: indexing the ndarray element by
        # element would hand back NumPy scalars, slow everywhere downstream.
        return list(map(tuple.__new__, repeat(SearchResult), zip(
            range(1, m + 1),
            sel(cols.urls),
            sel(cols.hosts),
            sel(cols.paths),
            labels,
            scores[kept_arr].tolist(),
            sel(cols.entries),
        )))

    def site_query(self, host: str, day) -> List[str]:
        """'site:<host>' — every indexed URL on a host visible on ``day``.

        The paper used these queries to collect all search results
        originating from a doorway and extract its targeted keywords from
        the URL paths (Section 4.1.1)."""
        day = SimDate(day)
        return sorted({
            entry.url
            for entry in self.index.entries_for_host(host)
            if entry.indexed_on is None or entry.indexed_on <= day
        })

    def _result_label(self, host: str, path: str, day: SimDate) -> ResultLabel:
        label = self.label_of(host, day)
        if label is ResultLabel.NONE:
            return label
        if label is ResultLabel.HACKED and self.label_root_only and path not in ("", "/"):
            # The policy gap of Section 5.2.2: only root results get the
            # "hacked" subtitle, sub-page PSRs escape unlabeled.
            return ResultLabel.NONE
        return label
