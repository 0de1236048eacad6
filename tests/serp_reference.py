"""The scalar SERP reference: the pre-columnar engine's scoring loop.

``scalar_serp`` is a line-faithful copy of the seed ``SearchEngine.serp``
body, including its per-entry dataclass results and ``id()``-keyed
static-score cache.  It reads the live engine's state (index, penalties,
labels, noise stream), so it ranks the same world as the columnar
``SearchEngine.serp``, and the two must agree field for field: the same
ranks, URLs and labels, and bit-exact scores (``NoiseSource.for_serp``
delivers the batch stream one scalar draw at a time).

``tests/test_serp_reference.py`` holds the columnar engine to it through a
sequence of index and intervention changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.search.engine import SearchEngine
from repro.search.index import IndexedEntry, no_seo_signal
from repro.search.serp import ResultLabel
from repro.util.simtime import SimDate


@dataclass
class SeedResult:
    """The seed engine's SearchResult was a dataclass; the reference loop
    keeps paying its construction cost to stay a faithful 'before'."""

    rank: int
    url: str
    host: str
    path: str
    label: ResultLabel
    score: float
    entry: Optional[IndexedEntry]


def scalar_serp(
    engine: SearchEngine,
    static_cache: Dict[int, float],
    term: str,
    day,
) -> List[SeedResult]:
    """The pre-columnar ``SearchEngine.serp`` body, verbatim in structure:
    per-entry gauss noise, python-level scoring, key-lambda sort, host-cap
    fill.  Reads the live engine's state so both paths rank the same
    world.

    ``static_cache`` is keyed on ``id(entry)``, as the seed's was: reuse
    it only while no entry can die, since a recycled id would serve a dead
    entry's static score."""
    day = SimDate(day)
    gauss = engine._noise.for_serp(term, day)
    w_seo = engine.ranking.w_seo
    w_auth = engine.ranking.w_authority
    w_rel = engine.ranking.w_relevance
    penalties = engine._penalties
    scored: List[Tuple[float, IndexedEntry]] = []
    for entry in engine.index.candidates(term):
        indexed_on = entry.indexed_on
        if indexed_on is not None and day < indexed_on:
            continue
        key = id(entry)
        static = static_cache.get(key)
        if static is None:
            static = w_auth * entry.authority + w_rel * entry.relevance
            static_cache[key] = static
        score = static + gauss()
        signal = entry.seo_signal
        if signal is not no_seo_signal:
            score += w_seo * signal(day)
        penalty = penalties.get(entry.host)
        if penalty is not None and penalty.since <= day:
            score -= penalty.amount
        scored.append((score, entry))
    scored.sort(key=lambda pair: -pair[0])

    results: List[SeedResult] = []
    per_host: Dict[str, int] = {}
    for score, entry in scored:
        count = per_host.get(entry.host, 0)
        if count >= engine.max_results_per_host:
            continue
        per_host[entry.host] = count + 1
        rank = len(results) + 1
        results.append(
            SeedResult(
                rank=rank,
                url=entry.url,
                host=entry.host,
                path=entry.path,
                label=engine._result_label(entry.host, entry.path, day),
                score=score,
                entry=entry,
            )
        )
        if rank >= engine.serp_size:
            break
    return results
