"""Dagger: redirect-cloaking detection.

The original Dagger system (Wang et al., CCS'11; updated for this study)
"uses heuristics to detect cloaking by examining semantic differences
between versions of the same page fetched first as a user and then as a
search engine crawler" (Section 4.1.2).  Our port keeps the same structure:

1. fetch the URL as a user clicking through a search result;
2. fetch it again with a Googlebot User-Agent;
3. flag cloaking when the user view redirected off the registered domain, or
   when the two views' text content diverges beyond a similarity threshold.

Like the original, Dagger does not execute JavaScript — that blind spot is
exactly what iframe cloaking exploits and why VanGogh exists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from time import perf_counter
from typing import FrozenSet, Optional, Set

from repro.util.perf import PERF
from repro.util.simtime import SimDate
from repro.web.fetch import CRAWLER, Response, SEARCH_USER
from repro.web.hosting import Web
from repro.web.urls import parse_url, registered_domain
from repro.perf.cache import LRUCache, parse_html_cached

_TOKEN_RE = re.compile(r"[a-z0-9]{2,}")

#: Shingle sets are tiny (a few hundred interned tokens), so the cache can
#: run deep; the measurement crawler re-shingles known-cloaked landing
#: pages on every visit otherwise.
_SHINGLE_CACHE = LRUCache("shingle", maxsize=32768)


def _build_shingle(html: str) -> FrozenSet[str]:
    text = parse_html_cached(html).text_content()
    return frozenset(_TOKEN_RE.findall(text.lower()))


def text_shingle(html: str) -> Set[str]:
    """Lowercased word-token set of a page's visible text plus title.

    Content-addressed: repeated shingles of byte-identical HTML come from
    the cache (the returned frozenset is shared — don't mutate)."""
    return _SHINGLE_CACHE.memo_html(html, _build_shingle)


def jaccard(a: Set[str], b: Set[str]) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 1.0
    return len(a & b) / union


@dataclass
class DaggerResult:
    url: str
    cloaked: bool
    #: 'redirect' when the user view left the registered domain; 'content'
    #: when the two views' text diverged; None when clean.
    mechanism: Optional[str]
    similarity: float
    user_response: Response
    crawler_response: Response

    @property
    def landing_url(self) -> str:
        return self.user_response.final_url

    @property
    def degraded(self) -> bool:
        """True when either view carried an injected fault — the verdict
        is unreliable and must not mark the URL clean."""
        return (
            self.user_response.fault is not None
            or self.crawler_response.fault is not None
        )


#: Always-on check timer (the trace tree shows it under each crawl span).
_CHECK_TIMER = PERF.handle("crawler.dagger")


class Dagger:
    """Fetch-twice-and-diff cloaking detector."""

    def __init__(self, web: Web, similarity_threshold: float = 0.33, fetch=None):
        self.web = web
        self.similarity_threshold = similarity_threshold
        #: Fetch callable; the measurement crawler passes its
        #: fault-aware :meth:`ResilientFetcher.fetch` here.
        self._fetch = fetch if fetch is not None else web.fetch

    def check(self, url: str, day: SimDate) -> DaggerResult:
        start = perf_counter()
        try:
            return self._check(url, day)
        finally:
            _CHECK_TIMER.add(perf_counter() - start)

    def _check(self, url: str, day: SimDate) -> DaggerResult:
        user_view = self._fetch(url, SEARCH_USER, day)
        crawler_view = self._fetch(url, CRAWLER, day)

        mechanism: Optional[str] = None
        cloaked = False
        similarity = 1.0

        if user_view.ok and crawler_view.ok:
            origin = registered_domain(parse_url(url).host)
            final = registered_domain(parse_url(user_view.final_url).host)
            if user_view.redirected and final != origin:
                cloaked = True
                mechanism = "redirect"
            else:
                similarity = jaccard(
                    text_shingle(user_view.html), text_shingle(crawler_view.html)
                )
                if similarity < self.similarity_threshold:
                    cloaked = True
                    mechanism = "content"
        return DaggerResult(
            url=url,
            cloaked=cloaked,
            mechanism=mechanism,
            similarity=similarity,
            user_response=user_view,
            crawler_response=crawler_view,
        )
