"""VanGogh: iframe-cloaking detection (Section 4.1.2).

VanGogh renders pages (the paper used HtmlUnit, "essentially a headless
browser complete with a JavaScript interpreter"; we use the honest
mini-renderer in :mod:`repro.web.render`) and classifies a page as iframe
cloaking "if they load iframes where the height and width attributes are
both either set to 100% or larger than 800 pixels".
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional

from repro.util.perf import PERF
from repro.util.simtime import SimDate
from repro.html.nodes import Document, Element
from repro.perf.cache import render_document_cached
from repro.web.fetch import RENDERING_CRAWLER, Response, SEARCH_USER
from repro.web.hosting import Web

MIN_FULLPAGE_PIXELS = 800


def _dimension_is_fullpage(value: str) -> bool:
    value = value.strip()
    if value.endswith("%"):
        try:
            return float(value[:-1]) >= 100.0
        except ValueError:
            return False
    try:
        return float(value.rstrip("px")) > MIN_FULLPAGE_PIXELS
    except ValueError:
        return False


def find_fullpage_iframes(doc: Document) -> List[Element]:
    """Iframes visually occupying the whole viewport."""
    hits = []
    for iframe in doc.find_all("iframe"):
        width = iframe.get("width")
        height = iframe.get("height")
        if width and height and _dimension_is_fullpage(width) and _dimension_is_fullpage(height):
            hits.append(iframe)
    return hits


@dataclass
class VanGoghResult:
    url: str
    iframe_cloaked: bool
    iframe_src: Optional[str]
    #: The store page fetched through the iframe (what the user "sees").
    landing_response: Optional[Response]
    rendered_iframe_count: int
    #: Injected-fault tag on the page fetch (None on clean fetches); a
    #: faulted check must not mark the URL clean.
    fault: Optional[str] = None


#: Always-on check timer (the trace tree shows it under each crawl span).
_CHECK_TIMER = PERF.handle("crawler.vangogh")


class VanGogh:
    """Render-and-inspect iframe-cloaking detector."""

    def __init__(self, web: Web, fetch=None):
        self.web = web
        #: Fetch callable; the measurement crawler passes its
        #: fault-aware :meth:`ResilientFetcher.fetch` here.
        self._fetch = fetch if fetch is not None else web.fetch

    def check(self, url: str, day: SimDate) -> VanGoghResult:
        start = perf_counter()
        try:
            return self._check(url, day)
        finally:
            _CHECK_TIMER.add(perf_counter() - start)

    def _check(self, url: str, day: SimDate) -> VanGoghResult:
        response = self._fetch(url, RENDERING_CRAWLER, day)
        if not response.ok:
            return VanGoghResult(url, False, None, None, 0, fault=response.fault)
        # Cached on (content hash, profile): identical cloaked payloads —
        # the common case for doorways re-checked across crawl days — skip
        # the parse + script-execution pass entirely.
        rendered = render_document_cached(response.html, RENDERING_CRAWLER)
        fullpage = find_fullpage_iframes(rendered)
        if not fullpage:
            return VanGoghResult(
                url, False, None, None, len(rendered.find_all("iframe")),
                fault=response.fault,
            )
        src = fullpage[0].get("src")
        landing: Optional[Response] = None
        if src:
            try:
                landing = self._fetch(src, SEARCH_USER, day)
            except ValueError:
                # A malformed src (FetchError is a ValueError): the page
                # still cloaks, but there is no landing to follow.
                landing = None
        return VanGoghResult(
            url=url,
            iframe_cloaked=True,
            iframe_src=src or None,
            landing_response=landing,
            rendered_iframe_count=len(rendered.find_all("iframe")),
            fault=response.fault,
        )
