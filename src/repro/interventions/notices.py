"""Seizure serving-notice pages.

When a brand holder seizes a storefront domain, the registry points it at a
notice page naming the court case and — crucially for measurement — listing
the other domains seized in the same case.  The paper mined these embedded
court documents to count nearly 40,000 seized domains (Section 5.3.1); our
crawler does the same through :func:`parse_notice_page`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.html.builder import PageBuilder
from repro.perf.cache import LRUCache, parse_html_cached


@dataclass
class NoticeInfo:
    """Structured contents of a seizure notice page."""

    case_id: str
    firm: str
    brand: str
    domain: str
    co_seized: List[str]


def build_notice_page(info: NoticeInfo) -> str:
    """Render the serving-notice page for one seized domain."""
    page = PageBuilder(title=f"Domain Seized — Case {info.case_id}")
    page.meta("robots", "noindex")
    banner = page.div(cls="seizure-banner", id_="seizure-notice")
    banner.add("h1", text="This domain name has been seized")
    banner.add(
        "p",
        {"class": "notice-body"},
        text=(
            f"The domain {info.domain} has been seized pursuant to an order "
            f"issued in case {info.case_id}, on behalf of {info.brand}."
        ),
    )
    banner.add("p", {"class": "firm", "data-firm": info.firm}, text=f"Served by {info.firm}")
    docket = page.div(cls="court-documents", id_="docket")
    docket.add("h2", text="Schedule A — Defendant Domain Names")
    listing = docket.add("ol", {"class": "seized-domains"})
    for name in info.co_seized:
        listing.add("li", {"class": "seized-domain"}, text=name)
    return page.html()


#: Both outcomes cache: every crawled landing page gets a notice check, so
#: the (far more common) ``None`` verdicts are worth remembering too.
_NOTICE_CACHE = LRUCache("notice", maxsize=16384)


def parse_notice_page(html: str) -> Optional[NoticeInfo]:
    """Recover case metadata from a notice page; None if not a notice.

    Content-addressed: repeated parses of an identical notice (every
    co-seized domain in a case serves the same schedule) share one
    NoticeInfo — read-only to callers, like every cached value."""
    return _NOTICE_CACHE.memo_html(html, _parse_notice_page)


def _parse_notice_page(html: str) -> Optional[NoticeInfo]:
    doc = parse_html_cached(html)
    banner = None
    for el in doc.iter():
        if el.get("id") == "seizure-notice":
            banner = el
            break
    if banner is None:
        return None
    case_id = ""
    brand = ""
    domain = ""
    body_text = ""
    for p in banner.find_all("p"):
        if p.get("class") == "notice-body":
            body_text = p.text_content()
    # "The domain X has been seized pursuant to an order issued in case C,
    #  on behalf of B."
    if " has been seized" in body_text:
        domain = body_text.split(" has been seized")[0].replace("The domain ", "").strip()
    if "in case " in body_text:
        tail = body_text.split("in case ", 1)[1]
        case_id = tail.split(",", 1)[0].strip()
    if "on behalf of " in body_text:
        brand = body_text.split("on behalf of ", 1)[1].rstrip(". ").strip()
    firm = ""
    for el in doc.iter():
        if "data-firm" in el.attrs:
            firm = el.attrs["data-firm"]
            break
    co_seized = [
        li.text_content().strip()
        for li in doc.find_all("li")
        if li.get("class") == "seized-domain"
    ]
    if not case_id:
        return None
    return NoticeInfo(case_id=case_id, firm=firm, brand=brand, domain=domain, co_seized=co_seized)
