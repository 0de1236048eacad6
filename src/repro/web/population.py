"""The legitimate background web.

Two populations matter to the study:

* **ranking competitors** — legitimate sites that fill the SERPs doorways
  must displace (press, review blogs, actual resellers);
* **the compromise pool** — legitimate sites with accrued authority that
  campaigns hack into doorways (most doorways are compromised sites,
  Section 5.2.2: "most doorways are hacked sites").

Legitimate pages never cloak: they return identical content to users and
crawlers, which is what keeps the cloaking-based PSR definition free of
false positives (Section 4.1).  Their HTML is built on first serve: most
pages never rank, so most are never fetched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.html.builder import PageBuilder
from repro.util.ids import slugify
from repro.util.rng import RandomStreams
from repro.util.simtime import SimDate
from repro.web.hosting import Web
from repro.web.naming import NameForge
from repro.web.sites import Site, SiteKind, StaticPage


@dataclass
class LegitPageSpec:
    """A legitimate page plus its term relevances for the index."""

    site: Site
    path: str
    relevances: Dict[str, float] = field(default_factory=dict)


class _LegitPageHtml:
    """Picklable generator for one legitimate page (checkpointable state)."""

    __slots__ = ("host", "topic", "paragraphs")

    def __init__(self, host: str, topic: str, paragraphs: int):
        self.host = host
        self.topic = topic
        self.paragraphs = paragraphs

    def __call__(self) -> str:
        return _legit_page_html(self.host, self.topic, self.paragraphs)


def _legit_page(path: str, host: str, topic: str, rng) -> StaticPage:
    """A legitimate page whose HTML is built on first serve.  The one draw
    the content needs is taken now, so the caller's stream advances
    exactly as if the page were built eagerly."""
    return StaticPage(path, generator=_LegitPageHtml(host, topic, rng.randint(2, 5)))


def _legit_page_html(host: str, topic: str, paragraphs: int) -> str:
    page = PageBuilder(title=f"{topic.title()} — {host}")
    page.meta("description", f"{topic} coverage and reviews from {host}")
    main = page.div(cls="article")
    main.add("h1", text=f"{topic.title()} guide")
    for _ in range(paragraphs):
        main.add(
            "p",
            text=(
                f"Everything you need to know about {topic}: comparisons, "
                "pricing history, and where to buy from authorized retailers."
            ),
        )
    page.link("/about.html", "About us")
    return page.html()


class BackgroundWebBuilder:
    """Creates the legitimate web for a scenario."""

    def __init__(self, web: Web, streams: RandomStreams, forge: NameForge, epoch: SimDate):
        self.web = web
        self._streams = streams.child("population")
        self._forge = forge
        #: Legit sites predate the study window.
        self.epoch = epoch

    def build_competitors(
        self,
        vertical_name: str,
        terms: Sequence[str],
        site_count: int,
        candidates_per_term: int,
    ) -> List[LegitPageSpec]:
        """Legitimate sites that compete in one vertical's SERPs.

        Each site hosts a few topical pages; each term draws its candidate
        set from the vertical's pages so SERPs have ~``candidates_per_term``
        legitimate entries.
        """
        rng = self._streams.get(f"competitors:{slugify(vertical_name)}")
        pages: List[LegitPageSpec] = []
        for _ in range(site_count):
            domain = self.web.domains.register(self._forge.legit_domain(), self.epoch)
            # Commercial-term SERPs are crowded with strong sites (brand
            # pages, big retailers, review press) plus a long middling tail.
            authority = min(1.0, rng.betavariate(4.2, 2.2))
            site = Site(domain, SiteKind.LEGITIMATE, authority=authority, created_on=self.epoch)
            self.web.add_site(site)
            page_count = rng.randint(1, 3)
            for index in range(page_count):
                path = "/" if index == 0 else f"/{slugify(vertical_name)}-{index}.html"
                site.add_page(_legit_page(path, site.host, vertical_name.lower(), rng))
                pages.append(LegitPageSpec(site=site, path=path))
        # Spread term relevance across the vertical's pages.
        for term in terms:
            chosen = rng.sample(pages, min(candidates_per_term, len(pages)))
            for spec in chosen:
                spec.relevances[term] = rng.uniform(0.45, 1.0)
        return pages

    def build_compromise_pool(self, count: int) -> List[Site]:
        """Hackable legitimate sites with real accrued authority."""
        rng = self._streams.get("compromise-pool")
        pool: List[Site] = []
        for _ in range(count):
            domain = self.web.domains.register(self._forge.legit_domain(), self.epoch)
            # Hackable sites skew toward middling personal/small-business
            # blogs; the occasional strong host is the prize compromise.
            authority = min(1.0, rng.betavariate(2.2, 2.6) + 0.12)
            site = Site(domain, SiteKind.LEGITIMATE, authority=authority, created_on=self.epoch)
            topic = rng.choice(("travel", "cooking", "photography", "gardening",
                                "parenting", "fitness", "music", "woodworking"))
            site.add_page(_legit_page("/", site.host, topic, rng))
            self.web.add_site(site)
            pool.append(site)
        return pool
