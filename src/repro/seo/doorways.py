"""Doorway sites.

A doorway is a site (usually a compromised legitimate one, sometimes a
freshly registered throwaway) hosting cloaked pages that target a handful of
a vertical's search terms at keyword-friendly paths like
``/cheap-louis-vuitton-7.html``.  The root of a compromised site keeps
serving the owner's original content — the behaviour that both hides the
compromise from the owner and defeats Google's root-only "hacked" labeling.

A doorway's keyword-stuffed HTML is built on first serve (see
:func:`seo_page`): each page draws from its own ``doorway-page:{seed}``
stream, so its bytes do not depend on when, or whether, it is served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.util.ids import slugify
from repro.util.rng import RandomStreams
from repro.util.simtime import SimDate
from repro.web.fetch import PageResult, VisitorProfile
from repro.web.sites import DynamicPage, Site, SiteKind, StaticPage
from repro.seo.cloaking import DoorwayPageContext
from repro.seo.templates import TemplateTheme


@dataclass
class DoorwayPage:
    """One cloaked page on a doorway, targeting one term."""

    path: str
    term: str
    relevance: float
    context: DoorwayPageContext


class Doorway:
    """A doorway working for one campaign in one vertical."""

    def __init__(
        self,
        campaign: str,
        vertical: str,
        site: Site,
        compromised: bool,
        created_on: SimDate,
        quality: float,
    ):
        self.campaign = campaign
        self.vertical = vertical
        self.site = site
        self.compromised = compromised
        self.created_on = created_on
        #: Doorway-specific SEO effectiveness multiplier in (0, 1].
        self.quality = quality
        self.pages: List[DoorwayPage] = []
        #: True when the compromised site's root page is itself cloaked.
        self.root_injected = False

    @property
    def host(self) -> str:
        return self.site.host

    def __repr__(self) -> str:
        return f"Doorway({self.host!r}, campaign={self.campaign!r}, pages={len(self.pages)})"


def build_doorway(
    campaign: str,
    vertical: str,
    terms: Sequence[str],
    site: Site,
    compromised: bool,
    day: SimDate,
    theme: TemplateTheme,
    kit,
    landing_url: Callable[[], Optional[str]],
    streams: RandomStreams,
) -> Doorway:
    """Inject cloaked pages for the given terms onto a site.

    For compromised sites the original root page is preserved; for dedicated
    doorways a generic SEO root is installed too.
    """
    rng = streams.child(f"doorway:{site.host}").get("build")
    quality = rng.uniform(0.4, 1.0)
    doorway = Doorway(campaign, vertical, site, compromised, day, quality)
    original_page: Optional[StaticPage] = None
    if compromised:
        site.kind = SiteKind.COMPROMISED
        root = site.get_page("/")
        if isinstance(root, StaticPage):
            original_page = root
    else:
        if site.get_page("/") is None:
            site.add_page(seo_page("/", theme, vertical.lower(), vertical, f"{site.host}:root"))

    for term in terms:
        suffix = rng.randint(1, 99)
        path = f"/{slugify(term)}-{suffix}.html"
        if site.get_page(path) is not None:
            path = f"/{slugify(term)}-{suffix}-{rng.randint(100, 999)}.html"
        context = DoorwayPageContext(
            campaign=campaign,
            vertical=vertical,
            term=term,
            landing_url=landing_url,
            seo_page=seo_page(path, theme, term, vertical, f"{site.host}{path}"),
            original_page=original_page,
        )
        responder = _make_responder(kit, context)
        site.add_page(DynamicPage(path, responder))
        # Keyword stuffing earns near-max on-page relevance.
        relevance = rng.uniform(0.65, 0.95)
        doorway.pages.append(
            DoorwayPage(path=path, term=term, relevance=relevance, context=context)
        )
    return doorway


class _DoorwaySeoHtml:
    """Picklable generator for a doorway's keyword-stuffed page."""

    __slots__ = ("theme", "term", "vertical", "page_seed")

    def __init__(self, theme: TemplateTheme, term: str, vertical: str, page_seed: str):
        self.theme = theme
        self.term = term
        self.vertical = vertical
        self.page_seed = page_seed

    def __call__(self) -> str:
        return self.theme.doorway_seo_page(self.term, self.vertical, self.page_seed)


def seo_page(path: str, theme: TemplateTheme, term: str, vertical: str,
             page_seed: str) -> StaticPage:
    """The crawler-facing SEO page for ``term``, built on first serve."""
    return StaticPage(path, generator=_DoorwaySeoHtml(theme, term, vertical, page_seed))


@dataclass
class KitResponder:
    """Picklable responder binding a cloaking kit to one page context.

    Doorway pages live in checkpointed world state, so their responders
    must survive a pickle round-trip — a local closure would not."""

    kit: object
    context: DoorwayPageContext

    def __call__(self, profile: VisitorProfile, day: SimDate) -> PageResult:
        return self.kit.respond(self.context, profile, day)


def _make_responder(kit, context: DoorwayPageContext) -> KitResponder:
    return KitResponder(kit, context)
