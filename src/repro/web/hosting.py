"""The simulated web: site registry and fetch semantics.

:meth:`Web.fetch` is the single entry point every consumer uses — the search
engine's indexer, the Dagger/VanGogh measurement crawlers, simulated users,
and the brand-protection firms' investigators.  It resolves redirects,
and routes fetches of seized domains to their seizure-notice page.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from time import perf_counter

from repro.util.perf import PERF
from repro.util.simtime import SimDate
from repro.web.domains import DomainRegistry
from repro.web.fetch import PageResult, Response, VisitorProfile
from repro.web.sites import Site, SiteKind
from repro.web.urls import Url, parse_url

MAX_REDIRECTS = 8

_FETCH_TIMER = PERF.handle("web.fetch")


class FetchError(ValueError):
    """Raised for malformed URLs; unreachable hosts return 404/502 instead.

    A :class:`ValueError`, like the URL parser's own error, so callers
    catch one type whichever fetcher they were handed."""


class Web:
    """Registry of sites plus fetch resolution."""

    def __init__(self, domains: Optional[DomainRegistry] = None):
        self.domains = domains if domains is not None else DomainRegistry()
        self._sites: Dict[str, Site] = {}
        #: Builds the notice page served for a seized domain; installed by
        #: the seizure intervention machinery.
        self.seizure_notice_builder: Optional[Callable[[str, SimDate], PageResult]] = None
        #: Optional :class:`repro.faults.injector.FaultInjector` attached by
        #: the study runner.  :meth:`fetch` itself never consults it — the
        #: simulation's own consumers (indexer, users) must see ground
        #: truth; only :class:`repro.faults.retry.ResilientFetcher` (the
        #: measurement path) reads it.  It lives here so a checkpointed
        #: world carries its fault configuration across resume.
        self.fault_injector = None

    def add_site(self, site: Site) -> Site:
        if site.host in self._sites:
            raise ValueError(f"host {site.host!r} already has a site")
        self._sites[site.host] = site
        return site

    def get_site(self, host: str) -> Optional[Site]:
        return self._sites.get(host.lower())

    def sites(self, kind: Optional[SiteKind] = None) -> List[Site]:
        """Sites (optionally filtered by kind), sorted by host so the
        listing never depends on registration order."""
        selected = (
            s for s in self._sites.values() if kind is None or s.kind == kind
        )
        return sorted(selected, key=lambda s: s.host)

    def __len__(self) -> int:
        return len(self._sites)

    def _respond_once(self, url: Url, profile: VisitorProfile, day: SimDate) -> PageResult:
        domain = self.domains.get(url.host)
        if domain is not None and domain.seized_as_of(day):
            record = domain.seizure
            if record is not None and not record.shows_notice:
                return PageResult(status=502)
            if self.seizure_notice_builder is not None:
                return self.seizure_notice_builder(url.host, day)
            return PageResult(html="<html><body><h1>Seized</h1></body></html>")
        site = self._sites.get(url.host)
        if site is None:
            return PageResult(status=404)
        if day < site.created_on:
            return PageResult(status=404)
        page = site.get_page(url.path)
        if page is None:
            return PageResult(status=404)
        return page.respond(profile, day)

    def fetch(self, raw_url: str, profile: VisitorProfile, day) -> Response:
        """Fetch a URL as the given visitor, following redirects.

        Referrers propagate the way browsers do: the first hop carries the
        profile's referrer (e.g., a Google SERP), subsequent hops carry the
        redirecting URL.
        """
        start = perf_counter()
        try:
            return self._fetch(raw_url, profile, day)
        finally:
            _FETCH_TIMER.add(perf_counter() - start)

    def _fetch(self, raw_url: str, profile: VisitorProfile, day) -> Response:
        day = SimDate(day)
        try:
            url = parse_url(raw_url)
        except ValueError as exc:
            raise FetchError(str(exc)) from exc
        chain = [str(url)]
        current_profile = profile
        result = self._respond_once(url, current_profile, day)
        hops = 0
        while result.redirect_to is not None:
            hops += 1
            if hops > MAX_REDIRECTS:
                return Response(
                    status=508, url=raw_url, final_url=chain[-1], redirect_chain=chain
                )
            current_profile = profile.with_referrer(chain[-1])
            try:
                url = parse_url(result.redirect_to)
            except ValueError:
                return Response(
                    status=502, url=raw_url, final_url=result.redirect_to,
                    redirect_chain=chain,
                )
            chain.append(str(url))
            result = self._respond_once(url, current_profile, day)
        return Response(
            status=result.status,
            url=raw_url,
            final_url=chain[-1],
            html=result.html,
            cookies=result.cookies,
            redirect_chain=chain,
        )
