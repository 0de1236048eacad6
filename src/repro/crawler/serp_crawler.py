"""The daily search-results crawl (Section 4.1.2).

For each monitored term the crawler takes the day's top-100 results and
works out which are poisoned:

* unknown URLs are checked with Dagger (fetch as user + as Googlebot);
  Dagger-clean pages go through VanGogh (render, look for full-page
  iframes) — the order the paper used, since rendering is expensive;
* the paper's workload-trimming rules are kept: domains previously seen
  and never detected as poisoned are skipped, and at most
  ``max_renders_per_host_per_day`` pages of one doorway domain are rendered
  per measurement;
* known-poisoned URLs are recorded as PSRs directly, with one landing fetch
  per (host, day) to track where the doorway currently forwards — which is
  how domain rotations and seizure notices become visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.obs.trace import TRACER
from repro.util.perf import PERF
from repro.util.simtime import SimDate
from repro.web.fetch import Response
from repro.web.urls import parse_url
from repro.faults.retry import ResilientFetcher, RetryPolicy
from repro.interventions.notices import NoticeInfo, parse_notice_page
from repro.crawler.dagger import Dagger
from repro.crawler.records import PageArchive, PsrDataset, PsrRecord
from repro.crawler.store_detect import StoreDetector, StoreEvidence
from repro.crawler.vangogh import VanGogh


@dataclass
class CrawlPolicy:
    """Operational knobs of the measurement crawl."""

    #: Crawl every N days (the paper crawled daily; scaled runs stretch it).
    stride_days: int = 1
    #: VanGogh renders at most this many pages per doorway domain per day.
    max_renders_per_host_per_day: int = 3
    #: Re-check previously-clean hosts after this many days (None = never,
    #: the paper's behaviour).
    recheck_clean_after_days: Optional[int] = None


@dataclass
class _LandingInfo:
    landing_url: str
    landing_host: str
    is_store: bool
    evidence: StoreEvidence
    notice: Optional[NoticeInfo]


class SearchCrawler:
    """Observer plugged into the simulator; builds the PSR dataset."""

    def __init__(
        self,
        web,
        policy: Optional[CrawlPolicy] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.web = web
        self.policy = policy or CrawlPolicy()
        #: Every measurement fetch goes through the fault-aware fetcher
        #: (a pass-through while the web carries no injector).
        self.fetcher = ResilientFetcher(web, retry_policy)
        self.dagger = Dagger(web, fetch=self.fetcher.fetch)
        self.vangogh = VanGogh(web, fetch=self.fetcher.fetch)
        self.store_detector = StoreDetector()
        self.dataset = PsrDataset()
        self.archive = PageArchive()
        #: Court documents harvested from seizure-notice pages: case_id ->
        #: NoticeInfo (incl. the full co-seized domain schedule).
        self.notices: Dict[str, NoticeInfo] = {}
        #: case_id -> day the notice was first observed in a crawl.
        self.notice_first_seen: Dict[str, SimDate] = {}
        #: url -> mechanism for URLs known to cloak.
        self._cloaked_urls: Dict[str, str] = {}
        #: url -> day it was last checked clean (expires with the policy's
        #: recheck window, like clean hosts).
        self._clean_urls: Dict[str, SimDate] = {}
        #: hosts where every URL checked so far came back clean.
        self._clean_hosts: Dict[str, SimDate] = {}
        self._poisoned_hosts: Set[str] = set()
        self._first_crawl_day: Optional[SimDate] = None
        #: per-day caches, reset each crawl day.
        self._renders_today: Dict[str, int] = {}
        self._landing_today: Dict[str, Optional[_LandingInfo]] = {}
        self.crawl_day_count = 0

    # ------------------------------------------------------------------ #
    # Observer interface
    # ------------------------------------------------------------------ #

    def on_day(self, world, context) -> None:
        day = context.day
        if self._first_crawl_day is None:
            self._first_crawl_day = day
        if (day - self._first_crawl_day) % self.policy.stride_days != 0:
            return
        with TRACER.span("crawl", sim_day=day.isoformat()):
            self.crawl_day_count += 1
            self._renders_today = {}
            self._landing_today = {}
            injector = getattr(self.web, "fault_injector", None)
            for term, serp in context.serps.items():
                vertical = context.vertical_of_term[term]
                if injector is not None and injector.serp_missing(term, day):
                    # Lost SERP: record the gap so denominators and the
                    # gap-tolerant analyses know this (term, day) was not
                    # observed, rather than observed-and-empty.
                    self.dataset.note_missed_serp(day, vertical, term)
                    continue
                self.dataset.note_serp(day, vertical, len(serp.results))
                for result in serp.results:
                    self._process_result(day, vertical, term, result)

    # ------------------------------------------------------------------ #
    # Per-result processing
    # ------------------------------------------------------------------ #

    def _process_result(self, day: SimDate, vertical: str, term: str, result) -> None:
        url = result.url
        mechanism = self._cloaked_urls.get(url)
        if mechanism is None:
            if self._skip_clean_url(url, day):
                return
            if self._skip_clean_host(result.host, day):
                return
            mechanism = self._classify_url(url, result.host, day)
            if mechanism is None:
                return
        landing = self._landing_for(result.host, url, mechanism, day)
        if landing is None:
            return
        self.dataset.add(
            PsrRecord(
                day=day,
                vertical=vertical,
                term=term,
                rank=result.rank,
                url=url,
                host=result.host,
                path=result.path,
                label=result.label.value,
                mechanism=mechanism,
                landing_url=landing.landing_url,
                landing_host=landing.landing_host,
                is_store=landing.is_store,
                seizure_case=landing.notice.case_id if landing.notice else None,
                seizure_firm=landing.notice.firm if landing.notice else None,
                seizure_brand=landing.notice.brand if landing.notice else None,
                campaign="",
            )
        )

    def _skip_clean_url(self, url: str, day: SimDate) -> bool:
        checked = self._clean_urls.get(url)
        if checked is None:
            return False
        recheck = self.policy.recheck_clean_after_days
        if recheck is not None and day - checked >= recheck:
            del self._clean_urls[url]
            return False
        return True

    def _skip_clean_host(self, host: str, day: SimDate) -> bool:
        checked = self._clean_hosts.get(host)
        if checked is None:
            return False
        recheck = self.policy.recheck_clean_after_days
        if recheck is not None and day - checked >= recheck:
            del self._clean_hosts[host]
            return False
        return True

    def _classify_url(self, url: str, host: str, day: SimDate) -> Optional[str]:
        """Run Dagger then (budget permitting) VanGogh on an unknown URL."""
        dagger_result = self.dagger.check(url, day)
        if dagger_result.cloaked:
            mechanism = dagger_result.mechanism or "content"
            self._mark_poisoned(url, host, mechanism)
            self.archive.add_doorway(host, dagger_result.crawler_response.html)
            return mechanism
        if dagger_result.degraded:
            # A faulted check proves nothing: leave the URL unknown (it is
            # re-examined on its next SERP appearance) instead of caching
            # a clean verdict off lost or damaged fetches.
            PERF.count("faults.degraded.classify")
            return None
        renders = self._renders_today.get(host, 0)
        if renders >= self.policy.max_renders_per_host_per_day:
            return None
        self._renders_today[host] = renders + 1
        vg = self.vangogh.check(url, day)
        if vg.iframe_cloaked:
            self._mark_poisoned(url, host, "iframe")
            self.archive.add_doorway(host, dagger_result.crawler_response.html)
            return "iframe"
        if vg.fault is not None:
            PERF.count("faults.degraded.classify")
            return None
        self._clean_urls[url] = day
        if host not in self._poisoned_hosts:
            self._clean_hosts[host] = day
        return None

    def _mark_poisoned(self, url: str, host: str, mechanism: str) -> None:
        self._cloaked_urls[url] = mechanism
        self._poisoned_hosts.add(host)
        self._clean_hosts.pop(host, None)

    # ------------------------------------------------------------------ #
    # Landing resolution (once per host per crawl day)
    # ------------------------------------------------------------------ #

    def _landing_for(
        self, host: str, url: str, mechanism: str, day: SimDate
    ) -> Optional[_LandingInfo]:
        if host in self._landing_today:
            return self._landing_today[host]
        landing_response = self._fetch_landing(url, mechanism, day)
        info: Optional[_LandingInfo] = None
        if (
            landing_response is not None
            and landing_response.fault is not None
            and not landing_response.ok
        ):
            # Landing lost to an injected fault after retries: this host's
            # PSRs are dropped for the day (mark-and-tolerate; the analyses
            # bridge the gap) rather than recorded with a bogus landing.
            PERF.count("faults.degraded.landing")
        if landing_response is not None and landing_response.ok:
            landing_host = parse_url(landing_response.final_url).host
            notice = parse_notice_page(landing_response.html)
            if notice is not None and notice.case_id not in self.notices:
                self.notices[notice.case_id] = notice
                self.notice_first_seen[notice.case_id] = day
            evidence = self.store_detector.detect(landing_response)
            if evidence.is_store:
                self.archive.add_store(landing_host, landing_response.html)
            info = _LandingInfo(
                landing_url=landing_response.final_url,
                landing_host=landing_host,
                is_store=evidence.is_store,
                evidence=evidence,
                notice=notice,
            )
        self._landing_today[host] = info
        return info

    def _fetch_landing(self, url: str, mechanism: str, day: SimDate) -> Optional[Response]:
        if mechanism in ("redirect", "content"):
            result = self.dagger.check(url, day)
            return result.user_response
        vg = self.vangogh.check(url, day)
        if vg.landing_response is not None:
            return vg.landing_response
        return None
