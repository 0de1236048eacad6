"""Retry policy: bounded backoff, per-day budget, per-host circuit breaker.

:class:`ResilientFetcher` wraps :meth:`repro.web.hosting.Web.fetch` for
the measurement side of the pipeline (Dagger, VanGogh, landing fetches).
When the web carries no :class:`~repro.faults.injector.FaultInjector` it
is a zero-cost pass-through — clean runs stay byte-identical to runs
without the fault layer.  Under injection it:

* asks the injector for pre-fetch faults (timeout / connection error /
  IP-block window) and synthesizes the failed :class:`Response` without
  touching the simulated web, so ground truth never observes the fault;
* retries transient faults up to ``max_attempts`` with capped, jittered
  exponential backoff — *simulated* seconds accumulated on
  :attr:`simulated_backoff_s`, never ``time.sleep`` (lint rule D009
  enforces both the bound and the sleep ban tree-wide);
* spends retries from a per-sim-day budget, and opens a per-host circuit
  breaker after repeated failures so a blocked host stops eating the
  budget until its cooldown (in sim days) expires.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.util.perf import PERF
from repro.util.rng import derive_seed
from repro.util.simtime import SimDate
from repro.web.fetch import Response, STATUS_UNREACHABLE, VisitorProfile
from repro.web.hosting import FetchError
from repro.web.urls import parse_url
from repro.faults.injector import FAULT_IP_BLOCK, TRANSIENT_FAULTS

#: Synthetic fault tag for fetches refused by an open circuit breaker.
FAULT_CIRCUIT_OPEN = "circuit-open"


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the measurement crawler's retry discipline."""

    #: Total attempts per fetch (first try included); always bounded.
    max_attempts: int = 3
    #: First backoff, simulated seconds; doubles per attempt.
    base_backoff_s: float = 2.0
    #: Ceiling on a single backoff, simulated seconds.
    backoff_cap_s: float = 60.0
    #: Jitter fraction: backoff is scaled by uniform [1, 1 + jitter].
    jitter: float = 0.5
    #: Retries allowed per sim day across all hosts.
    per_day_retry_budget: int = 500
    #: Consecutive failed fetches before a host's breaker opens.
    breaker_threshold: int = 4
    #: Sim days a tripped breaker stays open.
    breaker_cooldown_days: int = 2


class ResilientFetcher:
    """Fault-aware fetch wrapper for the measurement crawlers."""

    def __init__(self, web, policy: Optional[RetryPolicy] = None,
                 rng: Optional[random.Random] = None):
        self.web = web
        self.policy = policy or RetryPolicy()
        # Jitter stream: seed-derived, consumed only when a fault actually
        # fires, so clean runs draw nothing and stay byte-identical.
        # repro: allow-D001 seed derives from the stream-registry hash of a fixed path; only jitter (never simulation state) reads it
        self._rng = rng or random.Random(derive_seed(0, "faults", "retry-jitter"))
        #: Simulated seconds spent backing off (reporting only).
        self.simulated_backoff_s = 0.0
        self._failures: Dict[str, int] = {}
        self._breaker_open_until: Dict[str, int] = {}
        self._day_ordinal: Optional[int] = None
        self._retries_today = 0

    # ------------------------------------------------------------------ #

    def fetch(self, url: str, profile: VisitorProfile, day) -> Response:
        """Fetch with injection, retries, and breaker — same signature as
        :meth:`Web.fetch`, so detectors take it as a drop-in fetcher.  A
        malformed URL raises :class:`~repro.web.hosting.FetchError`, as
        :meth:`Web.fetch` does."""
        injector = getattr(self.web, "fault_injector", None)
        if injector is None:
            return self.web.fetch(url, profile, day)
        try:
            host = parse_url(url).host
        except ValueError as exc:
            raise FetchError(str(exc)) from exc
        day = SimDate(day)
        if day.ordinal != self._day_ordinal:
            self._day_ordinal = day.ordinal
            self._retries_today = 0
        if self._breaker_refuses(host, day):
            PERF.count("faults.breaker.short_circuit")
            return Response(
                status=STATUS_UNREACHABLE, url=url, final_url=url,
                fault=FAULT_CIRCUIT_OPEN,
            )
        policy = self.policy
        response: Optional[Response] = None
        for attempt in range(max(1, policy.max_attempts)):
            response = self._attempt(url, profile, day, attempt, injector)
            fault = response.fault
            if fault not in TRANSIENT_FAULTS:
                # Success, degraded-but-delivered content, or an organic
                # failure (404/502) a retry cannot cure.
                self._failures.pop(host, None)
                return response
            if fault == FAULT_IP_BLOCK:
                # The whole window is blocked; retrying today is futile.
                break
            if attempt + 1 >= policy.max_attempts:
                break
            if self._retries_today >= policy.per_day_retry_budget:
                PERF.count("faults.retry.budget_exhausted")
                break
            self._retries_today += 1
            PERF.count("faults.retried")
            backoff = min(
                policy.backoff_cap_s, policy.base_backoff_s * (2.0 ** attempt)
            )
            self.simulated_backoff_s += backoff * (
                1.0 + policy.jitter * self._rng.random()
            )
        assert response is not None
        self._note_failure(host, day)
        PERF.count("faults.gave_up")
        return response

    #: Bound-method alias so a fetcher can stand in where a ``web`` is
    #: only used for ``.fetch`` — kept for call-site symmetry.
    __call__ = fetch

    # ------------------------------------------------------------------ #

    def _attempt(self, url, profile, day, attempt, injector) -> Response:
        kind = injector.fetch_fault(url, profile, day, attempt)
        if kind is not None:
            return Response(status=STATUS_UNREACHABLE, url=url, final_url=url,
                            fault=kind)
        response = self.web.fetch(url, profile, day)
        if response.ok and response.html:
            html, kind = injector.corrupt_html(response.html, url, day)
            if kind is not None:
                response.html = html
                response.fault = kind
        return response

    def _breaker_refuses(self, host: str, day: SimDate) -> bool:
        open_until = self._breaker_open_until.get(host)
        if open_until is None:
            return False
        if day.ordinal < open_until:
            return True
        del self._breaker_open_until[host]
        self._failures.pop(host, None)
        return False

    def _note_failure(self, host: str, day: SimDate) -> None:
        failures = self._failures.get(host, 0) + 1
        self._failures[host] = failures
        if failures >= self.policy.breaker_threshold:
            self._breaker_open_until[host] = (
                day.ordinal + self.policy.breaker_cooldown_days
            )
            self._failures.pop(host, None)
            PERF.count("faults.breaker.opened")
