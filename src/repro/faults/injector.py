"""Seeded, order-independent fault injection.

Every decision the injector makes is a pure function of
``(fault seed, profile name, fault kind, subject key)`` — a SHA-256
digest mapped to a uniform in [0, 1) and compared against the profile's
rate.  No mutable RNG state is consumed, so decisions are independent of
call order and call count: a retry loop asking about attempt 3 gets the
same answer whether or not attempts 1 and 2 were ever asked about, and a
resumed run replays exactly the failures the killed run saw.

The same derivation discipline as :class:`repro.search.ranking.NoiseSource`:
pre-feed a digest prefix once, then each decision is one ``copy()`` plus
one ``update()`` over the subject key.
"""

from __future__ import annotations

import hashlib

from typing import Optional, Tuple

from repro.util.perf import PERF
from repro.web.urls import parse_url

FAULT_TIMEOUT = "timeout"
FAULT_CONNECTION = "connection"
FAULT_IP_BLOCK = "ip-block"
FAULT_TRUNCATED = "truncated"
FAULT_GARBLED = "garbled"
FAULT_SERP_MISSING = "serp-missing"
FAULT_AWSTATS_DOWN = "awstats-down"

#: Faults a retry can plausibly cure (the fetch itself failed).
TRANSIENT_FAULTS = frozenset({FAULT_TIMEOUT, FAULT_CONNECTION, FAULT_IP_BLOCK})


class FaultInjector:
    """Deterministic fault decisions for one (profile, seed) pair."""

    def __init__(self, profile, seed: int = 0):
        self.profile = profile
        self.seed = int(seed)
        self._init_prefix()

    def _init_prefix(self) -> None:
        prefix = hashlib.sha256()
        prefix.update(b"repro-faults")
        prefix.update(b"\x00")
        prefix.update(str(self.seed).encode("utf-8"))
        prefix.update(b"\x00")
        prefix.update(self.profile.name.encode("utf-8"))
        self._prefix = prefix

    def __getstate__(self) -> dict:
        # hashlib objects can't pickle; (profile, seed) rebuilds the prefix.
        return {"profile": self.profile, "seed": self.seed}

    def __setstate__(self, state: dict) -> None:
        self.profile = state["profile"]
        self.seed = state["seed"]
        self._init_prefix()

    # ------------------------------------------------------------------ #

    def _uniform(self, *parts: str) -> float:
        digest = self._prefix.copy()
        for part in parts:
            digest.update(b"\x00")
            digest.update(part.encode("utf-8"))
        raw = digest.digest()
        return int.from_bytes(raw[:8], "big") / 2.0**64

    def _roll(self, rate: float, kind: str, *parts: str) -> bool:
        if rate <= 0.0:
            return False
        if self._uniform(kind, *parts) >= rate:
            return False
        PERF.count(f"faults.injected.{kind}")
        return True

    # ------------------------------------------------------------------ #
    # Fetch-path faults
    # ------------------------------------------------------------------ #

    def fetch_fault(self, url: str, visitor, day, attempt: int = 0) -> Optional[str]:
        """Pre-fetch fault for one attempt, or ``None``.

        IP blocks are checked first (they persist for whole windows and a
        retry cannot cure them within one); timeouts and connection errors
        are keyed per attempt so retries re-roll independently.  The
        visitor's user agent is part of the key so e.g. Dagger's crawler
        and user views fail independently.
        """
        profile = self.profile
        host = parse_url(url).host
        if profile.ip_block_rate > 0.0 and self.host_blocked(host, day):
            PERF.count(f"faults.injected.{FAULT_IP_BLOCK}")
            return FAULT_IP_BLOCK
        key = (url, visitor.user_agent, str(day.ordinal), str(attempt))
        if self._roll(profile.timeout_rate, FAULT_TIMEOUT, *key):
            return FAULT_TIMEOUT
        if self._roll(profile.connection_rate, FAULT_CONNECTION, *key):
            return FAULT_CONNECTION
        return None

    def host_blocked(self, host: str, day) -> bool:
        """Whether ``host`` blocks the crawler's IPs during ``day``'s window.

        Windows partition the calendar into ``ip_block_days``-long spans;
        the decision is keyed per (host, window index) so a block lasts the
        whole window — the multi-day outages SEO kits inflicted on the
        paper's crawlers (Section 3.1).
        """
        profile = self.profile
        if profile.ip_block_rate <= 0.0:
            return False
        window = day.ordinal // max(1, profile.ip_block_days)
        return self._uniform(FAULT_IP_BLOCK, host, str(window)) < profile.ip_block_rate

    def corrupt_html(self, html: str, url: str, day) -> Tuple[str, Optional[str]]:
        """Maybe damage a successfully fetched body.

        Keyed per (url, day) — *not* per attempt — so a damaged page stays
        damaged however many times it is refetched that day, keeping output
        independent of the retry policy in force.
        """
        if not html:
            return html, None
        profile = self.profile
        key = (url, str(day.ordinal))
        if self._roll(profile.truncated_rate, FAULT_TRUNCATED, *key):
            # Keep a deterministic 20–80% prefix: enough to parse partially.
            frac = 0.2 + 0.6 * self._uniform(
                FAULT_TRUNCATED, "cut", url, str(day.ordinal)
            )
            return html[: max(1, int(len(html) * frac))], FAULT_TRUNCATED
        if self._roll(profile.garbled_rate, FAULT_GARBLED, *key):
            # Smash the markup in the back half: tags become plain junk.
            pivot = len(html) // 2
            garbled = html[:pivot] + html[pivot:].replace("<", " ").replace(">", " ")
            return garbled, FAULT_GARBLED
        return html, None

    # ------------------------------------------------------------------ #
    # Crawl-schedule faults
    # ------------------------------------------------------------------ #

    def serp_missing(self, term: str, day) -> bool:
        """Whether the SERP for (term, day) is lost to the crawler."""
        profile = self.profile
        if self._roll(profile.serp_blackout_rate, FAULT_SERP_MISSING, "blackout", str(day.ordinal)):
            return True
        return self._roll(profile.serp_missing_rate, FAULT_SERP_MISSING, term, str(day.ordinal))

    def awstats_down(self, host: str, day) -> bool:
        """Whether ``host``'s AWStats endpoint is unreachable on ``day``."""
        return self._roll(
            self.profile.awstats_down_rate, FAULT_AWSTATS_DOWN, host, str(day.ordinal)
        )
