"""Ranking model.

score = w_auth * authority + w_rel * relevance + w_seo * seo_signal(day)
        - penalty(host, day) + noise

Noise is drawn from a per-(term, day) RNG stream so any SERP is a pure
deterministic function of engine state and the date — the simulator's daily
traffic pass and the measurement crawler see byte-identical rankings.

The model captures the two ways doorways outrank legitimate pages
(Section 2): compromised sites *inherit the host's accrued authority*, and
dedicated doorways buy rank with backlink-farm SEO signal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
# NumPy loads ``numpy.random`` on first use; loading it with this module
# keeps that import out of the day loop and out of a checkpoint load.
import numpy.random  # noqa: F401

from repro.util.rng import RandomStreams
from repro.search.index import IndexedEntry


@dataclass
class RankingModel:
    """Weights and noise for the scoring function."""

    w_authority: float = 1.0
    w_relevance: float = 0.8
    w_seo: float = 0.45
    noise_sigma: float = 0.15

    def score(
        self,
        entry: IndexedEntry,
        day,
        noise: float,
        penalty: float = 0.0,
    ) -> float:
        base = (
            self.w_authority * entry.authority
            + self.w_relevance * entry.relevance
            + self.w_seo * entry.seo_signal(day)
        )
        return base - penalty + noise


class NoiseSource:
    """Deterministic per-(term, day) ranking jitter.

    A *fresh* generator state is derived for every (term, day) so serving
    the same SERP twice yields byte-identical rankings — the property that
    lets the traffic pass and the measurement crawler share results.

    The stream is a PCG64 ``standard_normal`` sequence whose 256-bit state
    (state + odd increment) comes straight from the SHA-256 digest of the
    stream path and ``term@ordinal`` — the same derivation discipline as
    :func:`repro.util.rng.derive_seed`, just consuming the whole digest.
    Injecting that state into one persistent :class:`numpy.random.Generator`
    costs ~1.5 µs, an order of magnitude under either Mersenne Twister's
    ``init_by_array`` seeding, which is what makes per-query fresh streams
    affordable on the SERP hot path.  Determinism rests on NumPy's stream-
    compatibility guarantee for named bit generators (NEP 19): PCG64 and
    the ziggurat ``standard_normal`` are version-stable.

    :meth:`batch` (the engine's path) and :meth:`for_serp` (the scalar
    reference) consume the same per-(term, day) state sequentially, so a
    batch of ``k`` equals ``k`` scalar draws bit for bit —
    ``tests/test_search.py`` pins this equivalence.
    """

    def __init__(self, streams: RandomStreams, sigma: float):
        self.sigma = sigma
        self._seed_path = (streams.base_seed, streams.path)
        self._init_state()

    def _init_state(self) -> None:
        base_seed, path = self._seed_path
        # Pre-feed the stream path; per-query hashing is then one copy()
        # plus one update() over "term@ordinal".
        prefix = hashlib.sha256()
        prefix.update(str(base_seed).encode("utf-8"))
        for name in tuple(path) + ("ranking-noise",):
            prefix.update(b"\x00")
            prefix.update(name.encode("utf-8"))
        self._prefix = prefix
        self._pcg = np.random.PCG64(0)
        self._generator = np.random.Generator(self._pcg)
        # The state setter reads values out immediately, so one template
        # dict can be mutated and re-submitted per query.
        self._inner: dict = {"state": 0, "inc": 0}
        self._template: dict = {
            "bit_generator": "PCG64",
            "state": self._inner,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def __getstate__(self) -> dict:
        # hashlib objects can't pickle; every per-(term, day) stream is
        # derived fresh, so (sigma, seed path) fully determines behaviour.
        return {"sigma": self.sigma, "_seed_path": self._seed_path}

    def __setstate__(self, state: dict) -> None:
        self.sigma = state["sigma"]
        self._seed_path = state["_seed_path"]
        self._init_state()

    def _state_for(self, term: str, day) -> dict:
        digest = self._prefix.copy()
        digest.update(b"\x00")
        digest.update(f"{term}@{day.ordinal}".encode("utf-8"))
        raw = digest.digest()
        inner = self._inner
        inner["state"] = int.from_bytes(raw[:16], "big")
        # PCG64 increments must be odd to cover the full period.
        inner["inc"] = int.from_bytes(raw[16:], "big") | 1
        return self._template

    def for_serp(self, term: str, day):
        """A scalar drawer over the (term, day) stream: ``k`` calls yield
        exactly ``batch(term, day, k)``, one value at a time."""
        pcg = np.random.PCG64(0)
        pcg.state = self._state_for(term, day)
        draw = np.random.Generator(pcg).standard_normal
        sigma = self.sigma
        return lambda: sigma * float(draw())

    def batch(self, term: str, day, k: int) -> np.ndarray:
        """``k`` noise values from the fresh (term, day) stream."""
        if k <= 0:
            return np.empty(0, dtype=np.float64)
        self._pcg.state = self._state_for(term, day)
        out = self._generator.standard_normal(k)
        out *= self.sigma
        return out
