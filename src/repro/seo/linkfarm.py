"""Backlink farms.

Section 2: doorways "obtain high-ranking either by mimicking the structure
of high reputation sites (typically by creating backlinks to each other) or
by compromising existing sites and exploiting the positive reputation that
they have accrued."  Compromised doorways inherit host authority; this
module supplies the other mechanism — a campaign-operated link farm whose
PageRank-style link equity gives *dedicated* doorways their standing with
the search engine.

The farm is a directed graph: a core of interlinked farm sites (expired
domains, splogs, forum-profile links) pointing at the campaign's dedicated
doorways.  The engine-visible authority of a dedicated doorway is its
PageRank share of the farm, scaled — so bigger farms and better-connected
doorways genuinely rank higher, and the farm's shape is an honest input
rather than a drawn constant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.util.rng import RandomStreams

#: PageRank share -> engine authority scaling.
EQUITY_AUTHORITY_SCALE = 6.0
AUTHORITY_FLOOR = 0.05
AUTHORITY_CAP = 0.55


def pagerank(
    n: int,
    sources: Sequence[int],
    targets: Sequence[int],
    alpha: float = 0.85,
    max_iter: int = 100,
    tol: float = 1.0e-6,
) -> np.ndarray:
    """PageRank of nodes ``0..n-1`` over the edges ``sources[i] -> targets[i]``
    (no edge given twice).

    The sparse-matrix power iteration of the reference PageRank that
    ``tests/test_graph_reference.py`` compares it to, bit for bit: each
    edge carries ``1/outdeg`` of its source; ``x @ A`` adds each target's
    terms in source order, as a CSC matrix-vector product does, hence the
    stable sort; the dangling mass is summed left to right by builtin
    ``sum`` and spread uniformly; it stops once the L1 change falls under
    ``n * tol``.
    """
    src = np.asarray(sources, dtype=np.intp)
    order = np.argsort(src, kind="stable")
    src, dst = src[order], np.asarray(targets, dtype=np.intp)[order]
    outdeg = np.bincount(src, minlength=n).astype(float)
    weight = 1.0 / outdeg[src]
    dangling = np.flatnonzero(outdeg == 0)
    p = np.repeat(1.0 / n, n)
    x = p
    for _ in range(max_iter):
        xlast = x
        x = alpha * (
            np.bincount(dst, weights=weight * x[src], minlength=n)
            + sum(x[dangling]) * p
        ) + (1 - alpha) * p
        if np.absolute(x - xlast).sum() < n * tol:
            return x
    raise RuntimeError(f"PageRank did not converge in {max_iter} iterations")


class LinkFarm:
    """One campaign's backlink network."""

    def __init__(self, campaign: str, streams: RandomStreams, farm_size: int = 40):
        if farm_size < 2:
            raise ValueError("farm_size must be >= 2")
        self.campaign = campaign
        self.farm_size = farm_size
        self._rng = streams.child(f"linkfarm:{campaign}").get("build")
        #: Farm sites ``farm:0``, ``farm:1``, ..., then doorway hosts, in
        #: insertion order; an edge is a position in ``_sources`` and
        #: ``_targets``, which hold node positions.
        self._nodes: List[str] = [f"farm:{i}" for i in range(farm_size)]
        self._sources: List[int] = []
        self._targets: List[int] = []
        self._pagerank: Optional[Dict[str, float]] = None
        # Farm core: sparse random interlinking (splogs cite each other).
        for node in range(farm_size):
            for target in self._rng.sample(range(farm_size), min(3, farm_size - 1)):
                if target != node:
                    self._sources.append(node)
                    self._targets.append(target)

    def add_doorway(self, host: str, backlinks: Optional[int] = None) -> int:
        """Point farm sites at a new dedicated doorway; returns the number
        of backlinks created."""
        if host in self.doorway_hosts():
            raise ValueError(f"doorway {host!r} already in the farm")
        farm_size = self.farm_size
        if backlinks is None:
            backlinks = self._rng.randint(max(2, farm_size // 6), max(3, farm_size // 2))
        backlinks = min(backlinks, farm_size)
        target = len(self._nodes)
        self._nodes.append(host)
        for source in self._rng.sample(range(farm_size), backlinks):
            self._sources.append(source)
            self._targets.append(target)
        self._pagerank = None  # invalidate
        return backlinks

    def _ranks(self) -> Dict[str, float]:
        if self._pagerank is None:
            ranks = pagerank(len(self._nodes), self._sources, self._targets)
            self._pagerank = dict(zip(self._nodes, map(float, ranks)))
        return self._pagerank

    def link_equity(self, host: str) -> float:
        """The doorway's PageRank share of the farm (0 if unknown)."""
        return self._ranks().get(host, 0.0)

    def authority_of(self, host: str) -> float:
        """Engine-visible authority for a dedicated doorway."""
        equity = self.link_equity(host)
        authority = AUTHORITY_FLOOR + equity * EQUITY_AUTHORITY_SCALE
        return min(AUTHORITY_CAP, authority)

    def doorway_hosts(self) -> List[str]:
        return self._nodes[self.farm_size:]

    def backlink_count(self, host: str) -> int:
        """The node's in-degree (0 if unknown)."""
        if host not in self._nodes:
            return 0
        return self._targets.count(self._nodes.index(host))
