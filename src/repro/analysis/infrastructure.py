"""Infrastructure-graph clustering (Section 4.2.3's validation evidence).

The paper's analysts validated classifier predictions by checking *shared
infrastructure*: "distinct SEO campaigns are unlikely to share certain
infrastructure such as SEO doorway pages and C&Cs, payment processing, and
customer support."  That intuition is a graph property: build a bipartite
graph of doorway hosts and landing-store hosts from the crawled PSRs, and
the connected components are infrastructure clusters — an independent,
classifier-free grouping of the ecosystem.

Comparing components against classifier attribution gives a purity score
the analyst can use to audit the model (and to merge campaigns the
classifier split, or flag ones it conflated).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.crawler.records import PsrDataset


def build_infrastructure_graph(dataset: PsrDataset) -> Dict[Tuple[str, str], int]:
    """Bipartite doorway<->store graph from PSR landings.

    Maps each (doorway host, store host) edge, in first-seen order, to how
    many PSR observations connected the pair.  Stores sharing a doorway (or
    doorways sharing a store) end up in one component — including rotated
    store domains, which stay linked through their common doorways.
    """
    edges: Dict[Tuple[str, str], int] = {}
    for record in dataset.records:
        if record.is_store:
            pair = (record.host, record.landing_host)
            edges[pair] = edges.get(pair, 0) + 1
    return edges


def _components(edges: Dict[Tuple[str, str], int]) -> List[List[Tuple[str, str]]]:
    """Connected components of the graph's ``(kind, host)`` nodes, by
    union-find.  They come in the order of their earliest-seen node, the
    order a graph search started from each unvisited node in first-seen
    order yields them; ``tests/test_graph_reference.py`` pins it."""
    parent: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def find(node: Tuple[str, str]) -> Tuple[str, str]:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for doorway, store in edges:
        left, right = ("doorway", doorway), ("store", store)
        parent.setdefault(left, left)
        parent.setdefault(right, right)
        left, right = find(left), find(right)
        if left != right:
            parent[right] = left
    components: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
    for node in parent:
        components.setdefault(find(node), []).append(node)
    return list(components.values())


@dataclass
class InfrastructureCluster:
    """One connected component of the infrastructure graph."""

    index: int
    doorway_hosts: List[str]
    store_hosts: List[str]
    #: Classifier campaign labels found inside the cluster, with counts.
    campaign_mix: Counter = field(default_factory=Counter)

    @property
    def size(self) -> int:
        return len(self.doorway_hosts) + len(self.store_hosts)

    @property
    def dominant_campaign(self) -> Optional[str]:
        named = Counter({c: n for c, n in self.campaign_mix.items() if c})
        if not named:
            return None
        return named.most_common(1)[0][0]

    @property
    def purity(self) -> float:
        """Share of labeled nodes agreeing with the dominant campaign."""
        named_total = sum(n for c, n in self.campaign_mix.items() if c)
        if named_total == 0:
            return 0.0
        dominant = self.dominant_campaign
        return self.campaign_mix[dominant] / named_total


@dataclass
class InfrastructureReport:
    clusters: List[InfrastructureCluster]
    #: Weighted mean purity over clusters with any labeled node.
    mean_purity: float
    #: Campaigns whose hosts span multiple clusters (possible split or
    #: genuinely partitioned infrastructure).
    fragmented_campaigns: Dict[str, int]

    def multi_host_clusters(self) -> List[InfrastructureCluster]:
        return [c for c in self.clusters if c.size > 1]


def cluster_infrastructure(
    dataset: PsrDataset, host_campaigns: Optional[Dict[str, str]] = None
) -> InfrastructureReport:
    """Component clustering plus agreement with campaign attribution.

    ``host_campaigns`` maps host -> campaign label; by default it is read
    off the dataset's attributed records.
    """
    if host_campaigns is None:
        host_campaigns = {}
        for record in dataset.records:
            if record.campaign:
                host_campaigns.setdefault(record.host, record.campaign)
                if record.is_store:
                    host_campaigns.setdefault(record.landing_host, record.campaign)

    components = _components(build_infrastructure_graph(dataset))
    clusters: List[InfrastructureCluster] = []
    campaign_cluster_count: Counter = Counter()
    for index, component in enumerate(components):
        doorways = sorted(host for kind, host in component if kind == "doorway")
        stores = sorted(host for kind, host in component if kind == "store")
        mix: Counter = Counter()
        seen_campaigns: Set[str] = set()
        for host in doorways + stores:
            label = host_campaigns.get(host, "")
            mix[label] += 1
            if label:
                seen_campaigns.add(label)
        for campaign in seen_campaigns:
            campaign_cluster_count[campaign] += 1
        clusters.append(
            InfrastructureCluster(
                index=index, doorway_hosts=doorways, store_hosts=stores,
                campaign_mix=mix,
            )
        )

    labeled_clusters = [c for c in clusters if any(c for c in c.campaign_mix if c)]
    weights = [sum(n for label, n in c.campaign_mix.items() if label) for c in labeled_clusters]
    purities = [c.purity for c in labeled_clusters]
    total_weight = sum(weights)
    mean_purity = (
        sum(w * p for w, p in zip(weights, purities)) / total_weight
        if total_weight else 0.0
    )
    fragmented = {
        campaign: count
        for campaign, count in campaign_cluster_count.items()
        if count > 1
    }
    clusters.sort(key=lambda c: -c.size)
    return InfrastructureReport(
        clusters=clusters, mean_purity=mean_purity,
        fragmented_campaigns=fragmented,
    )
