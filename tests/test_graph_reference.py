"""The two graph computations checked against networkx, which the package
no longer imports (it is in the ``dev`` extra for these tests).

* ``LinkFarm``'s PageRank must equal ``networkx.pagerank`` over the graph
  the farm's parent build kept, a ``networkx.DiGraph`` grown from the same
  random stream, bit for bit: the floats compare with ``==``.
* ``cluster_infrastructure`` must give the components that
  ``networkx.connected_components`` gives over the parent build's
  doorway/store graph, in the same order and with the same members.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import cluster_infrastructure
from repro.seo.linkfarm import LinkFarm, pagerank
from repro.util.rng import RandomStreams

nx = pytest.importorskip("networkx")


class NetworkxFarm:
    """The farm as a ``networkx.DiGraph``, drawing the same stream."""

    def __init__(self, campaign, streams, farm_size):
        self._rng = streams.child(f"linkfarm:{campaign}").get("build")
        self.graph = nx.DiGraph()
        nodes = [f"farm:{i}" for i in range(farm_size)]
        self.graph.add_nodes_from(nodes)
        for node in nodes:
            for target in self._rng.sample(nodes, min(3, farm_size - 1)):
                if target != node:
                    self.graph.add_edge(node, target)
        self._farm_nodes = nodes

    def add_doorway(self, host, backlinks=None):
        farm_size = len(self._farm_nodes)
        if backlinks is None:
            backlinks = self._rng.randint(max(2, farm_size // 6), max(3, farm_size // 2))
        backlinks = min(backlinks, farm_size)
        self.graph.add_node(host)
        for source in self._rng.sample(self._farm_nodes, backlinks):
            self.graph.add_edge(source, host)


def _assert_same_ranks(farm, reference):
    ranks = nx.pagerank(reference.graph, alpha=0.85)
    assert list(ranks) == list(reference.graph)
    for node, rank in ranks.items():
        assert farm.link_equity(node) == rank, node
        assert farm.backlink_count(node) == reference.graph.in_degree(node), node


def _shapes():
    """(seed, farm size, doorways, explicit backlinks or None): a few
    hundred seeded shapes, then the edge cases."""
    draw = random.Random(20141105)
    shapes = []
    for seed in range(240):
        farm_size = draw.randint(2, 120)
        doorways = draw.randint(0, 60)
        backlinks = draw.choice([None, None, draw.randint(1, 150)])
        shapes.append((seed, farm_size, doorways, backlinks))
    # Two-node farms: each site links to the other or to nothing.
    shapes += [(seed, 2, doorways, None) for seed in range(20) for doorways in (0, 1, 5)]
    # Mostly dangling doorways hanging off a tiny farm.
    shapes += [(seed, farm_size, 60, None) for seed in range(10) for farm_size in (2, 3, 5)]
    return shapes


@pytest.mark.parametrize("seed,farm_size,doorways,backlinks", _shapes())
def test_pagerank_equals_networkx(seed, farm_size, doorways, backlinks):
    farm = LinkFarm("KEY", RandomStreams(seed), farm_size=farm_size)
    reference = NetworkxFarm("KEY", RandomStreams(seed), farm_size)
    for index in range(doorways):
        host = f"door{index}.com"
        farm.add_doorway(host, backlinks)
        reference.add_doorway(host, backlinks)
    _assert_same_ranks(farm, reference)


@pytest.mark.parametrize("seed,farm_size", [(1, 2), (2, 10), (3, 40), (4, 120)])
def test_pagerank_equals_networkx_as_the_farm_grows(seed, farm_size):
    """Grown one doorway at a time, as a campaign grows it, with the ranks
    read after every doorway."""
    farm = LinkFarm("GROW", RandomStreams(seed), farm_size=farm_size)
    reference = NetworkxFarm("GROW", RandomStreams(seed), farm_size)
    _assert_same_ranks(farm, reference)
    for index in range(40):
        farm.add_doorway(f"door{index}.com")
        reference.add_doorway(f"door{index}.com")
        _assert_same_ranks(farm, reference)


def test_pagerank_raises_when_it_does_not_converge():
    with pytest.raises(RuntimeError, match="did not converge"):
        pagerank(3, [0, 0, 1], [1, 2, 2], max_iter=1)


def _networkx_clusters(dataset):
    """Components as the parent build found them: a ``networkx.Graph`` of
    ``d:``/``s:`` nodes in first-seen order, then sorted host lists."""
    graph = nx.Graph()
    for record in dataset.records:
        if record.is_store:
            graph.add_edge(f"d:{record.host}", f"s:{record.landing_host}")
    return [
        (sorted(n[2:] for n in component if n.startswith("d:")),
         sorted(n[2:] for n in component if n.startswith("s:")))
        for component in nx.connected_components(graph)
    ]


def test_clusters_equal_networkx_components(study):
    expected = _networkx_clusters(study.dataset)
    report = cluster_infrastructure(study.dataset)
    assert len(expected) > 1
    assert len(report.clusters) == len(expected)
    for cluster in report.clusters:
        doorways, stores = expected[cluster.index]
        assert cluster.doorway_hosts == doorways
        assert cluster.store_hosts == stores
    # The report lists clusters largest first, ties in component order.
    order = sorted(range(len(expected)),
                   key=lambda i: -(len(expected[i][0]) + len(expected[i][1])))
    assert [c.index for c in report.clusters] == order
