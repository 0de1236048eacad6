"""Tests for the paper-flagged extensions: the payment intervention
(§4.3.2's future work), the term-selection bias experiment (§4.1.1), and
infrastructure-graph clustering (§4.2.3's validation evidence)."""

import pytest

from repro.util.rng import RandomStreams
from repro.util.simtime import SimDate
from repro.ecosystem import Simulator, small_preset
from repro.market.payments import default_payment_network
from repro.interventions.payments import PaymentPolicy
from repro.analysis import (
    alternate_term_sample,
    cluster_infrastructure,
    run_bias_experiment,
    term_bias_check,
)
from repro.analysis.infrastructure import build_infrastructure_graph


class TestPaymentNetwork:
    def test_blacklist_and_survivors(self):
        network = default_payment_network()
        network.blacklist("Realypay")
        assert network.is_blacklisted("Realypay")
        assert "Realypay" in network.blacklisted()
        assert all(p.name != "Realypay" for p in network.surviving_processors())

    def test_blacklist_unknown_rejected(self):
        with pytest.raises(KeyError):
            default_payment_network().blacklist("NotAProcessor")

    def test_reassign_avoids_blacklisted(self):
        network = default_payment_network()
        streams = RandomStreams(1)
        network.assign("s1", streams)
        network.blacklist("Realypay")
        network.blacklist("Mallpayment")
        replacement = network.reassign("s1", streams)
        assert replacement is not None
        assert not network.is_blacklisted(replacement.name)
        assert network.processor_of("s1") is replacement

    def test_reassign_none_when_all_terminated(self):
        network = default_payment_network()
        streams = RandomStreams(1)
        network.assign("s1", streams)
        for processor in network.processors:
            network.blacklist(processor.name)
        assert network.reassign("s1", streams) is None


def _payment_scenario(start_offset=20):
    config = small_preset(days=80)
    config.payment_policy = PaymentPolicy(
        start_day=config.window.start + start_offset,
        test_purchases_per_week=8,
        termination_threshold=4,
        action_delay_days=5,
    )
    return config


class TestPaymentIntervention:
    def test_terminations_happen_and_are_logged(self):
        sim = Simulator(_payment_scenario())
        world = sim.run()
        assert sim.payment_team is not None
        assert sim.payment_team.terminations
        events = world.events.of_kind("processor_termination")
        assert len(events) == len(sim.payment_team.terminations)
        for term in sim.payment_team.terminations:
            assert term.evidence_count >= 4
            assert world.payment_network.is_blacklisted(term.processor)

    def test_purchases_reveal_concentrated_banks(self):
        sim = Simulator(_payment_scenario())
        sim.run()
        banks = sim.payment_team.banks_observed()
        # The paper's buys revealed three banks; ours has three total.
        assert 1 <= len(banks) <= 3

    def test_sales_suppressed_relative_to_no_intervention(self):
        with_intervention = Simulator(_payment_scenario(start_offset=10))
        with_intervention.run()
        without = Simulator(small_preset(days=80))
        without.run()
        sales_with = sum(
            s.total_sales_completed() for s in with_intervention.world.stores()
        )
        sales_without = sum(s.total_sales_completed() for s in without.world.stores())
        assert sales_with < sales_without

    def test_orders_keep_flowing_while_sales_stop(self):
        """The intervention's signature: checkouts continue, payments fail."""
        sim = Simulator(_payment_scenario(start_offset=10))
        world = sim.run()
        terminations = sim.payment_team.terminations
        assert terminations
        first = min(t.day for t in terminations)
        orders_after = sum(
            s.orders_created_on(first + offset)
            for s in world.stores() for offset in range(1, 15)
        )
        assert orders_after > 0

    def test_campaigns_resign_with_survivors(self):
        sim = Simulator(_payment_scenario(start_offset=10))
        world = sim.run()
        blacklisted = set(world.payment_network.blacklisted())
        assert blacklisted
        if len(blacklisted) < len(world.payment_network.processors):
            still_frozen = [
                s.store_id for s in world.stores()
                if s.processor.name in blacklisted
            ]
            # Nearly every store should have re-signed by end of window.
            assert len(still_frozen) <= len(world.stores()) * 0.2

    def test_disabled_by_default(self):
        sim = Simulator(small_preset(days=30))
        sim.run()
        assert sim.payment_team is None


@pytest.fixture(scope="module")
def universe_world():
    config = small_preset(days=50)
    config.term_universe_factor = 2.0
    sim = Simulator(config)
    return sim.run()


class TestTermBias:
    def test_universe_superset_of_monitored(self, universe_world):
        for vertical in universe_world.verticals.values():
            assert set(vertical.terms) <= set(vertical.universe)
            assert len(vertical.universe) >= len(vertical.terms) * 1.5
            assert vertical.unmonitored_terms()

    def test_alternate_sample_from_universe(self, universe_world):
        vertical = universe_world.verticals["Uggs"]
        alternate = alternate_term_sample(vertical, len(vertical.terms), seed=2)
        assert len(alternate) == len(vertical.terms)
        assert set(alternate) <= set(vertical.universe)

    def test_alternate_sample_deterministic(self, universe_world):
        vertical = universe_world.verticals["Uggs"]
        a = alternate_term_sample(vertical, 5, seed=2)
        b = alternate_term_sample(vertical, 5, seed=2)
        assert a == b
        assert a != alternate_term_sample(vertical, 5, seed=3)

    def test_bias_check_rates_agree(self, universe_world):
        day = universe_world.window.end
        results = run_bias_experiment(universe_world, day, seed=1)
        assert results
        for result in results:
            assert 0.0 <= result.original.psr_fraction <= 1.0
            assert 0.0 <= result.alternate.psr_fraction <= 1.0
            # Same universe, same campaigns: rates within a few points.
            assert result.fraction_gap < 0.12

    def test_overlap_is_partial(self, universe_world):
        day = universe_world.window.end
        result = term_bias_check(universe_world, day, "Uggs", seed=1)
        assert 0 <= result.overlap_terms < len(result.original.terms)

    def test_distribution_distance_bounded(self, universe_world):
        day = universe_world.window.end
        result = term_bias_check(universe_world, day, "Louis Vuitton", seed=1)
        assert 0.0 <= result.campaign_distribution_distance() <= 1.0


class TestInfrastructureGraph:
    def test_graph_is_bipartite_shaped(self, study):
        """Every edge joins a PSR's doorway host to the store it landed
        on, weighted by how many PSRs did."""
        edges = build_infrastructure_graph(study.dataset)
        landings = [(r.host, r.landing_host)
                    for r in study.dataset.records if r.is_store]
        assert edges
        assert list(edges) == list(dict.fromkeys(landings))
        assert all(edges[pair] == landings.count(pair) for pair in edges)

    def test_components_match_ground_truth_campaigns(self, study):
        """Infrastructure is not shared across campaigns, so each component
        maps onto exactly one true campaign."""
        report = cluster_infrastructure(study.dataset)
        assert report.clusters
        for cluster in report.multi_host_clusters():
            true_campaigns = set()
            for host in cluster.doorway_hosts:
                pair = study.world.doorway_at(host)
                if pair is not None:
                    true_campaigns.add(pair[0].name)
            assert len(true_campaigns) == 1, cluster.doorway_hosts[:3]

    def test_purity_against_classifier_high(self, study):
        report = cluster_infrastructure(study.dataset)
        assert report.mean_purity > 0.9

    def test_rotated_store_domains_stay_in_one_cluster(self, study):
        """A store's rotated domains share doorways, so the infrastructure
        view keeps them together — the analyst's rotation evidence."""
        report = cluster_infrastructure(study.dataset)
        rotated = [
            t for t in study.orderer.tracked.values() if len(t.hosts_seen) > 1
        ]
        if not rotated:
            pytest.skip("no rotations tracked in this run")
        cluster_of_host = {}
        for cluster in report.clusters:
            for host in cluster.store_hosts:
                cluster_of_host[host] = cluster.index
        for tracked in rotated:
            indices = {
                cluster_of_host[h] for h in tracked.hosts_seen if h in cluster_of_host
            }
            assert len(indices) <= 1
