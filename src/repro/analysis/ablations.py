"""Intervention ablations.

The paper's conclusion argues current interventions fail for want of
*coverage* and *responsiveness* and sketches what better ones would look
like.  These ablations run the same scenario under variant intervention
policies and compare the campaigns' ground-truth order volume (the revenue
proxy interventions ultimately target):

* ``no-interventions`` — upper bound on campaign business;
* ``baseline`` — the paper's observed policy mix;
* ``full-path-labels`` — lift the root-only labeling restriction and widen
  detection (Section 5.2.2's counterfactual);
* ``interstitial-labels`` — same coverage, but warnings block the click the
  way GSB malware interstitials do (Section 3.2.1 notes this is policy, not
  technology);
* ``reactive-seizures`` — file weekly, small batches, short legal delay
  (Section 5.3.2's counterfactual);
* ``aggressive-demotion`` — demote detected doorways hard and often;
* ``doorway-seizures`` — footnote 6's alternative: also seize dedicated
  doorway domains (compromised ones stay off-limits for liability);
* ``payment-intervention`` — the paper's Section 4.3.2 future work:
  terminate the concentrated acquiring processors via test-purchase
  evidence (after [24]).
"""

from __future__ import annotations

import gc
import multiprocessing
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

from repro.ecosystem.config import ScenarioConfig
from repro.ecosystem.simulator import Simulator
from repro.crawler.serp_crawler import CrawlPolicy, SearchCrawler
from repro.interventions.search_ops import SearchOpsPolicy
from repro.interventions.payments import PaymentPolicy
from repro.perf.cache import caches_enabled, set_caches_enabled
from repro.perf.gctune import low_pause_gc


@dataclass
class AblationOutcome:
    """Aggregate effect of one intervention configuration."""

    name: str
    #: Ground-truth order creations across every campaign store.
    total_orders: int
    #: Ground-truth completed sales (payments that cleared) — the metric a
    #: payment intervention moves even when checkouts keep happening.
    completed_sales: int
    #: PSRs observed by the measurement crawl.
    psr_count: int
    #: Fraction of PSRs carrying a warning label.
    labeled_fraction: float
    #: Store domains seized by end of window.
    seized_domains: int

    def orders_vs(self, baseline: "AblationOutcome") -> float:
        """Order volume relative to another outcome (1.0 = unchanged)."""
        if baseline.total_orders == 0:
            return 0.0
        return self.total_orders / baseline.total_orders

    def sales_vs(self, baseline: "AblationOutcome") -> float:
        """Completed-sales volume relative to another outcome."""
        if baseline.completed_sales == 0:
            return 0.0
        return self.completed_sales / baseline.completed_sales


def run_ablation(
    name: str, config: ScenarioConfig, crawl_stride: int = 2
) -> AblationOutcome:
    """Run one scenario variant and collect the outcome metrics."""
    with low_pause_gc():
        outcome = _run_ablation(name, config, crawl_stride)
    # The variant's world is garbage now and full of reference cycles (a
    # store's page factory is bound to its campaign, which lists the
    # store).  Only a full pass frees them, and the next variant's
    # low-pause scope would defer that pass again, so several dead worlds
    # could stay resident in one process.
    gc.collect()
    return outcome


def _run_ablation(
    name: str, config: ScenarioConfig, crawl_stride: int
) -> AblationOutcome:
    simulator = Simulator(config)
    world = simulator.build()
    crawler = SearchCrawler(world.web, CrawlPolicy(stride_days=crawl_stride))
    simulator.run(observers=[crawler])
    dataset = crawler.dataset
    labeled = sum(1 for r in dataset.records if r.label != "none")
    seized = sum(
        1 for domain in world.web.domains.seized()
        if world.store_at(domain.name) is not None
    )
    total_orders = sum(s.total_orders_created() for s in world.stores())
    completed = sum(s.total_sales_completed() for s in world.stores())
    return AblationOutcome(
        name=name,
        total_orders=total_orders,
        completed_sales=completed,
        psr_count=len(dataset),
        labeled_fraction=(labeled / len(dataset)) if len(dataset) else 0.0,
        seized_domains=seized,
    )


def ablation_variants(
    base_factory: Callable[[], ScenarioConfig],
) -> Dict[str, ScenarioConfig]:
    """Build the standard variant set from a fresh-config factory.

    The factory is called once per variant so mutations never leak between
    runs.
    """
    variants: Dict[str, ScenarioConfig] = {}

    baseline = base_factory()
    variants["baseline"] = baseline

    off = base_factory()
    off.search_policy = SearchOpsPolicy(
        label_fraction=0.0, label_fraction_root_injected=0.0,
        hard_demotion_hazard_per_day=0.0,
    )
    off.scripted_demotions = []
    off.firms = []
    variants["no-interventions"] = off

    labels = base_factory()
    labels.search_policy = replace(
        labels.search_policy,
        label_root_only=False,
        label_fraction=0.5,
        label_fraction_root_injected=0.8,
        label_delay_median_days=7.0,
    )
    variants["full-path-labels"] = labels

    interstitial = base_factory()
    interstitial.search_policy = replace(
        interstitial.search_policy,
        label_root_only=False,
        label_fraction=0.5,
        label_fraction_root_injected=0.8,
        label_delay_median_days=7.0,
        label_with_interstitial=True,
    )
    variants["interstitial-labels"] = interstitial

    seizures = base_factory()
    for firm in seizures.firms:
        firm.policy = replace(
            firm.policy,
            case_interval_days=7,
            brand_interval_overrides={},
            legal_delay_days=3,
            min_observed_age_days=7,
        )
    variants["reactive-seizures"] = seizures

    demotion = base_factory()
    demotion.search_policy = replace(
        demotion.search_policy,
        hard_demotion_hazard_per_day=0.04,
        hard_demotion_amount=3.0,
    )
    variants["aggressive-demotion"] = demotion

    doorways = base_factory()
    for firm in doorways.firms:
        firm.policy = replace(firm.policy, seize_dedicated_doorways=True)
    variants["doorway-seizures"] = doorways

    payments = base_factory()
    payments.payment_policy = PaymentPolicy(
        start_day=payments.window.start + max(7, len(payments.window) // 5),
        test_purchases_per_week=8,
        termination_threshold=6,
        action_delay_days=7,
    )
    variants["payment-intervention"] = payments

    return variants


#: Fixed reporting order: 'baseline' first, counterfactuals after.
VARIANT_ORDER = (
    "baseline", "no-interventions", "full-path-labels",
    "interstitial-labels", "reactive-seizures", "aggressive-demotion",
    "doorway-seizures", "payment-intervention",
)


def _run_variant(task: Tuple[str, ScenarioConfig, int, bool]) -> AblationOutcome:
    """Pool worker: one variant end to end, in its own process.

    Module-level (picklable) on purpose.  The parent's cache switch rides
    in the task tuple because a programmatic toggle would not survive a
    spawn-context child.
    """
    name, config, crawl_stride, cache_on = task
    set_caches_enabled(cache_on)
    return run_ablation(name, config, crawl_stride)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits warm module caches); spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")


def run_intervention_ablations(
    base_factory: Callable[[], ScenarioConfig],
    crawl_stride: int = 2,
    jobs: int = 1,
) -> List[AblationOutcome]:
    """Run every standard variant; 'baseline' comes first.

    ``jobs > 1`` fans the variants out over a ``multiprocessing`` pool —
    each run is an independent simulation over its own picklable
    :class:`ScenarioConfig`, and simulation is CPU-bound Python, so
    processes (not GIL-bound threads) are what helps.  ``Pool.map``
    returns results in submission order, so the outcome list is identical
    for any job count; a test pins that, along with outcome equality
    against the sequential path.
    """
    variants = ablation_variants(base_factory)
    if jobs <= 1:
        return [run_ablation(name, variants[name], crawl_stride)
                for name in VARIANT_ORDER]
    tasks = [(name, variants[name], crawl_stride, caches_enabled())
             for name in VARIANT_ORDER]
    with _pool_context().Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(_run_variant, tasks)
