"""End-to-end study runner: the library's main entry point.

Reproduces the paper's full methodology in one call:

1. build and run the ecosystem simulation (the stand-in for the live web);
2. crawl daily SERPs with Dagger + VanGogh, building the PSR dataset;
3. create weekly test orders on discovered stores (purchase pairs);
4. hand-label a seed set, train the L1 campaign classifier, refine it, and
   attribute every PSR to a campaign;
5. hand the results to the analysis layer.

    >>> from repro import StudyRun
    >>> from repro.ecosystem import small_preset
    >>> results = StudyRun(small_preset()).execute()   # doctest: +SKIP
    >>> len(results.dataset)                           # doctest: +SKIP
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ecosystem.config import ScenarioConfig
from repro.ecosystem.simulator import Simulator
from repro.ecosystem.world import World
from repro.crawler.records import PageArchive, PsrDataset
from repro.crawler.serp_crawler import CrawlPolicy, SearchCrawler
from repro.faults.checkpoint import Checkpointer, load_checkpoint
from repro.faults.injector import FaultInjector
from repro.faults.profiles import FaultProfile
from repro.faults.retry import RetryPolicy
from repro.orders.purchase_pair import OrderPolicy, TestOrderer
from repro.classify.labeling import (
    GroundTruthOracle,
    LabeledPage,
    RefinementLoop,
    build_seed_labels,
)
from repro.classify.pipeline import AttributionResult, CampaignClassifier
from repro.obs.metrics import MetricsRecorder
from repro.obs.trace import TRACER
from repro.perf.cache import disk_cache
from repro.perf.gctune import low_pause_gc


@dataclass
class StudyResults:
    """Everything the analysis layer consumes."""

    world: World
    simulator: Simulator
    crawler: SearchCrawler
    orderer: TestOrderer
    dataset: PsrDataset
    archive: PageArchive
    oracle: GroundTruthOracle
    classifier: Optional[CampaignClassifier]
    attribution: Optional[AttributionResult]
    labeled_pages: List[LabeledPage] = field(default_factory=list)
    #: Per-sim-day time series sampled while the simulation ran.
    metrics: Optional[MetricsRecorder] = None

    @property
    def supplier(self):
        return self.simulator.supplier

    def headline(self) -> dict:
        """The run's headline metrics as one nested, JSON-serializable dict.

        This is the shared vocabulary of the gate, the chaos drill, and the
        benchmarks: PSR/doorway/store counts, every Table 1–3 cell keyed by
        row, PSR-curve quantiles per vertical, and seized-store lifetime
        brackets per firm.  Values are derived purely from the deterministic
        study artifacts, so two runs of the same scenario produce equal
        trees, cached or not.
        """
        # Local imports: the analysis layer's ablation runner imports
        # StudyRun, so importing analysis at module level would cycle.
        from repro.analysis import (
            DailyAggregates,
            campaign_table,
            label_coverage,
            poisoning_series,
            seized_store_lifetimes,
            seizure_table,
            vertical_table,
        )
        from repro.util.stats import percentile

        dataset = self.dataset
        aggregates = DailyAggregates(dataset)
        tree: dict = {
            "psr": {
                "total": len(dataset),
                "doorways": len(dataset.doorway_hosts()),
                "stores": len(dataset.store_hosts()),
            },
            "labels": {"coverage": label_coverage(dataset).coverage},
        }
        if self.attribution is not None:
            tree["attribution"] = {
                "rate": self.attribution.attribution_rate,
                "campaigns": len(self.attribution.campaigns),
            }
        tree["table1"] = {
            r.vertical: {
                "psrs": r.psrs,
                "doorways": r.doorways,
                "stores": r.stores,
                "campaigns": r.campaigns,
            }
            for r in vertical_table(dataset, aggregates)
        }
        brand_names = [b.name for b in self.world.brand_catalog.all()]
        tree["table2"] = {
            r.campaign: {
                "doorways": r.doorways,
                "stores": r.stores,
                "brands": r.brands,
                "peak_days": r.peak_days,
            }
            for r in campaign_table(dataset, self.archive, brand_names,
                                    aggregates=aggregates)
        }
        tree["table3"] = {
            r.firm: {
                "cases": r.cases,
                "brands": r.brands,
                "seized_domains": r.seized_domains,
                "observed_stores": r.observed_stores,
                "classified_stores": r.classified_stores,
                "campaigns": r.campaigns,
            }
            for r in seizure_table(dataset, self.crawler)
        }
        curve: dict = {}
        for vertical in dataset.verticals():
            values = [v for _, v in
                      poisoning_series(dataset, vertical, 100, aggregates)]
            if not values:
                continue
            curve[vertical] = {
                "min": min(values),
                "p50": percentile(values, 50),
                "p90": percentile(values, 90),
                "max": max(values),
            }
        tree["psr_curve"] = curve
        tree["lifetimes"] = {
            s.firm: {
                "measured": s.measured,
                "mean_lower_days": s.mean_lower_days,
                "mean_upper_days": s.mean_upper_days,
            }
            for s in seized_store_lifetimes(dataset)
        }
        return tree


class StudyRun:
    """Configurable pipeline from scenario to attributed PSR dataset."""

    def __init__(
        self,
        config: ScenarioConfig,
        crawl_policy: Optional[CrawlPolicy] = None,
        order_policy: Optional[OrderPolicy] = None,
        seed_label_count: int = 491,
        refinement_rounds: int = 2,
        classifier_lam: float = 1e-3,
        confidence_threshold: float = 0.5,
        classify: bool = True,
        jobs: int = 1,
        fault_profile: Optional[FaultProfile] = None,
        fault_seed: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every_days: int = 1,
        resume: bool = False,
        die_after_day: Optional[int] = None,
    ):
        self.config = config
        self.crawl_policy = crawl_policy or CrawlPolicy(stride_days=2)
        self.order_policy = order_policy or OrderPolicy()
        self.seed_label_count = seed_label_count
        self.refinement_rounds = refinement_rounds
        self.classifier_lam = classifier_lam
        self.confidence_threshold = confidence_threshold
        self.classify = classify
        if jobs != 1:
            # The crawl runs in this process; ``repro ablations`` is the
            # one place that fans work out over processes.
            raise ValueError(f"a study runs in one process: jobs must be 1, not {jobs!r}")
        #: Set by :meth:`execute` when checkpointing was on:
        #: ``Checkpointer.stats()`` (saves and bytes written).
        self.checkpoint_stats: Optional[dict] = None
        #: Chaos knobs: a fault profile makes the measurement crawl run
        #: against injected failures (ground truth is never perturbed).
        self.fault_profile = fault_profile
        self.fault_seed = fault_seed
        self.retry_policy = retry_policy
        #: Crash-safety knobs: with a checkpoint path the run persists
        #: per-sim-day state; ``resume=True`` continues from it.
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every_days = checkpoint_every_days
        self.resume = resume
        self.die_after_day = die_after_day
        #: Set by :meth:`execute`: the day index the run resumed from
        #: (None when it started fresh).
        self.resumed_from_day: Optional[int] = None

    def execute(self) -> StudyResults:
        # Raised GC thresholds for the duration of the run: with the
        # content-addressed caches resident, default full collections walk
        # the whole cache on the hot path (see repro.perf.gctune).
        with low_pause_gc():
            with TRACER.span("study", seed=self.config.seed,
                             days=len(self.config.window)):
                try:
                    return self._execute()
                finally:
                    disk = disk_cache()
                    if disk is not None:
                        # Persist the entry index and lifetime hit/miss
                        # accounting once simulation and classification
                        # have both used the store, even if the run failed;
                        # a warm run stores little, so the store-driven
                        # flush may never have fired.
                        disk.flush()

    def _execute(self) -> StudyResults:
        simulator, observers, start_index = self._simulation_state()
        crawler, orderer, recorder = observers
        checkpointer = None
        if self.checkpoint_path is not None:
            checkpointer = Checkpointer(
                self.checkpoint_path, self.config,
                every_days=self.checkpoint_every_days,
                die_after_day=self.die_after_day,
            )
        try:
            world = simulator.run(
                observers=observers, start_index=start_index,
                checkpointer=checkpointer,
            )
        finally:
            if checkpointer is not None:
                self.checkpoint_stats = checkpointer.stats()
        if checkpointer is not None:
            # The run completed: a stale checkpoint would otherwise make a
            # later --resume replay the tail of this finished window.
            checkpointer.clear()

        oracle = GroundTruthOracle(world)
        classifier: Optional[CampaignClassifier] = None
        attribution: Optional[AttributionResult] = None
        labeled: List[LabeledPage] = []
        if self.classify and (crawler.archive.stores or crawler.archive.doorways):
            with TRACER.span("classify"):
                labeled, classifier, attribution = self._classify(
                    crawler, oracle)
        # Test-order campaign hints follow attribution (the paper likewise
        # grouped its order data after classifying stores).
        if attribution is not None:
            for tracked in orderer.tracked.values():
                prediction = attribution.host_predictions.get(tracked.key)
                if prediction is not None and prediction[1] >= self.confidence_threshold:
                    tracked.campaign_hint = prediction[0]
        return StudyResults(
            world=world,
            simulator=simulator,
            crawler=crawler,
            orderer=orderer,
            dataset=crawler.dataset,
            archive=crawler.archive,
            oracle=oracle,
            classifier=classifier,
            attribution=attribution,
            labeled_pages=labeled,
            metrics=recorder,
        )

    def _simulation_state(self) -> Tuple[Simulator, List[object], int]:
        """Build (or reload) the simulator and its observers.

        Resuming unpickles the whole object graph from the checkpoint —
        simulator, crawler, orderer, and recorder share live references
        (``crawler.web is simulator.world.web``), so they come back as one
        payload rather than being reconstructed piecemeal.
        """
        if (
            self.resume
            and self.checkpoint_path is not None
            and os.path.exists(self.checkpoint_path)
        ):
            simulator, observers, start_index = load_checkpoint(
                self.checkpoint_path, self.config
            )
            self.resumed_from_day = start_index
            return simulator, list(observers), start_index
        simulator = Simulator(self.config)
        world = simulator.build()
        if self.fault_profile is not None and self.fault_profile.active():
            world.web.fault_injector = FaultInjector(
                self.fault_profile, seed=self.fault_seed
            )
        crawler = SearchCrawler(
            world.web, self.crawl_policy, retry_policy=self.retry_policy
        )
        orderer = TestOrderer(world.web, crawler, self.order_policy)
        # The metrics recorder observes last, after the crawler and orderer
        # have produced the day's records it samples.
        recorder = MetricsRecorder(crawler)
        return simulator, [crawler, orderer, recorder], 0

    def _classify(self, crawler, oracle):
        """Seed-label, refine, and attribute; returns (labeled, classifier,
        attribution) — the latter two ``None`` when too few campaigns seed."""
        classifier: Optional[CampaignClassifier] = None
        attribution: Optional[AttributionResult] = None
        with TRACER.span("seed-labels"):
            labeled = build_seed_labels(
                crawler.archive, oracle, target_size=self.seed_label_count,
                seed=self.config.seed,
            )
        if len({p.campaign for p in labeled}) >= 2:
            seeded_hosts = {p.host for p in labeled}
            unlabeled: Dict[str, tuple] = {}
            for host, html in crawler.archive.stores.items():
                if host not in seeded_hosts:
                    unlabeled[host] = (html, "store")
            for host, html in crawler.archive.doorways.items():
                if host not in seeded_hosts and host not in unlabeled:
                    unlabeled[host] = (html, "doorway")
            with TRACER.span("refine", rounds=self.refinement_rounds):
                loop = RefinementLoop(oracle)
                labeled, classifier = loop.run(
                    classifier_factory=lambda: CampaignClassifier(
                        lam=self.classifier_lam,
                        confidence_threshold=self.confidence_threshold,
                    ),
                    labeled=labeled,
                    unlabeled=unlabeled,
                    rounds=self.refinement_rounds,
                )
            with TRACER.span("attribute"):
                attribution = classifier.attribute(
                    crawler.dataset, crawler.archive)
        return labeled, classifier, attribution
