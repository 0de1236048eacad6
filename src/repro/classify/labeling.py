"""Manual labeling and the human-machine refinement loop (Section 4.2.3).

The paper hand-labeled 491 pages across 52 campaigns, trained, predicted
the unlabeled remainder, manually *validated* the top-ranked predictions
per campaign (using infrastructure overlap as evidence), folded verified
pages back into the training set, and repeated.

Here, "manual" validation consults the simulation's ground truth — which is
exactly what a domain expert with infiltration access amounts to.  Pages
from campaigns outside the labeled universe (the scenario's background
campaigns) are never seeded and fail validation, so they remain unlabeled
— producing the "unknown" mass of Figure 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.crawler.records import PageArchive


class GroundTruthOracle:
    """host -> true campaign name, from simulator state.

    Stands in for the expert's evidence sources: shared C&C, payment
    processing, WHOIS, analytics accounts.
    """

    def __init__(self, world, labeled_universe: Optional[Set[str]] = None):
        self._world = world
        if labeled_universe is None:
            labeled_universe = {
                c.name for c in world.campaigns() if not c.name.startswith("BG.")
            }
        self.labeled_universe = set(labeled_universe)

    def campaign_of_host(self, host: str) -> Optional[str]:
        store = self._world.store_at(host)
        if store is not None:
            return store.campaign
        pair = self._world.doorway_at(host)
        if pair is not None:
            return pair[0].name
        return None

    def known_campaign_of_host(self, host: str) -> Optional[str]:
        """The expert can only confirm campaigns in the labeled universe."""
        campaign = self.campaign_of_host(host)
        if campaign is None or campaign not in self.labeled_universe:
            return None
        return campaign


@dataclass
class LabeledPage:
    host: str
    html: str
    campaign: str
    #: 'store' or 'doorway' — store templates carry the stronger signal.
    kind: str


def build_seed_labels(
    archive: PageArchive,
    oracle: GroundTruthOracle,
    target_size: int = 491,
    seed: int = 0,
) -> List[LabeledPage]:
    """The initial hand-labeled set: a spread across campaigns, biased the
    way the paper's was — storefront pages first, doorways to fill."""
    rng = random.Random(seed)
    by_campaign: Dict[str, List[LabeledPage]] = {}
    for host, html in archive.stores.items():
        campaign = oracle.known_campaign_of_host(host)
        if campaign is not None:
            by_campaign.setdefault(campaign, []).append(
                LabeledPage(host, html, campaign, "store")
            )
    for host, html in archive.doorways.items():
        campaign = oracle.known_campaign_of_host(host)
        if campaign is not None:
            by_campaign.setdefault(campaign, []).append(
                LabeledPage(host, html, campaign, "doorway")
            )
    seeds: List[LabeledPage] = []
    campaigns = sorted(by_campaign)
    # Round-robin so every campaign with crawled pages gets representation.
    cursor = {name: 0 for name in campaigns}
    for name in campaigns:
        by_campaign[name].sort(key=lambda p: (p.kind != "store", p.host))
    while len(seeds) < target_size:
        progressed = False
        for name in campaigns:
            pages = by_campaign[name]
            if cursor[name] < len(pages):
                seeds.append(pages[cursor[name]])
                cursor[name] += 1
                progressed = True
                if len(seeds) >= target_size:
                    break
        if not progressed:
            break
    rng.shuffle(seeds)
    return seeds


@dataclass
class RefinementRound:
    round_index: int
    candidates: int
    accepted: int
    rejected: int
    labeled_total: int


class RefinementLoop:
    """Iterative expansion of the labeled set with expert validation."""

    def __init__(
        self,
        oracle: GroundTruthOracle,
        confidence_threshold: float = 0.5,
        per_campaign_per_round: int = 10,
    ):
        self.oracle = oracle
        self.confidence_threshold = confidence_threshold
        self.per_campaign_per_round = per_campaign_per_round
        self.history: List[RefinementRound] = []

    def run(
        self,
        classifier_factory,
        labeled: List[LabeledPage],
        unlabeled: Dict[str, Tuple[str, str]],
        rounds: int = 3,
    ) -> Tuple[List[LabeledPage], object]:
        """Run up to ``rounds`` refinement passes.

        ``unlabeled`` maps host -> (html, kind).  Returns the expanded
        labeled set and the final trained classifier.
        """
        labeled = list(labeled)
        remaining = dict(unlabeled)
        classifier = classifier_factory()
        classifier.fit(labeled)
        for round_index in range(rounds):
            if not remaining:
                break
            hosts = sorted(remaining)
            predictions = classifier.predict_pages(
                [remaining[h][0] for h in hosts]
            )
            # Validate the top-ranked predictions per campaign.
            per_campaign: Dict[str, List[Tuple[float, str]]] = {}
            for host, (campaign, prob) in zip(hosts, predictions):
                if prob < self.confidence_threshold:
                    continue
                per_campaign.setdefault(campaign, []).append((prob, host))
            accepted = 0
            rejected = 0
            candidates = 0
            for campaign, ranked in per_campaign.items():
                ranked.sort(reverse=True)
                for prob, host in ranked[: self.per_campaign_per_round]:
                    candidates += 1
                    truth = self.oracle.known_campaign_of_host(host)
                    html, kind = remaining.pop(host)
                    if truth == campaign:
                        labeled.append(LabeledPage(host, html, campaign, kind))
                        accepted += 1
                    else:
                        rejected += 1
            self.history.append(
                RefinementRound(
                    round_index=round_index,
                    candidates=candidates,
                    accepted=accepted,
                    rejected=rejected,
                    labeled_total=len(labeled),
                )
            )
            if accepted == 0:
                break
            classifier = classifier_factory()
            classifier.fit(labeled)
        return labeled, classifier
