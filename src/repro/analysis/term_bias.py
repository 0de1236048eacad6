"""Term-selection bias check (Section 4.1.1).

Any SERP measurement is biased toward its chosen terms.  The paper
validated its two selection methods (keywords extracted from KEY doorway
URLs vs. Google-Suggest expansion) by re-crawling ten verticals for one day
with an *alternate* term sample: only 4 of 1,000 terms overlapped, yet PSR
rates and per-campaign attribution matched — evidence the monitored subset
was representative.

This module reproduces that experiment: draw an alternate sample from each
vertical's term universe, query the engine for one day with both sets, and
compare poisoning rates and campaign mixes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class TermSetObservation:
    """One day's crawl over one term set in one vertical."""

    terms: List[str]
    result_slots: int
    psr_count: int
    by_campaign: Dict[str, int] = field(default_factory=dict)

    @property
    def psr_fraction(self) -> float:
        if self.result_slots == 0:
            return 0.0
        return self.psr_count / self.result_slots

    def campaign_shares(self) -> Dict[str, float]:
        total = sum(self.by_campaign.values())
        if total == 0:
            return {}
        return {name: count / total for name, count in self.by_campaign.items()}


@dataclass
class BiasCheckResult:
    """Aggregate outcome of the alternate-terms experiment."""

    vertical: str
    overlap_terms: int
    original: TermSetObservation
    alternate: TermSetObservation

    @property
    def fraction_gap(self) -> float:
        """Absolute difference in poisoned fraction between the sets."""
        return abs(self.original.psr_fraction - self.alternate.psr_fraction)

    def campaign_distribution_distance(self) -> float:
        """Total-variation distance between campaign mixes (0 = identical)."""
        a = self.original.campaign_shares()
        b = self.alternate.campaign_shares()
        names = set(a) | set(b)
        if not names:
            return 0.0
        return 0.5 * sum(abs(a.get(n, 0.0) - b.get(n, 0.0)) for n in names)


def alternate_term_sample(
    vertical, count: int, seed: int = 0
) -> List[str]:
    """An independent sample from the vertical's term universe — the stand-in
    for regenerating terms with the other selection method."""
    rng = random.Random(("alt-terms", vertical.name, seed).__repr__())
    count = min(count, len(vertical.universe))
    return sorted(rng.sample(vertical.universe, count))


def _observe(world, day, terms: Sequence[str]) -> TermSetObservation:
    observation = TermSetObservation(terms=list(terms), result_slots=0, psr_count=0)
    for term in terms:
        serp = world.engine.serp(term, day)
        observation.result_slots += len(serp.results)
        for result in serp.results:
            pair = world.doorway_at(result.host)
            if pair is None:
                continue
            observation.psr_count += 1
            campaign = pair[0].name
            observation.by_campaign[campaign] = (
                observation.by_campaign.get(campaign, 0) + 1
            )
    return observation


def term_bias_check(
    world, day, vertical_name: str, seed: int = 0
) -> BiasCheckResult:
    """Run the Section 4.1.1 experiment for one vertical on one day.

    Crawls the monitored terms and an alternate universe sample side by
    side (PSR identification here uses ground truth rather than re-running
    Dagger, since the question is about *term* bias, not detector recall).
    """
    vertical = world.verticals[vertical_name]
    alternate = alternate_term_sample(vertical, len(vertical.terms), seed)
    overlap = len(set(alternate) & set(vertical.terms))
    return BiasCheckResult(
        vertical=vertical_name,
        overlap_terms=overlap,
        original=_observe(world, day, vertical.terms),
        alternate=_observe(world, day, alternate),
    )


def run_bias_experiment(
    world, day, vertical_names: Optional[Sequence[str]] = None, seed: int = 0
) -> List[BiasCheckResult]:
    """The full experiment across verticals (the paper used the ten
    non-composite KEY verticals)."""
    if vertical_names is None:
        vertical_names = [
            name for name, v in sorted(world.verticals.items()) if not v.composite
        ]
    return [term_bias_check(world, day, name, seed) for name in vertical_names]
