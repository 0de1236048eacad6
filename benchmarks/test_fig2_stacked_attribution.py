"""Figure 2: stacked per-campaign share of poisoned search results over
time for four verticals (Abercrombie, Beats By Dre, Louis Vuitton, Uggs).

Paper shape: classified campaigns account for ~58-66% of each vertical's
PSRs; named leaders dominate (e.g., NEWSORG over half of Beats By Dre PSRs
in early December); a thin "penalized" band sits at the bottom; the
remainder is unknown.
"""

import pytest

from repro.analysis import DailyAggregates, stacked_attribution
from repro.reporting import sparkline

from benchlib import print_comparison

FIGURE2_VERTICALS = ("Abercrombie", "Beats By Dre", "Louis Vuitton", "Uggs")

#: Paper: fraction of the vertical's PSRs attributed to known campaigns.
PAPER_CLASSIFIED_FRACTION = {
    "Abercrombie": 0.642,
    "Beats By Dre": 0.622,
    "Louis Vuitton": 0.660,
    "Uggs": 0.58,
}


@pytest.mark.parametrize("vertical", FIGURE2_VERTICALS)
def test_fig2_stacked_campaign_attribution(paper_study, vertical):
    aggregates = DailyAggregates(paper_study.dataset)
    stacked = stacked_attribution(paper_study.dataset, vertical, 5, aggregates)
    assert stacked.ordinals, f"no crawl coverage for {vertical}"

    total_series = [stacked.total_poisoned(i) for i in range(len(stacked.ordinals))]
    print()
    print(f"Figure 2 [{vertical}] — stacked bands (fraction of result slots)")
    for name, series in sorted(stacked.campaign_shares.items()):
        print(f"  {name:<16} {sparkline(series, 50)}  peak {max(series):.3f}")
    print(f"  {'misc':<16} {sparkline(stacked.misc_share, 50)}  peak {max(stacked.misc_share):.3f}")
    print(f"  {'unknown':<16} {sparkline(stacked.unknown_share, 50)}  peak {max(stacked.unknown_share):.3f}")
    print(f"  {'penalized':<16} {sparkline(stacked.penalized_share, 50)}  peak {max(stacked.penalized_share):.3f}")

    # Classified fraction of PSRs for this vertical.
    classified = sum(
        sum(series) for series in stacked.campaign_shares.values()
    ) + sum(stacked.misc_share)
    unknown = sum(stacked.unknown_share)
    denominator = classified + unknown
    classified_fraction = classified / denominator if denominator else 0.0
    print_comparison(
        f"Figure 2 [{vertical}]",
        [
            ("classified PSR fraction",
             f"{PAPER_CLASSIFIED_FRACTION[vertical]:.0%}",
             f"{classified_fraction:.0%}"),
            ("displayed campaigns", "4-6 leaders + misc", str(len(stacked.campaign_shares))),
        ],
    )

    # Shape: bands are valid fractions and stack to the vertical's total.
    for index in range(len(stacked.ordinals)):
        assert 0.0 <= total_series[index] <= 1.0
    # A majority of attributable mass belongs to known campaigns, with a
    # real unknown remainder (paper: 58-66% classified).
    assert 0.3 < classified_fraction <= 1.0
    assert unknown > 0.0
    # The penalized band exists but stays a minority share.
    assert max(stacked.penalized_share) <= max(total_series)
