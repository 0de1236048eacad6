"""Figure 4: PSR prevalence vs. order activity for four campaigns (KEY,
MOONKIS, VERA, PHP?P=).

Paper shape: order rates track search visibility in all four campaigns;
KEY's PSRs collapse in mid-December after penalization and its stores stop
taking orders; MOONKIS sustains order volume from top-100 (not top-10)
visibility alone.
"""

import pytest

from repro.analysis import DailyAggregates, campaign_figure4
from repro.reporting import sparkline

from benchlib import print_comparison

FIGURE4_CAMPAIGNS = ("KEY", "MOONKIS", "VERA", "PHP?P=")

#: Paper panel maxima: campaign -> (volume, rate/day, top100, top10).
PAPER_PANELS = {
    "KEY": (132, 5.80, 1943, 172),
    "MOONKIS": (1273, 25.33, 645, 170),
    "VERA": (1742, 16.43, 357, 25),
    "PHP?P=": (2107, 17.82, 389.66, 76),
}


@pytest.mark.parametrize("campaign", FIGURE4_CAMPAIGNS)
def test_fig4_campaign_panel(paper_study, campaign):
    aggregates = DailyAggregates(paper_study.dataset)
    panel = campaign_figure4(
        paper_study.dataset, paper_study.orderer, campaign, 4, 7, aggregates,
    )
    ordinals = sorted(panel.top100_series)
    assert ordinals, f"{campaign} never appeared in crawled SERPs"
    series100 = [panel.top100_series[o] for o in ordinals]
    series10 = [panel.top10_series.get(o, 0) for o in ordinals]
    print()
    print(f"Figure 4 [{campaign}]")
    print(f"  top-100 PSRs/day {sparkline(series100, 50)} max {max(series100)}")
    print(f"  top-10  PSRs/day {sparkline(series10, 50)} max {max(series10)}")
    if panel.rate_bins:
        rates = [r for _, r in panel.rate_bins]
        print(f"  order rate       {sparkline(rates, 50)} max {max(rates):.1f}/day")
    if panel.volume_points:
        print(f"  cumulative volume samples: {len(panel.volume_points)}, "
              f"final {panel.volume_points[-1][1]:.0f}")
    print(f"  visibility/order correlation: {panel.visibility_order_correlation:.2f}")

    paper = PAPER_PANELS[campaign]
    print_comparison(
        f"Figure 4 [{campaign}] maxima",
        [
            ("order volume", f"{paper[0]:,}", f"{(panel.volume_points[-1][1] if panel.volume_points else 0):.0f}"),
            ("order rate /day", f"{paper[1]}", f"{panel.peak_rate:.2f}"),
            ("top-100 PSRs/day", f"{paper[2]}", str(panel.max_top100)),
            ("top-10 PSRs/day", f"{paper[3]}", str(panel.max_top10)),
        ],
    )

    # Shape: top-10 counts never exceed top-100 counts.
    for ordinal in ordinals:
        assert panel.top10_series.get(ordinal, 0) <= panel.top100_series[ordinal]
    if campaign == "KEY":
        # The penalization collapse: late-window visibility is a small
        # fraction of the early-window peak.
        demotion = next(
            e for e in paper_study.world.events.of_kind("campaign_demotion")
            if e.payload["campaign"] == "KEY"
        )
        before = [v for o, v in panel.top100_series.items() if o < demotion.day.ordinal]
        after = [v for o, v in panel.top100_series.items() if o > demotion.day.ordinal + 7]
        assert before
        mean_after = (sum(after) / len(after)) if after else 0.0
        assert mean_after < (sum(before) / len(before)) * 0.3
    elif panel.rate_bins and len(panel.rate_bins) >= 4:
        # Other campaigns: visibility and orders co-move.
        assert panel.visibility_order_correlation > -0.2
