"""Figure 3: per-vertical poisoned-percentage sparklines, top-10 vs top-100.

Paper shape: 13 of 16 verticals exceed ~5% poisoned at some point; the five
most-targeted verticals peak at 31-42% of the top 100; top-100 maxima
exceed top-10 maxima for heavy verticals (it is easier to poison outside
the top 10); lightly-targeted verticals (Clarisonic, Golf) stay near zero.
"""

from repro.analysis import DailyAggregates, sparkline_extremes
from repro.reporting import sparkline_row

from benchlib import print_comparison

#: Paper Figure 3 maxima (%, top-10 / top-100) for reference verticals.
PAPER_MAXIMA = {
    "Moncler": (39.58, 42.45),
    "Louis Vuitton": (20.55, 37.30),
    "Uggs": (17.99, 37.96),
    "Beats By Dre": (23.39, 36.50),
    "Clarisonic": (0.25, 1.32),
    "Golf": (0.35, 1.28),
}


def test_fig3_poisoning_sparklines(paper_study):
    aggregates = DailyAggregates(paper_study.dataset)
    verticals = paper_study.dataset.verticals()

    def build_all():
        return {
            vertical: (
                sparkline_extremes(paper_study.dataset, vertical, 10, aggregates),
                sparkline_extremes(paper_study.dataset, vertical, 100, aggregates),
            )
            for vertical in verticals
        }

    extremes = build_all()

    print()
    print("Figure 3 (measured) — % of search results poisoned")
    print(f"{'vertical':<16} {'top-10':<50} {'top-100'}")
    for vertical in verticals:
        top10, top100 = extremes[vertical]
        row10 = sparkline_row("", [v for _, v in top10.series], width=24)
        row100 = sparkline_row("", [v for _, v in top100.series], width=24)
        print(f"{vertical:<16} {row10.strip():<50} {row100.strip()}")

    comparison = []
    for vertical, (paper10, paper100) in PAPER_MAXIMA.items():
        top10, top100 = extremes[vertical]
        comparison.append((
            vertical,
            f"max {paper10:.1f}% / {paper100:.1f}% (t10/t100)",
            f"max {top10.maximum * 100:.1f}% / {top100.maximum * 100:.1f}%",
        ))
    print_comparison("Figure 3 maxima", comparison)

    # Shape assertions.
    heavy = ("Moncler", "Louis Vuitton", "Uggs", "Beats By Dre")
    light = ("Clarisonic", "Golf")
    for vertical in heavy:
        _, top100 = extremes[vertical]
        assert top100.maximum > 0.09, vertical
    for heavy_vertical in heavy:
        for light_vertical in light:
            assert (
                extremes[heavy_vertical][1].maximum
                > extremes[light_vertical][1].maximum
            ), (heavy_vertical, light_vertical)
    # Minima well below maxima everywhere (bursty campaigns).
    for vertical in verticals:
        _, top100 = extremes[vertical]
        assert top100.minimum < top100.maximum * 0.5 + 1e-9
    # Most verticals cross 5% poisoned at some point (paper: 13 of 16).
    crossing = sum(1 for v in verticals if extremes[v][1].maximum > 0.05)
    assert crossing >= 10
