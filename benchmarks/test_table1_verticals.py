"""Table 1: per-vertical PSRs, doorways, stores, campaigns.

Paper totals: 2,773,044 PSRs, 27,008 doorways, 7,484 stores, 52 campaigns;
Louis Vuitton is the largest vertical by PSRs, Clarisonic the smallest by
doorways.  At benchmark scale the absolute counts shrink ~100x; the rank
order and skew are what must reproduce.
"""

from repro.analysis import DailyAggregates, vertical_table
from repro.reporting import render_table

from benchlib import print_comparison

#: Table 1's published rows: vertical -> (psrs, doorways, stores, campaigns).
PAPER_TABLE1 = {
    "Abercrombie": (117_319, 2_059, 786, 35),
    "Adidas": (102_694, 1_275, 462, 22),
    "Beats By Dre": (342_674, 2_425, 506, 16),
    "Clarisonic": (10_726, 243, 148, 6),
    "Ed Hardy": (99_167, 1_828, 648, 31),
    "Golf": (11_257, 679, 318, 20),
    "Isabel Marant": (153_927, 2_356, 1_150, 35),
    "Louis Vuitton": (523_368, 5_462, 1_246, 34),
    "Moncler": (454_671, 3_566, 912, 38),
    "Nike": (180_953, 3_521, 1_141, 32),
    "Ralph Lauren": (74_893, 1_276, 648, 27),
    "Sunglasses": (93_928, 3_585, 1_269, 34),
    "Tiffany": (37_054, 1_015, 432, 22),
    "Uggs": (405_518, 4_966, 1_015, 39),
    "Watches": (109_016, 3_615, 1_470, 35),
    "Woolrich": (55_879, 1_924, 888, 38),
}


def test_table1_vertical_census(paper_study):
    aggregates = DailyAggregates(paper_study.dataset)
    rows = vertical_table(paper_study.dataset, aggregates)

    by_name = {r.vertical: r for r in rows}
    print()
    print(render_table(
        ["Vertical", "# PSRs", "# Doorways", "# Stores", "# Campaigns"],
        [[r.vertical, r.psrs, r.doorways, r.stores, r.campaigns] for r in rows],
        title="Table 1 (measured, scaled scenario)",
    ))
    total_psrs = sum(r.psrs for r in rows)
    total_doorways = len(paper_study.dataset.doorway_hosts())
    total_stores = len(paper_study.dataset.store_hosts())
    print_comparison(
        "Table 1 totals",
        [
            ("PSRs", "2,773,044", f"{total_psrs:,}"),
            ("doorway domains", "27,008", f"{total_doorways:,}"),
            ("stores", "7,484", f"{total_stores:,}"),
            ("verticals monitored", "16", str(len(rows))),
        ],
    )

    # Shape assertions: all verticals observed, heavy/light ordering holds.
    assert len(rows) == 16
    psrs = {name: row.psrs for name, row in by_name.items()}
    heavy = ("Louis Vuitton", "Moncler", "Uggs", "Beats By Dre")
    light = ("Clarisonic", "Golf")
    for heavy_vertical in heavy:
        for light_vertical in light:
            assert psrs[heavy_vertical] > psrs[light_vertical], (
                heavy_vertical, light_vertical
            )
    # Every vertical is contested by multiple campaigns.
    assert all(row.campaigns >= 2 for row in rows)
