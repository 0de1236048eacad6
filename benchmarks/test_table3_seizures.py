"""Table 3: domain seizures per brand-protection firm.

Paper: GBC — 69 cases, 17 brands, 31,819 domains seized, 214 stores
observed in PSRs, 40 classified, 17 campaigns; SMGPA — 47 cases, 11 brands,
8,056 seized, 76 observed, 20 classified, 12 campaigns.  GBC out-seizes
SMGPA across the board; observed stores are a small slice of the Schedule A
totals; classified stores map onto many distinct campaigns.
"""

from repro.analysis import seizure_table
from repro.reporting import render_table

from benchlib import print_comparison

PAPER_TABLE3 = {
    "GBC": (69, 17, 31_819, 214, 40, 17),
    "SMGPA": (47, 11, 8_056, 76, 20, 12),
}


def test_table3_seizure_census(paper_study):
    rows = seizure_table(paper_study.dataset, paper_study.crawler)
    print()
    print(render_table(
        ["Firm", "# Cases", "# Brands", "# Seized", "# Stores",
         "# Classified", "# Campaigns"],
        [[r.firm, r.cases, r.brands, r.seized_domains, r.observed_stores,
          r.classified_stores, r.campaigns] for r in rows],
        title="Table 3 (measured, scaled scenario)",
    ))
    by_firm = {r.firm: r for r in rows}
    gbc = by_firm.get("GBC")
    smgpa = by_firm.get("SMGPA")
    comparison = []
    for firm, paper in PAPER_TABLE3.items():
        row = by_firm.get(firm)
        measured = (
            f"{row.cases} cases / {row.seized_domains} seized / "
            f"{row.observed_stores} stores" if row else "not observed"
        )
        comparison.append(
            (firm, f"{paper[0]} cases / {paper[2]:,} seized / {paper[3]} stores", measured)
        )
    print_comparison("Table 3 per firm", comparison)

    assert gbc is not None, "GBC seizures must surface in crawled PSRs"
    # GBC's program dominates SMGPA's, as in the paper.
    if smgpa is not None:
        assert gbc.seized_domains >= smgpa.seized_domains
        assert gbc.brands >= smgpa.brands
    # Cases are bulk filings: domains-per-case well above 1.
    assert gbc.seized_domains / max(1, gbc.cases) > 2
    # Classified subset is nonempty and spans multiple campaigns.
    assert gbc.classified_stores > 0
    assert gbc.campaigns >= 2
    # Stores observed via PSRs are a subset of all Schedule A domains.
    assert gbc.observed_stores <= gbc.seized_domains
