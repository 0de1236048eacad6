"""Section 4.5: supply-side shipment records.

Paper: 279K shipping records scraped over nine months via the supplier's
bulk order-status lookup; 256K delivered, 4K seized at source, 15K seized
at destination, 1,319 returned; US (90K), Japan (57K), Australia (39K) the
top destinations, >81% including Western Europe.
"""

from repro.analysis.supplier import supplier_summary

from benchlib import print_comparison


def test_supplier_shipment_census(paper_study):
    supplier = paper_study.supplier
    assert supplier is not None

    records = supplier.scrape_all()
    summary = supplier_summary(records)

    top3 = sorted(summary.by_destination.items(), key=lambda kv: -kv[1])[:3]
    print_comparison(
        "Section 4.5 supplier scrape",
        [
            ("records", "279K over 9 months", f"{summary.total_records:,}"),
            ("delivered", "256K (91.8%)",
             f"{summary.delivered:,} ({summary.delivery_rate:.1%})"),
            ("seized at source", "4K",
             f"{summary.seized_at_source:,}"),
            ("seized at destination", "15K",
             f"{summary.seized_at_destination:,}"),
            ("returned", "1,319", f"{summary.returned:,}"),
            ("top destinations", "US 90K / JP 57K / AU 39K",
             " / ".join(f"{c} {n:,}" for c, n in top3)),
            ("US+JP+AU+W.Europe share", ">81%",
             f"{summary.top_regions_fraction:.0%}"),
        ],
    )

    # Shape assertions.
    assert summary.total_records > 1000
    assert summary.delivery_rate > 0.88
    assert summary.seized_at_destination > summary.seized_at_source
    assert summary.returned < summary.delivered * 0.02
    assert [c for c, _ in top3] == ["US", "JP", "AU"]
    assert summary.top_regions_fraction > 0.78

    # The scrape interface itself respects the 20-id bulk limit.
    import pytest
    with pytest.raises(ValueError):
        supplier.lookup(list(range(21)))

    # MSVALIDATE's completed orders route through this supplier.
    campaigns = {r.campaign for r in records}
    assert "MSVALIDATE" in campaigns
