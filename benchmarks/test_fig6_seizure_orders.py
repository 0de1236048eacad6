"""Figure 6: order-number curves for PHP?P= stores around a domain seizure.

Paper: four international stores (Abercrombie UK/DE, Hollister UK, Woolrich
IT); the Abercrombie-UK domain was seized 2014-02-09, its order-number
growth dropped immediately — but did not stop, because the campaign
redirected doorways to a backup domain within 24 hours, and the sibling
stores kept selling undisturbed.
"""

from repro.analysis import seizure_order_case_study
from repro.reporting import sparkline

from benchlib import print_comparison


def test_fig6_seizure_order_curves(paper_study):
    case = seizure_order_case_study(
        paper_study.dataset, paper_study.orderer, "PHP?P=", 4, paper_study.world,
    )
    assert case.stores, "no PHP?P= stores tracked"

    print()
    print("Figure 6 — PHP?P= store order numbers")
    for track in case.stores:
        numbers = [n - track.samples[0][1] for _, n in track.samples]
        marker = (
            f" [seized day {track.seizure_observed}]"
            if track.seizure_observed is not None else ""
        )
        print(f"  {track.locale_label:<24} {sparkline(numbers, 40)} "
              f"+{numbers[-1] if numbers else 0}{marker}")
    seized = case.seized_tracks()
    print_comparison(
        "Figure 6",
        [
            ("stores plotted", "4 international stores", str(len(case.stores))),
            ("seizure events on plot", "1 (abercrombie[uk], Feb 9)",
             str(len(seized))),
        ],
    )

    # Shape assertions: every curve is monotone (order numbers only grow).
    for track in case.stores:
        numbers = [n for _, n in track.samples]
        assert numbers == sorted(numbers)

    if seized:
        # The seized store's growth stalls in the window right after the
        # seizure (before the backup-domain rotation restores flow) —
        # compare the rate across the seizure boundary, ignoring stores
        # with near-zero activity where the comparison is noise.
        slowed = 0
        active = 0
        for track in seized:
            day = track.seizure_observed
            before = [(d, n) for d, n in track.samples if day - 21 <= d <= day]
            after = [(d, n) for d, n in track.samples if day <= d <= day + 21]
            if len(before) >= 2 and len(after) >= 2:
                rate_before = (before[-1][1] - before[0][1]) / max(1, before[-1][0] - before[0][0])
                rate_after = (after[-1][1] - after[0][1]) / max(1, after[-1][0] - after[0][0])
                if rate_before < 0.2:
                    continue
                active += 1
                if rate_after <= rate_before * 1.2:
                    slowed += 1
        assert active == 0 or slowed >= 1
