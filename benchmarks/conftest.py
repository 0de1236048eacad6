"""Benchmark fixtures.

The full paper-preset study (16 verticals, 52 labeled + background
campaigns, 245 days) runs once per session at a reduced scale; every
table/figure test then runs its *analysis* computation and prints the
paper-vs-measured comparison.

Scale note: the paper crawled 100 terms/vertical daily with thousands of
doorways; the benchmark scenario uses SCALE=0.25 of the doorway/store
census, 8 terms/vertical, and a 3-day crawl stride.  (The content-
addressed caches made this scale affordable: the pre-cache baseline ran
at 0.06.)  Absolute counts are still ~25x smaller than the paper's;
comparisons are about *shape* (who wins, skew, ratios, crossovers), as
DESIGN.md documents.
"""

from __future__ import annotations

import pytest

from repro import StudyRun
from repro.crawler import CrawlPolicy
from repro.ecosystem import paper_preset

SCALE = 0.25
TERMS_PER_VERTICAL = 8
CRAWL_STRIDE_DAYS = 3


@pytest.fixture(scope="session")
def paper_study():
    config = paper_preset(scale=SCALE, terms_per_vertical=TERMS_PER_VERTICAL)
    run = StudyRun(
        config,
        crawl_policy=CrawlPolicy(stride_days=CRAWL_STRIDE_DAYS),
        seed_label_count=491,
        refinement_rounds=1,
    )
    return run.execute()
