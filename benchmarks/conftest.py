"""Benchmark fixtures.

The full paper-preset study (16 verticals, 52 labeled + background
campaigns, 245 days) runs once per benchmark session at a reduced scale;
every table/figure benchmark then measures its *analysis* computation and
prints the paper-vs-measured comparison.

Scale note: the paper crawled 100 terms/vertical daily with thousands of
doorways; the benchmark scenario uses SCALE=0.25 of the doorway/store
census, 8 terms/vertical, and a 3-day crawl stride.  (The content-
addressed caches made this scale affordable: the pre-cache baseline ran
at 0.06.)  Absolute counts are still ~25x smaller than the paper's;
comparisons are about *shape* (who wins, skew, ratios, crossovers), as
DESIGN.md documents.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import benchlib
from repro import StudyRun
from repro.crawler import CrawlPolicy
from repro.ecosystem import paper_preset

#: The repository root, so benchmarks can import tier-1 test helpers
#: (the scalar SERP reference, ``tests/serp_reference.py``).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

SCALE = 0.25
TERMS_PER_VERTICAL = 8
CRAWL_STRIDE_DAYS = 3

#: Provenance fields every BENCH_*.json must carry (see benchlib).
_MANIFEST_REQUIRED = ("schema", "version", "git_sha", "cpus", "created_at")


def pytest_sessionfinish(session, exitstatus):
    """Fail the benchmark session if any BENCH file lacks its manifest."""
    missing = []
    for path in benchlib.WRITTEN_PATHS:
        with open(path) as handle:
            payload = json.load(handle)
        manifest = payload.get("manifest")
        if not isinstance(manifest, dict) or any(
                key not in manifest for key in _MANIFEST_REQUIRED):
            missing.append(path)
    if missing:
        raise pytest.UsageError(
            f"BENCH files missing run manifest: {', '.join(missing)}")


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
