"""Study-level determinism locks.

A fixed scenario seed reproduces the *entire* measurement bit for bit:
the PSR dataset and the Table 1/2 aggregates built from it, and the
classifier weights and per-record attribution behind them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import DailyAggregates, campaign_table, vertical_table
from repro.crawler.serp_crawler import CrawlPolicy
from repro.ecosystem import small_preset
from repro.study import StudyRun


def _run():
    return StudyRun(
        small_preset(),
        crawl_policy=CrawlPolicy(stride_days=2),
    ).execute()


@pytest.fixture(scope="module")
def baseline():
    return _run()


@pytest.fixture(scope="module")
def repeat():
    return _run()


def _record_rows(results):
    return [record.to_json() for record in results.dataset.records]


def test_same_seed_reproduces_dataset_and_tables(baseline, repeat):
    assert _record_rows(repeat) == _record_rows(baseline)

    base_agg = DailyAggregates(baseline.dataset)
    rep_agg = DailyAggregates(repeat.dataset)
    assert vertical_table(repeat.dataset, rep_agg) == vertical_table(
        baseline.dataset, base_agg
    )
    brands = [b.name for b in baseline.world.brand_catalog.all()]
    assert campaign_table(
        repeat.dataset, repeat.archive, brands, aggregates=rep_agg
    ) == campaign_table(
        baseline.dataset, baseline.archive, brands, aggregates=base_agg
    )


def test_same_seed_reproduces_classifier_weights(baseline, repeat):
    assert baseline.classifier is not None and repeat.classifier is not None
    base_model = baseline.classifier.model
    repeat_model = repeat.classifier.model
    assert repeat_model.classes_ == base_model.classes_
    assert np.array_equal(repeat_model.coef_, base_model.coef_)
    assert np.array_equal(repeat_model.intercept_, base_model.intercept_)
    assert np.array_equal(repeat_model.n_iter_, base_model.n_iter_)

    assert baseline.attribution is not None and repeat.attribution is not None
    assert (
        repeat.attribution.host_predictions
        == baseline.attribution.host_predictions
    )
    assert [r.campaign for r in repeat.dataset.records] == [
        r.campaign for r in baseline.dataset.records
    ]
