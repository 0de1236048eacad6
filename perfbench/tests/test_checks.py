"""The output checks: the digest sees one perturbed record, and a round
whose digest differs is counted as failed."""

import dataclasses

import pytest

import run
from workloads import Workload


@pytest.fixture(scope="module")
def results():
    import phases
    from repro.ecosystem import small_preset
    workload = Workload("tiny", "test", preset="small", stride=2, classify=False)
    return phases.study_run(workload, small_preset(days=8), tmp="unused").execute()


def test_digest_sees_one_perturbed_record(results):
    import phases
    headline = results.headline()
    before = phases.output_digest(results, headline)
    records = results.dataset.records
    original = records[len(records) // 2]
    try:
        records[len(records) // 2] = dataclasses.replace(original, rank=original.rank + 1)
        assert phases.output_digest(results, headline) != before
    finally:
        records[len(records) // 2] = original
    assert phases.output_digest(results, headline) == before


def test_digest_ignores_classifier_output(results):
    import phases
    headline = results.headline()
    before = phases.output_digest(results, headline)
    record = results.dataset.records[0]
    saved = record.campaign
    record.campaign = "SOMEONE"
    try:
        assert phases.output_digest(results, headline) == before
    finally:
        record.campaign = saved


def _round(digest, **checks):
    return {"digest": digest, "checks": checks}


def test_round_with_other_digest_fails():
    rounds = [_round("a"), _round("a"), _round("b")]
    assert run.check_rounds(rounds, reference=None) == 1
    assert [r["ok"] for r in rounds] == [True, True, False]


def test_reference_digest_overrides_first_round():
    rounds = [_round("a"), _round("b")]
    assert run.check_rounds(rounds, reference="b") == 1
    assert [r["ok"] for r in rounds] == [False, True]


def test_failed_check_fails_the_round():
    rounds = [_round("a", warm_equal=True), _round("a", warm_equal=False)]
    assert run.check_rounds(rounds, reference=None) == 1
