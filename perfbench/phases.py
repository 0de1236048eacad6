"""The measured phase of each workload and the checks on its output.

Every workload runs a whole study through the library's public entry points
(``StudyRun``, ``paper_preset``/``small_preset``, ``StudyResults.headline``)
single-process at ``jobs=1``.  The scenario seed is the benchmark's
``--seed``; the program only ever sees the generated config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Optional, Tuple

from repro import StudyRun
from repro.crawler.serp_crawler import CrawlPolicy
from repro.ecosystem import paper_preset, small_preset
from repro.faults.checkpoint import SimulatedCrash
from repro.perf.cache import set_disk_cache
from repro.util.simtime import DateRange, STUDY_START

from workloads import PAPER_DAYS, PAPER_SCALE, PAPER_TERMS, SMALL_DAYS, Workload

#: Table columns that the campaign classifier fills in; the output digest
#: leaves them out, like each record's ``campaign``, so that a classifier
#: change moves ``attribution_accuracy`` and not the digest.
_CLASSIFIER_COLUMNS = {"campaigns", "classified_stores"}


def scenario(workload: Workload, seed: int):
    """The workload's scenario config for ``seed``."""
    if workload.preset == "paper":
        return paper_preset(
            scale=PAPER_SCALE, terms_per_vertical=PAPER_TERMS, seed=seed,
            window=DateRange(STUDY_START, STUDY_START + (PAPER_DAYS - 1)),
        )
    return small_preset(seed=seed, days=SMALL_DAYS)


def study_run(workload: Workload, config, tmp: str, checkpoint: Optional[bool] = None,
              **options) -> StudyRun:
    """The configured (not yet executed) study; CLI defaults elsewhere."""
    if checkpoint is None:
        checkpoint = workload.checkpoint
    return StudyRun(
        config,
        crawl_policy=CrawlPolicy(stride_days=workload.stride),
        classify=workload.classify,
        jobs=1,
        checkpoint_path=os.path.join(tmp, "checkpoint") if checkpoint else None,
        checkpoint_every_days=1,
        **options,
    )


def setup_phase(workload: Workload, config, tmp: str) -> Tuple[StudyRun, Optional[object]]:
    """The set-up run of ``rerun-warm`` (cold, into an empty disk store) or
    ``checkpointed`` (checkpointing every day, killed after the last one;
    no results then)."""
    if workload.warm:
        use_disk_cache(tmp)
        run = study_run(workload, config, tmp)
        return run, run.execute()
    run = study_run(workload, config, tmp, die_after_day=len(config.window) - 1)
    try:
        run.execute()
    except SimulatedCrash:
        return run, None
    raise RuntimeError("the checkpointed set-up run was not killed")


def use_disk_cache(tmp: str) -> None:
    """Point the persistent cache tier at the round's temp directory."""
    set_disk_cache(os.path.join(tmp, "disk"))


def run_phase(workload: Workload, config, tmp: str) -> Tuple[StudyRun, object, Optional[dict]]:
    """The measured phase: one study (resumed for ``checkpointed``), plus
    the tables for ``study``."""
    run = study_run(workload, config, tmp, resume=workload.checkpoint)
    results = run.execute()
    headline = results.headline() if workload.classify else None
    return run, results, headline


def records_bytes(results) -> bytes:
    """The PSR records exactly as the study produced them."""
    return b"".join(r.to_json().encode() + b"\n" for r in results.dataset.records)


def output_digest(results, headline: dict) -> str:
    """SHA-256 over the PSR records with ``campaign`` blanked, plus the
    Table 1 and Table 3 rows without their classifier columns."""
    digest = hashlib.sha256()
    for record in results.dataset.records:
        digest.update(dataclasses.replace(record, campaign="").to_json().encode())
        digest.update(b"\n")
    tables = {
        table: {
            row: {k: v for k, v in cells.items() if k not in _CLASSIFIER_COLUMNS}
            for row, cells in headline[table].items()
        }
        for table in ("table1", "table3")
    }
    digest.update(json.dumps(tables, sort_keys=True).encode())
    return digest.hexdigest()


def attribution_accuracy(results) -> float:
    """Share of PSR records whose campaign matches ground truth; an unknown
    or background campaign counts as ``""``, like an unattributed record."""
    oracle = results.oracle
    records = results.dataset.records
    right = sum(
        1 for r in records if r.campaign == (oracle.known_campaign_of_host(r.host) or "")
    )
    return right / len(records)
