"""The benchmark's workloads and the sizes of their scenarios.

This module imports nothing from the program, so the parent process that
only schedules rounds stays small; ``phases.py`` runs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: The paper preset (16 verticals, 65 campaigns) cut down so that a full
#: benchmark session (92 runs) ends within 3,420 s on 2 vCPUs: a run takes
#: 15-50 s.
PAPER_SCALE = 0.01
PAPER_TERMS = 2
PAPER_DAYS = 18
#: The small preset's window for the checkpointed workload: every-day
#: checkpoints cost ~6 s here, 10x a plain run of the same window.
SMALL_DAYS = 10

#: Seeds the presets use when ``--seed`` is not given.
DEFAULT_SEEDS = {"paper": 20141105, "small": 7}

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    stride: int
    classify: bool
    #: Set-up fills an empty DiskCache cold; the measured phase reruns warm.
    warm: bool = False
    #: Set-up checkpoints every sim day and is killed after the last one;
    #: the measured phase resumes from the checkpoint.
    checkpoint: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "study",
        "the unit of work: crawl every 3rd day, classify and build the "
        "tables; the only workload where classify and analysis do real work",
        preset="paper", stride=3, classify=True),
    Workload(
        "crawl-daily",
        "the paper's daily crawl with classification off: the crawl does "
        "most of the work, so crawl changes show and classifier changes must not",
        preset="paper", stride=1, classify=False),
    Workload(
        "rerun-warm",
        "set-up runs the study scenario cold into an empty disk cache and the "
        "measured phase reruns it warm: cache writes land in setup_s, reads in run_s",
        preset="paper", stride=3, classify=False, warm=True),
    Workload(
        "checkpointed",
        "set-up checkpoints every sim day of the small preset and is killed "
        "after the last; the measured phase resumes: saves land in setup_s, the load in run_s",
        preset="small", stride=2, classify=False, checkpoint=True),
)}
