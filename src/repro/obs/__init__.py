"""Observability for the study pipeline.

Five modules, built on top of the always-on :data:`repro.util.perf.PERF`
registry:

* :mod:`repro.obs.trace` — a hierarchical span tracer.  When enabled it
  records nested spans over the whole pipeline (``study → simulate →
  day[d] → {campaigns, interventions, serps, traffic, crawl, orders}``,
  ``classify → {features, fit, refine, attribute}``, ``analysis``), each
  carrying wall-clock, sim-day tags, and the PERF counter/timer deltas
  that accrued inside it.  Renders as a text tree (``python -m repro
  trace``), the one timer report, and exports Chrome/Perfetto
  ``trace_event`` JSON.
* :mod:`repro.obs.metrics` — a per-sim-day metrics recorder.  Plugged in
  as the last simulator observer, it samples the study's time series once
  per simulated day (PSRs observed, doorways/stores seen, cache hit
  rates, SERPs served, labels/penalties) into columnar storage written
  as ``metrics.jsonl`` and renderable with the reporting sparklines.
* :mod:`repro.obs.manifest` — run provenance.  One dict (config digest,
  seed, git SHA, host, versions, cache/trace switches, creation time)
  written to ``manifest.json``, ``trace.json`` and ledger records, and
  kept out of the data files (``psrs.jsonl``, ``metrics.jsonl``), so two
  runs of one seed give the same data bytes.
* :mod:`repro.obs.ledger` — the longitudinal run ledger.  Every study
  and chaos drill can append one keyed JSONL record (manifest, switches,
  wall time, headline metrics) to an append-only file, turning one-shot
  artifacts into a time series.
* :mod:`repro.obs.gate` — tolerance bands over ledger records.  ``repro
  gate`` compares the latest record's headline metrics against a
  committed baseline with per-table abs/rel bands and fails CI on
  drift.

Tracing is off by default and never touches simulation state: a traced
run's study outputs are byte-identical to an untraced run's
(``tests/test_obs.py`` pins this).
"""

from repro.obs.manifest import config_digest, git_sha, run_manifest
from repro.obs.metrics import METRICS_COLUMNS, MetricsRecorder
from repro.obs.trace import TRACER, set_tracing_enabled, tracing_enabled
from repro.obs.ledger import RunLedger, build_study_record, record_metrics
from repro.obs.gate import (
    Band,
    BandCheck,
    DEFAULT_BANDS,
    GateResult,
    check_bands,
    run_gate,
)

__all__ = [
    "TRACER",
    "set_tracing_enabled",
    "tracing_enabled",
    "MetricsRecorder",
    "METRICS_COLUMNS",
    "run_manifest",
    "config_digest",
    "git_sha",
    "RunLedger",
    "build_study_record",
    "record_metrics",
    "Band",
    "BandCheck",
    "DEFAULT_BANDS",
    "GateResult",
    "check_bands",
    "run_gate",
]
