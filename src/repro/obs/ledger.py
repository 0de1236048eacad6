"""The run ledger: the system's longitudinal memory.

Every study-shaped run (``repro run``, ``repro chaos``) can append one
JSON record to an append-only JSONL **ledger**.  A record captures
everything needed to compare the run against any other run of the same
scenario:

* the full run manifest (config digest, git SHA, seed/window/scale, host);
* the run switches (crawl stride, cache/disk-cache, fault profile) —
  artifacts are byte-identical across the cache switches, so records stay
  comparable and any difference between two same-``key`` records is a
  code change, not a knob;
* the **headline metrics** — :meth:`repro.study.StudyResults.headline`:
  PSR/doorway/store counts, Table 1–3 cells keyed by row, the PSR curve
  quantiles, store-lifetime quantiles.

Records are keyed (``<config digest>/stride<N>``) so
:mod:`repro.obs.gate` can band the latest record against a committed
baseline.  Where the time went is the span tree's business
(``repro run --trace``), not the ledger's.

Appends go through :func:`repro.util.atomicio.append_line` (single-write
``O_APPEND``); the loader tolerates torn or garbled lines anywhere in the
file — an append-only log buries a crash's torn tail under later appends,
so unlike the artifact loaders, mid-file noise is skipped (with a
``RuntimeWarning``), never fatal.
"""

from __future__ import annotations

import json
import os
import warnings
from hashlib import blake2b
from typing import Dict, List, Optional

from repro.util.atomicio import append_line

#: Ledger record schema, bumped on field changes.
LEDGER_SCHEMA = 1

#: Environment variable naming the default ledger file.
LEDGER_ENV = "REPRO_LEDGER"


def flatten(tree: dict, prefix: str = "") -> Dict[str, float]:
    """Flatten a nested metric tree into sorted ``a.b.c -> number`` paths.

    Only numeric leaves survive (bools excluded); strings and lists are
    provenance, not metrics."""
    flat: Dict[str, float] = {}
    for key in sorted(tree):
        value = tree[key]
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, path + "."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            flat[path] = value
    return flat


def record_metrics(record: dict) -> Dict[str, float]:
    """One record's deterministic, gate-visible metrics, flattened: its
    headline tree."""
    return flatten(record.get("headline") or {})


def record_id(record: dict) -> str:
    """12-hex-char content digest of a record (minus any existing id)."""
    stripped = {k: v for k, v in record.items() if k != "run_id"}
    blob = json.dumps(stripped, sort_keys=True, default=str).encode("utf-8")
    return blake2b(blob, digest_size=6).hexdigest()


class RunLedger:
    """Append-only JSONL store of run records."""

    def __init__(self, path: str):
        self.path = path
        #: Unparseable lines skipped by the last :meth:`records` call.
        self.skipped = 0

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def append(self, record: dict) -> dict:
        """Append one record; returns it with ``_type``/``schema``/
        ``run_id`` filled in."""
        payload = {"_type": "run", "schema": LEDGER_SCHEMA, **record}
        payload.setdefault("run_id", record_id(payload))
        append_line(self.path, json.dumps(payload, sort_keys=True))
        return payload

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def records(self, kind: Optional[str] = None,
                key: Optional[str] = None) -> List[dict]:
        """All parseable run records, oldest first, optionally filtered."""
        if not os.path.exists(self.path):
            self.skipped = 0
            return []
        rows: List[dict] = []
        skipped = 0
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    # Append-only log: a torn tail gets buried by later
                    # appends, so corrupt lines are recoverable noise
                    # anywhere in the file — skip, never raise.
                    skipped += 1
                    continue
                if payload.get("_type") != "run":
                    continue
                if kind is not None and payload.get("kind") != kind:
                    continue
                if key is not None and payload.get("key") != key:
                    continue
                rows.append(payload)
        self.skipped = skipped
        if skipped:
            warnings.warn(
                f"{self.path}: skipped {skipped} unparseable ledger "
                f"line{'s' if skipped != 1 else ''}",
                RuntimeWarning, stacklevel=2,
            )
        return rows

    def latest(self, kind: Optional[str] = None,
               key: Optional[str] = None) -> Optional[dict]:
        rows = self.records(kind=kind, key=key)
        return rows[-1] if rows else None


# ---------------------------------------------------------------------- #
# Record builders
# ---------------------------------------------------------------------- #

def build_study_record(
    config,
    results,
    *,
    stride: int,
    kind: str = "study",
    preset: Optional[str] = None,
    profile: Optional[str] = None,
    fault_seed: Optional[int] = None,
) -> dict:
    """One ledger record for a completed study (or chaos) run.

    ``key`` is the comparability anchor: the scenario config digest plus
    the crawl stride (the one run knob outside the config that changes
    results).  Cache/disk switches ride in ``switches`` — they are
    byte-identity-preserving, so records differing only there are still
    directly comparable.
    """
    from repro.obs.manifest import run_manifest
    from repro.perf.cache import caches_enabled, disk_cache_path

    extra = {}
    if preset is not None:
        extra["preset"] = preset
    manifest = run_manifest(config, **extra)
    return {
        "kind": kind,
        "key": f"{manifest['config']['digest']}/stride{stride}",
        "manifest": manifest,
        "switches": {
            "stride": stride,
            "cache": caches_enabled(),
            "disk_cache": disk_cache_path() is not None,
            "profile": profile,
            "fault_seed": fault_seed if profile else None,
        },
        "headline": results.headline(),
    }
