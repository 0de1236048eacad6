"""Tolerance bands and the release gate over the run ledger.

The paper's claims live in a handful of headline numbers — the Table 1–3
cells, PSR totals, poisoning-curve quantiles, seized-store lifetimes.
This module turns those into enforced invariants: a **band** is a
dot-path pattern plus an absolute/relative tolerance, and the **gate**
checks the latest ledger record (:mod:`repro.obs.ledger`) against a
committed baseline record, banding every baseline metric and failing on
drift.

Every banded value is deterministic: same scenario → same values → the
rendered verdict is byte-identical with the caches on or off and with a
cold or warm disk cache (an acceptance invariant pinned in CI).  Timing
is not gated here; perfbench measures it.

Checks are derived from the **baseline's** paths: a metric the baseline
never recorded is simply not gated, so a newly added metric can't flip
the verdict; a banded baseline path the current record lost is a hard
``missing`` drift.

The tolerance is ``allowed = max(abs_tol, rel_tol * |baseline|)``, on
either side of the baseline.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence

from repro.obs.ledger import record_metrics
from repro.util.atomicio import atomic_write

#: Baseline file schema, bumped on field changes.
BASELINE_SCHEMA = 1


@dataclass(frozen=True)
class Band:
    """One tolerance band: which paths, and how much drift either way."""

    pattern: str
    abs_tol: float = 0.0
    rel_tol: float = 0.0

    def matches(self, path: str) -> bool:
        return fnmatchcase(path, self.pattern)

    def allowed(self, baseline: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(baseline))


#: The committed vocabulary of what must not drift.  Ordered most-specific
#: first: the first matching band wins.
DEFAULT_BANDS: Sequence[Band] = (
    # Headline counts and rates (deterministic).
    Band("psr.*", rel_tol=0.02, abs_tol=1),
    Band("labels.coverage", abs_tol=0.005),
    Band("attribution.rate", abs_tol=0.02),
    Band("attribution.campaigns", abs_tol=0),
    # Table 1–3 cells: small absolute slop for count cells near zero,
    # relative slop for the big ones.
    Band("table1.*", rel_tol=0.05, abs_tol=2),
    Band("table2.*", rel_tol=0.05, abs_tol=2),
    Band("table3.*", rel_tol=0.05, abs_tol=2),
    # PSR poisoning-curve quantiles are fractions of result slots.
    Band("psr_curve.*", abs_tol=0.02),
    # Seized-store lifetime brackets (days).
    Band("lifetimes.*.measured", abs_tol=1),
    Band("lifetimes.*", rel_tol=0.10, abs_tol=2),
)


@dataclass
class BandCheck:
    """One banded comparison of a baseline path against the current run."""

    path: str
    band: Band
    baseline: float
    current: Optional[float]
    #: ``ok`` | ``drift`` | ``missing``.
    status: str = "ok"

    @property
    def delta(self) -> Optional[float]:
        if self.current is None:
            return None
        return self.current - self.baseline

    @property
    def allowed(self) -> float:
        return self.band.allowed(self.baseline)


def check_bands(
    current: Dict[str, float],
    baseline: Dict[str, float],
    bands: Sequence[Band] = DEFAULT_BANDS,
) -> List[BandCheck]:
    """Band every baseline path against the current values.

    Paths the baseline lacks are not checked (optional subsystems);
    baseline paths without a matching band are not checked (unbanded
    provenance); a banded baseline path absent from ``current`` is a
    ``missing`` drift."""
    checks: List[BandCheck] = []
    for path in sorted(baseline):
        band = next((b for b in bands if b.matches(path)), None)
        if band is None:
            continue
        base = baseline[path]
        value = current.get(path)
        check = BandCheck(path=path, band=band, baseline=base, current=value)
        if value is None:
            check.status = "missing"
        else:
            drifted = abs(value - base) > band.allowed(base)
            check.status = "drift" if drifted else "ok"
        checks.append(check)
    return checks


@dataclass
class GateResult:
    """The gate's verdict over one record-vs-baseline comparison."""

    key: str
    checks: List[BandCheck] = field(default_factory=list)

    @property
    def drifted(self) -> List[BandCheck]:
        return [c for c in self.checks if c.status in ("drift", "missing")]

    @property
    def ok(self) -> bool:
        return not self.drifted

    def verdict_lines(self) -> List[str]:
        """The deterministic verdict: one line per check.

        Banded values are deterministic by construction (same scenario →
        same numbers, cached or not, cold or warm), so this rendering is
        byte-identical across those variants on a clean run — CI pins
        that with ``cmp``."""
        lines = [f"gate {self.key}: {'PASS' if self.ok else 'DRIFT'}"]
        for check in self.checks:
            if check.status == "missing":
                lines.append(
                    f"  [missing] {check.path} "
                    f"(baseline {check.baseline:g})"
                )
            else:
                lines.append(
                    f"  [{check.status:>7s}] {check.path} "
                    f"{check.baseline:g} -> {check.current:g} "
                    f"(allowed ±{check.allowed:g})"
                )
        return lines


# ---------------------------------------------------------------------- #
# Baseline file
# ---------------------------------------------------------------------- #

def load_baseline(path: str) -> dict:
    """Read a baseline file; raises ``FileNotFoundError``/``ValueError``."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: baseline schema {payload.get('schema')!r} "
            f"(expected {BASELINE_SCHEMA})"
        )
    return payload


def write_baseline(path: str, records: Sequence[dict],
                   existing: Optional[dict] = None) -> dict:
    """Write (or update, keyed by record ``key``) a baseline file."""
    payload = existing if existing is not None else {
        "schema": BASELINE_SCHEMA, "baselines": {}}
    for record in records:
        payload["baselines"][record["key"]] = record
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def run_gate(record: dict, baseline: dict) -> Optional[GateResult]:
    """Gate one ledger record against the baseline file's matching entry.

    Returns ``None`` when the baseline has no entry for the record's key
    (the caller decides whether that is a usage error)."""
    base_record = baseline.get("baselines", {}).get(record.get("key"))
    if base_record is None:
        return None
    checks = check_bands(record_metrics(record), record_metrics(base_record))
    return GateResult(key=record["key"], checks=checks)
