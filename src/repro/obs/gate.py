"""Tolerance bands and the release gate over the run ledger.

The paper's claims live in a handful of headline numbers — the Table 1–3
cells, PSR totals, poisoning-curve quantiles, seized-store lifetimes —
and the reproduction's performance story in a few timings.  This module
turns those into enforced invariants: a **band** is a dot-path pattern
plus an absolute/relative tolerance, and the **gate** checks the latest
ledger record (:mod:`repro.obs.ledger`) against a committed baseline
record, banding every baseline metric and failing on drift.

Two band kinds with deliberately different semantics:

* ``metric`` — deterministic headline values.  Checked everywhere, and
  their verdict lines include the numbers: same scenario → same values →
  the rendered verdict is byte-identical with the caches on or off and
  with a cold or warm disk cache (an acceptance invariant pinned in CI).
* ``perf`` — wall times and per-call µs.  Inherently noisy and
  host-dependent, so they only *arm* when the current host fingerprint
  (cpus/platform/python) **and** the run switches (caches, disk tier —
  byte-identity-preserving but not timing-preserving) match the
  baseline's, and their verdict lines never print the measured value —
  drift shows in the drift *report*, not the deterministic verdict.

Checks are derived from the **baseline's** paths: a metric the baseline
never recorded (say ``disk_store.*`` from a run without ``--disk-cache``)
is simply not gated, so optional subsystems can't flip the verdict; a
banded baseline path the current record lost is a hard ``missing`` drift.

The tolerance is ``allowed = max(abs_tol, rel_tol * |baseline|)``; a
``direction`` of ``upper``/``lower`` makes the band one-sided (e.g.
quarantined entries may shrink freely but never grow).
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence

from repro.obs.ledger import RunLedger, record_metrics
from repro.util.atomicio import atomic_write

#: Baseline file schema, bumped on field changes.
BASELINE_SCHEMA = 1


@dataclass(frozen=True)
class Band:
    """One tolerance band: which paths, how much drift, which direction."""

    pattern: str
    abs_tol: float = 0.0
    rel_tol: float = 0.0
    #: ``both`` | ``upper`` (current may not exceed baseline + tolerance)
    #: | ``lower`` (current may not fall below baseline - tolerance).
    direction: str = "both"
    #: ``metric`` (deterministic, value-rendering) | ``perf`` (host-gated,
    #: status-only in the verdict).
    kind: str = "metric"

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
    # Disk-store health: quarantines must never grow; the store may not
    # blow past its cap headroom.
    Band("disk_store.quarantined", abs_tol=0, direction="upper"),
    Band("disk_store.utilization", abs_tol=0.25, direction="upper"),
    Band("disk_store.entries", rel_tol=0.25, abs_tol=64),
    # Perf bands: noisy, host-gated, one-sided (faster is never drift).
    Band("wall_s", rel_tol=0.50, direction="upper", kind="perf"),
    Band("perf.engine.serp.mean_us", rel_tol=0.75, direction="upper",
         kind="perf"),
    Band("perf.simulator.day.mean_us", rel_tol=0.75, direction="upper",
         kind="perf"),
    # Benchmark-record metrics (bench:study / bench:serp / bench:lint).
    Band("psrs", rel_tol=0.02, abs_tol=1),
    Band("checkpoint_delta_ratio", abs_tol=0.10, direction="upper"),
    Band("total_s_cached", rel_tol=0.50, direction="upper", kind="perf"),
    Band("*_us_per_serp", rel_tol=0.75, direction="upper", kind="perf"),
    Band("*mean_us", rel_tol=0.75, direction="upper", kind="perf"),
    Band("*_s", rel_tol=0.75, direction="upper", kind="perf"),
    Band("*speedup", rel_tol=0.50, direction="lower", kind="perf"),
)


def host_fingerprint(manifest: Optional[dict] = None) -> dict:
    """The host facts that make perf numbers comparable across runs."""
    if manifest is not None:
        return {
            "cpus": manifest.get("cpus"),
            "platform": manifest.get("platform"),
            "python": manifest.get("python"),
        }
    return {
        "cpus": os.cpu_count(),
        "platform": sys.platform,
        "python": platform.python_version(),
    }


def perf_metrics(record: dict) -> Dict[str, float]:
    """A record's timing metrics, flattened: run wall time plus the PERF
    timer snapshot (``perf.<timer>.mean_us`` / ``.total_s``)."""
    flat: Dict[str, float] = {}
    if record.get("wall_s") is not None:
        flat["wall_s"] = record["wall_s"]
    for name in sorted(record.get("perf") or {}):
        entry = record["perf"][name]
        if not isinstance(entry, dict):
            continue
        for stat in ("mean_us", "total_s"):
            if stat in entry:
                flat[f"perf.{name}.{stat}"] = entry[stat]
    return flat


def gate_metrics(record: dict) -> Dict[str, float]:
    """Everything bandable in one record: deterministic headline metrics
    plus timing metrics.  Which semantics apply is the matching band's
    ``kind``, not the dict of origin — a benchmark's headline legitimately
    carries wall times."""
    flat = record_metrics(record)
    flat.update(perf_metrics(record))
    return flat


@dataclass
class BandCheck:
    """One banded comparison of a baseline path against the current run."""

    path: str
    band: Band
    baseline: float
    current: Optional[float]
    #: ``ok`` | ``drift`` | ``missing`` | ``skipped`` (perf band with a
    #: foreign host fingerprint or different run switches).
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
    perf_armed: bool = True,
) -> List[BandCheck]:
    """Band every baseline path against the current values.

    Paths the baseline lacks are not checked (optional subsystems);
    baseline paths without a matching band are not checked (unbanded
    provenance); a banded baseline path absent from ``current`` is a
    ``missing`` drift.  ``perf_armed=False`` parks every perf-kind band
    as ``skipped`` (foreign host or switch settings)."""
    checks: List[BandCheck] = []
    for path in sorted(baseline):
        band = next((b for b in bands if b.matches(path)), None)
        if band is None:
            continue
        base = baseline[path]
        value = current.get(path)
        check = BandCheck(path=path, band=band, baseline=base, current=value)
        if band.kind == "perf" and not perf_armed:
            check.status = "skipped"
        elif value is None:
            check.status = "missing"
        else:
            delta = value - base
            allowed = band.allowed(base)
            over = delta > allowed and band.direction in ("both", "upper")
            under = -delta > allowed and band.direction in ("both", "lower")
            check.status = "drift" if (over or under) else "ok"
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
        """The deterministic verdict: one line per metric-kind check.

        Metric values are deterministic by construction (same scenario →
        same numbers, cached or not, cold or warm), so this rendering
        is byte-identical across those variants on a clean run — CI pins
        that with ``cmp``.  Perf checks are summarized in one count line
        (their per-run values are noise); their detail lives in the drift
        report, and a perf drift still flips the header to DRIFT."""
        lines = [f"gate {self.key}: {'PASS' if self.ok else 'DRIFT'}"]
        perf_checks = [c for c in self.checks if c.band.kind == "perf"]
        for check in self.checks:
            if check.band.kind == "perf":
                continue
            if check.status == "missing":
                lines.append(
                    f"  [missing] {check.path} "
                    f"(baseline {check.baseline:g})"
                )
            else:
                span = ("" if check.band.direction == "both"
                        else " " + check.band.direction)
                lines.append(
                    f"  [{check.status:>7s}] {check.path} "
                    f"{check.baseline:g} -> {check.current:g} "
                    f"(allowed ±{check.allowed:g}{span})"
                )
        if perf_checks:
            armed = [c for c in perf_checks if c.status != "skipped"]
            if not armed:
                lines.append(
                    f"  perf: {len(perf_checks)} banded, "
                    f"skipped (foreign host or switches)"
                )
            else:
                bad = sum(1 for c in armed
                          if c.status in ("drift", "missing"))
                lines.append(
                    f"  perf: {len(armed)} banded, "
                    f"{bad} drifted (see drift report)"
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


def extra_bands(baseline: dict) -> List[Band]:
    """Optional per-repo band overrides carried in the baseline file,
    checked before the defaults."""
    bands = []
    for spec in baseline.get("bands", []):
        bands.append(Band(
            pattern=spec["pattern"],
            abs_tol=spec.get("abs_tol", 0.0),
            rel_tol=spec.get("rel_tol", 0.0),
            direction=spec.get("direction", "both"),
            kind=spec.get("kind", "metric"),
        ))
    return bands


def run_gate(record: dict, baseline: dict,
             bands: Optional[Sequence[Band]] = None) -> Optional[GateResult]:
    """Gate one ledger record against the baseline file's matching entry.

    Returns ``None`` when the baseline has no entry for the record's key
    (the caller decides whether that is a usage error)."""
    base_record = baseline.get("baselines", {}).get(record.get("key"))
    if base_record is None:
        return None
    if bands is None:
        bands = list(extra_bands(baseline)) + list(DEFAULT_BANDS)
    # Perf numbers are only comparable from the same host *and* the same
    # switch settings: a cold disk-cache leg legitimately pays write
    # overhead a memory-only baseline never saw, and that must park the
    # perf bands, not fail the gate.
    armed = (
        host_fingerprint(record.get("manifest"))
        == host_fingerprint(base_record.get("manifest"))
        and record.get("switches") == base_record.get("switches")
    )
    checks = check_bands(
        gate_metrics(record), gate_metrics(base_record),
        bands=bands, perf_armed=armed,
    )
    return GateResult(key=record["key"], checks=checks)


def gate_history(ledger: RunLedger, checks: Sequence[BandCheck], key: str,
                 kind: Optional[str] = None,
                 limit: int = 32) -> Dict[str, List[float]]:
    """Ledger history series for the gated paths (drift report sparklines).

    Filtered by kind as well as key so chaos-run records of the same
    scenario never blend into a study metric's trajectory."""
    paths = [c.path for c in checks]
    series = ledger.history(paths, kind=kind, key=key)
    return {
        path: values[-limit:]
        for path, values in sorted(series.items()) if values
    }
