"""Run provenance: the manifest that says what ran, where and when.

Two runs are only comparable when each records *what ran*: which scenario
(seed, window, census sizes — collapsed into a stable config digest),
which code (package version, git SHA), on what host (CPU count, platform,
Python), and under which switches (caches, tracing).  :func:`run_manifest`
builds that block.  It goes into ``manifest.json`` next to the artifacts
of ``repro run --trace`` and ``repro chaos``, into a traced run's
``trace.json``, into every run-ledger record and into ``repro ablations
--json``.  It never goes into a data file: ``psrs.jsonl`` and
``metrics.jsonl`` hold the same bytes for the same seed.

Its ``created_at`` line is the one wall-clock read in the tree
(provenance, never simulation state), and it passes lint rule D003 by a
written ``allow-D003`` waiver; no directory is exempt from the rule.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, is_dataclass
from hashlib import blake2b
from typing import Dict, Optional

#: Manifest schema version, bumped on field changes.
MANIFEST_SCHEMA = 1

_git_sha_cache: Dict[str, Optional[str]] = {}


def git_sha(root: Optional[str] = None) -> Optional[str]:
    """The repository HEAD commit, or None outside a checkout."""
    key = root or ""
    if key in _git_sha_cache:
        return _git_sha_cache[key]
    cwd = root or os.path.dirname(os.path.abspath(__file__))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    _git_sha_cache[key] = sha
    return sha


def _canonical(value):
    """A stable, JSON-able projection of a config value tree."""
    if is_dataclass(value) and not isinstance(value, type):
        return {"__type": type(value).__name__,
                **{k: _canonical(v) for k, v in sorted(asdict(value).items())}}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # SimDate, DateRange, enums, policies: repr is stable and value-bearing.
    return repr(value)


def config_digest(config) -> str:
    """16-hex-char BLAKE2b digest of a scenario config's canonical form.

    Two configs with the same digest run the same scenario; any field
    change (seed, window, census counts, policies) changes the digest."""
    blob = json.dumps(_canonical(config), sort_keys=True).encode("utf-8")
    return blake2b(blob, digest_size=8).hexdigest()


def run_manifest(config=None, **extra) -> dict:
    """The provenance block for one run's artifacts.

    ``config`` (a :class:`repro.ecosystem.config.ScenarioConfig`) adds the
    scenario fields; ``extra`` keys (e.g. ``preset=\"small\"``,
    ``scale=0.25``) ride along verbatim."""
    from repro import __version__
    from repro.obs.trace import tracing_enabled
    from repro.perf.cache import caches_enabled, disk_cache_path

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "package": "repro",
        "version": __version__,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": sys.platform,
        "cpus": os.cpu_count(),
        "cache_enabled": caches_enabled(),
        "disk_cache": disk_cache_path(),
        "trace_enabled": tracing_enabled(),
        # repro: allow-D003 provenance stamp for manifest.json, trace.json and ledger records; no data file or simulation state reads it
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
    }
    if config is not None:
        manifest["config"] = {
            "digest": config_digest(config),
            "seed": config.seed,
            "window_start": config.window.start.isoformat(),
            "window_end": config.window.end.isoformat(),
            "days": len(config.window),
            "verticals": len(config.verticals),
            "campaigns": len(config.all_campaign_specs()),
            "terms_per_vertical": config.terms_per_vertical,
            "serp_size": config.serp_size,
        }
    manifest.update(extra)
    return manifest
