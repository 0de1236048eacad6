"""Per-sim-day metrics: the study's own time series, recorded as it runs.

The paper's conclusions are time-series claims (PSR share per day,
campaign lifetimes, intervention response lag), so the pipeline records
its own per-day series while it runs: a :class:`MetricsRecorder` rides as
the *last* simulator observer (after the crawler and orderer have seen
the day) and samples once per simulated day:

* crawl output — new PSRs, active/cumulative doorway domains, stores;
* intervention state — labeled and penalized hosts in the engine;
* hot-path health — SERPs served and content-addressed cache hit rate.

Every column (:data:`METRICS_COLUMNS`) derives from simulation state or
exact counter deltas, so a fresh process writes the same
``metrics.jsonl`` bytes for a seed.  ``cache_hit_rate`` counts the live
caches' lookups, so it also reflects how warm they were: a resumed run,
or a second run in one process, starts warmer or colder than a fresh
uninterrupted one.  Per-day timing lives in ``trace.json``, whose
``day`` events carry the ``engine.serp`` calls and milliseconds and the
disk-tier counter deltas.

Storage is columnar (one list per column) so sampling is O(counters) per
day.  :meth:`MetricsRecorder.write_jsonl` emits one JSON row per
simulated day and nothing else: run provenance goes to ``manifest.json``.

Recording reads simulation state and never writes it: studies run with a
recorder attached produce byte-identical outputs (``tests/test_obs.py``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.util.atomicio import atomic_write
from repro.util.perf import PERF

#: Column order of one metrics row (the JSONL schema, golden-tested).
#: Every column is deterministic for a seed.
METRICS_COLUMNS: Tuple[str, ...] = (
    "day",              # ISO sim-date
    "day_index",        # 0-based offset in the study window
    "psrs",             # PSR records added this day
    "psrs_total",       # cumulative PSR records
    "active_doorways",  # distinct doorway hosts in this day's PSRs
    "doorways_seen",    # cumulative distinct doorway hosts
    "stores_seen",      # cumulative distinct landing stores
    "serps_served",     # engine.serp timer calls this day
    "labels_active",    # hosts carrying a SERP warning label
    "penalties_active", # hosts under a ranking penalty
    "cache_hit_rate",   # content-addressed cache hits/(hits+misses) this day
    "faults_injected",  # faults.injected.* counter deltas this day
    "faults_retried",   # fetch attempts retried after a transient fault
    "faults_degraded",  # records dropped/deferred because inputs were damaged
)

class MetricsRecorder:
    """Simulator observer sampling the per-day study time series."""

    def __init__(self, crawler=None):
        #: The measurement crawler whose dataset is sampled (optional: a
        #: recorder without one still tracks engine/cache/serve columns).
        self.crawler = crawler
        self.columns: Dict[str, List] = {name: [] for name in METRICS_COLUMNS}
        self._day_index = 0
        self._records_seen = 0
        self._store_hosts: set = set()
        # Deltas count from construction, not process start: the PERF
        # registry is process-global and may already carry earlier runs.
        self._serp_base = self._serp_totals()
        self._cache_base = self._cache_totals()
        self._fault_base = self._fault_totals()

    def rebase(self) -> None:
        """Re-anchor PERF-delta baselines to the *current* registry totals.

        Called after a checkpoint resume: the recorder's pickled baselines
        refer to the crashed process's counter values, which the fresh
        process never accumulated.  Without rebasing, the first resumed
        day would report huge negative deltas.
        """
        self._serp_base = self._serp_totals()
        self._cache_base = self._cache_totals()
        self._fault_base = self._fault_totals()

    # ------------------------------------------------------------------ #
    # Observer interface
    # ------------------------------------------------------------------ #

    def on_day(self, world, context) -> None:
        day = context.day
        serp_calls = self._serp_delta()
        hits, misses = self._cache_delta()
        looked_up = hits + misses
        injected, retried, degraded = self._fault_delta()

        psrs_today = 0
        active_doorways = 0
        doorways_seen = 0
        stores_seen = 0
        psrs_total = 0
        if self.crawler is not None:
            dataset = self.crawler.dataset
            new_records = dataset.records[self._records_seen:]
            self._records_seen = len(dataset.records)
            psrs_today = len(new_records)
            psrs_total = len(dataset.records)
            active_doorways = len({r.host for r in new_records})
            doorways_seen = dataset.host_count()
            for record in new_records:
                if record.is_store:
                    self._store_hosts.add(record.landing_host)
            stores_seen = len(self._store_hosts)

        row = {
            "day": day.isoformat(),
            "day_index": self._day_index,
            "psrs": psrs_today,
            "psrs_total": psrs_total,
            "active_doorways": active_doorways,
            "doorways_seen": doorways_seen,
            "stores_seen": stores_seen,
            "serps_served": serp_calls,
            "labels_active": len(world.engine.labeled_hosts()),
            "penalties_active": len(world.engine.penalized_hosts()),
            "cache_hit_rate": (hits / looked_up) if looked_up else 0.0,
            "faults_injected": injected,
            "faults_retried": retried,
            "faults_degraded": degraded,
        }
        for name in METRICS_COLUMNS:
            self.columns[name].append(row[name])
        self._day_index += 1

    @staticmethod
    def _serp_totals() -> int:
        stat = PERF.timers().get("engine.serp")
        return stat.calls if stat is not None else 0

    def _serp_delta(self) -> int:
        calls = self._serp_totals()
        calls0 = self._serp_base
        self._serp_base = calls
        return calls - calls0

    @staticmethod
    def _cache_totals() -> Tuple[int, int]:
        hits = 0
        misses = 0
        for name, value in PERF.counters().items():
            if not name.startswith("cache."):
                continue
            if name.endswith(".hit"):
                hits += value
            elif name.endswith(".miss"):
                misses += value
        return hits, misses

    def _cache_delta(self) -> Tuple[int, int]:
        hits, misses = self._cache_totals()
        hits0, misses0 = self._cache_base
        self._cache_base = (hits, misses)
        return hits - hits0, misses - misses0

    @staticmethod
    def _fault_totals() -> Tuple[int, int, int]:
        injected = 0
        retried = 0
        degraded = 0
        for name, value in PERF.counters().items():
            if name.startswith("faults.injected."):
                injected += value
            elif name == "faults.retried":
                retried += value
            elif name.startswith("faults.degraded."):
                degraded += value
        return injected, retried, degraded

    def _fault_delta(self) -> Tuple[int, int, int]:
        totals = self._fault_totals()
        base = self._fault_base
        self._fault_base = totals
        return tuple(now - then for now, then in zip(totals, base))

    # ------------------------------------------------------------------ #
    # Access / serialization
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.columns["day"])

    def rows(self) -> List[dict]:
        return [
            {name: self.columns[name][i] for name in METRICS_COLUMNS}
            for i in range(len(self))
        ]

    def write_jsonl(self, path: str) -> None:
        """One JSON row per simulated day."""
        with atomic_write(path) as handle:
            for row in self.rows():
                handle.write(json.dumps({"_type": "sample", **row},
                                        sort_keys=True))
                handle.write("\n")
