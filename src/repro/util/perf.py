"""Lightweight hot-path instrumentation.

A process-global :data:`PERF` registry accumulates wall-clock timers and
event counters for the calls that run below span granularity — SERP
serving, page fetches, the two cloaking detectors — and for the caches'
hit/miss counters.  Instrumentation is always on: one ``perf_counter``
pair per timed call (~0.1 µs) against calls that cost tens of
microseconds and up.

Usage::

    from repro.util.perf import PERF

    _SERP_TIMER = PERF.handle("engine.serp")   # once, at import

    start = perf_counter()
    ...
    _SERP_TIMER.add(perf_counter() - start)
    PERF.count("cache.dom.hit")

The registry has no report of its own.  The span tracer
(:mod:`repro.obs.trace`) snapshots it around every span, so ``repro
trace`` prints each timer's calls and seconds as a ``·`` leaf under the
span that accrued them; ``metrics.jsonl`` reads the ``engine.serp``
calls and the cache counters per simulated day.
"""

from __future__ import annotations

from typing import Dict


class TimerStat:
    """Accumulated wall-clock for one named block."""

    __slots__ = ("calls", "total")

    def __init__(self):
        self.calls = 0
        self.total = 0.0

    def add(self, elapsed: float) -> None:
        self.calls += 1
        self.total += elapsed


class PerfRegistry:
    """Named timers + counters; cheap enough to leave enabled."""

    def __init__(self):
        self._timers: Dict[str, TimerStat] = {}
        self._counters: Dict[str, int] = {}

    # ------------------------------------------------------------------ #

    def handle(self, name: str) -> TimerStat:
        """A persistent TimerStat for zero-lookup hot-path timing: hold the
        handle and call ``stat.add(elapsed)`` around ``perf_counter()``
        directly.  Handles survive :meth:`reset` (stats are zeroed in
        place)."""
        stat = self._timers.get(name)
        if stat is None:
            stat = self._timers[name] = TimerStat()
        return stat

    def count(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def reset(self) -> None:
        # Zero in place so hot-path handles stay valid across resets.
        for stat in self._timers.values():
            stat.calls = 0
            stat.total = 0.0
        self._counters.clear()

    # ------------------------------------------------------------------ #

    def timers(self) -> Dict[str, TimerStat]:
        return dict(self._timers)

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)


#: The process-global registry every instrumented path reports into.
PERF = PerfRegistry()
