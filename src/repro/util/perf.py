"""Lightweight hot-path instrumentation.

A process-global :data:`PERF` registry accumulates wall-clock timers and
event counters for the paths that dominate a study run — SERP serving, the
simulator's day loop, crawler fetches, classifier fits.  Instrumentation is
always on: one ``perf_counter`` pair per timed block (~0.1 µs) against hot
paths that cost tens of microseconds and up.

Usage::

    from repro.util.perf import PERF

    with PERF.timer("engine.serp"):
        ...
    PERF.count("crawler.fetch")

    PERF.report()        # {name: {"calls": ..., "total_s": ..., ...}}
    print(PERF.format_table())

Benchmarks and the ``python -m repro perf`` subcommand read the registry
after a run; call :meth:`PerfRegistry.reset` between measurements.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple


class TimerStat:
    """Accumulated wall-clock for one named block."""

    __slots__ = ("calls", "total", "max")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.max = 0.0

    def add(self, elapsed: float) -> None:
        self.calls += 1
        self.total += elapsed
        if elapsed > self.max:
            self.max = elapsed

    @property
    def mean(self) -> float:
        return self.total / self.calls if self.calls else 0.0


class PerfRegistry:
    """Named timers + counters; cheap enough to leave enabled."""

    def __init__(self):
        self._timers: Dict[str, TimerStat] = {}
        self._counters: Dict[str, int] = {}

    # ------------------------------------------------------------------ #

    def handle(self, name: str) -> TimerStat:
        """A persistent TimerStat for zero-lookup hot-path timing: hold the
        handle and call ``stat.add(elapsed)`` around ``perf_counter()``
        directly, skipping the context-manager overhead.  Handles survive
        :meth:`reset` (stats are zeroed in place)."""
        stat = self._timers.get(name)
        if stat is None:
            stat = self._timers[name] = TimerStat()
        return stat

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        stat = self.handle(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            stat.add(time.perf_counter() - start)

    def count(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def reset(self) -> None:
        # Zero in place so hot-path handles stay valid across resets.
        for stat in self._timers.values():
            stat.calls = 0
            stat.total = 0.0
            stat.max = 0.0
        self._counters.clear()

    # ------------------------------------------------------------------ #

    def timers(self) -> Dict[str, TimerStat]:
        return dict(self._timers)

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def report(self) -> Dict[str, Dict[str, float]]:
        """JSON-serializable snapshot of every timer and counter."""
        out: Dict[str, Dict[str, float]] = {}
        for name, stat in sorted(self._timers.items()):
            if not stat.calls:
                continue
            out[name] = {
                "calls": stat.calls,
                "total_s": stat.total,
                "mean_us": stat.mean * 1e6,
                "max_us": stat.max * 1e6,
            }
        for name, value in sorted(self._counters.items()):
            out.setdefault(name, {})["count"] = value
        return out

    def format_table(self, top: Optional[int] = None) -> str:
        """The hot-path breakdown, widest total first.

        The ``% of total`` column is relative to the widest timer — the
        outermost instrumented block (``simulator.day`` in a study run)
        reads 100% and everything nested inside reads as its share.
        ``top`` keeps only the N widest timers (counters still print).
        """
        rows: List[Tuple[str, str, str, str, str, str]] = [
            ("name", "calls", "total (s)", "% of total", "mean (µs)", "max (µs)")
        ]
        ordered = sorted(
            ((n, s) for n, s in self._timers.items() if s.calls),
            key=lambda kv: -kv[1].total,
        )
        dropped = 0
        if top is not None and top >= 0:
            dropped = max(0, len(ordered) - top)
            ordered = ordered[:top]
        widest = ordered[0][1].total if ordered else 0.0
        for name, stat in ordered:
            share = (stat.total / widest * 100.0) if widest else 0.0
            rows.append((
                name,
                f"{stat.calls:,}",
                f"{stat.total:.3f}",
                f"{share:.1f}%",
                f"{stat.mean * 1e6:.1f}",
                f"{stat.max * 1e6:.1f}",
            ))
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = []
        for r, row in enumerate(rows):
            lines.append("  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            ))
            if r == 0:
                lines.append("  ".join("-" * w for w in widths))
        if dropped:
            lines.append(f"... {dropped} more timer(s) below --top cutoff")
        for name, value in sorted(self._counters.items()):
            lines.append(f"{name}: {value:,}")
        return "\n".join(lines)

    def dump_json(self, path: str, extra: Optional[Dict] = None) -> None:
        payload = {"perf": self.report()}
        if extra:
            payload.update(extra)
        from repro.util.atomicio import atomic_write

        with atomic_write(path) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)


#: The process-global registry every instrumented path reports into.
PERF = PerfRegistry()
