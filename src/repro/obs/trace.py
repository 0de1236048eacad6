"""Hierarchical span tracing over the study pipeline.

A *span* is one named, nested region of a run — ``study``, ``simulate``,
one ``day`` (tagged with its sim-date), that day's ``campaigns`` /
``interventions`` / ``serps`` / ``traffic`` passes, the measurement
``crawl``, the ``classify`` stages, the ``analysis``.  Each span
records:

* wall-clock (``perf_counter`` pairs — the same monotonic source the PERF
  registry uses; never the host calendar clock);
* its tags (``sim_day``, ``pages``, ...);
* the **PERF counter and timer deltas** that accrued inside it, so the
  always-on registry gains phase structure: the trace tree shows *where
  inside* a ``day`` the ``engine.serp`` / ``web.fetch`` /
  ``crawler.dagger`` time goes without adding per-call instrumentation.
  This tree is the one timer report; the registry prints nothing itself.

Tracing is **off by default**.  Disabled, :meth:`Tracer.span` returns a
shared ``nullcontext`` — no allocation, no clock read — so the hooks wired
through the simulator and crawler cost nothing on untraced runs; spans are
only created at phase granularity (a few per simulated day), so traced
runs stay within a few percent of untraced wall-clock.  Tracing reads no
simulation state and writes none: traced study outputs are byte-identical
to untraced ones (pinned in ``tests/test_obs.py``).

Exports, both written by ``python -m repro run --trace``:

* :meth:`Tracer.render` — an aggregated text tree (same-named siblings
  merge, with call counts);
* :meth:`Tracer.chrome_trace` — Chrome/Perfetto ``trace_event`` JSON
  (open in ``chrome://tracing`` or https://ui.perfetto.dev), whose event
  ``args`` carry each span's tags and PERF counter and timer deltas.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.util.perf import PERF

#: Shared do-nothing context for the disabled fast path.
_NULL_SPAN = nullcontext()


class Span:
    """One completed (or in-flight) traced region."""

    __slots__ = (
        "name", "tags", "ts_us", "dur_s", "children", "counters", "timers",
        "_t0", "_counter_base", "_timer_base",
    )

    def __init__(self, name: str, tags: Dict[str, object]):
        self.name = name
        self.tags = tags
        #: Start offset from the tracer epoch, microseconds.
        self.ts_us = 0.0
        #: Wall-clock seconds between enter and exit.
        self.dur_s = 0.0
        self.children: List["Span"] = []
        #: PERF counter deltas accrued inside the span.
        self.counters: Dict[str, int] = {}
        #: PERF timer deltas accrued inside the span: name -> (calls, seconds).
        self.timers: Dict[str, Tuple[int, float]] = {}
        self._t0 = 0.0
        self._counter_base: Dict[str, int] = {}
        self._timer_base: Dict[str, Tuple[int, float]] = {}

    # ------------------------------------------------------------------ #

    def _enter(self, epoch: float) -> None:
        self._counter_base = PERF.counters()
        self._timer_base = {
            name: (stat.calls, stat.total) for name, stat in PERF.timers().items()
        }
        self._t0 = perf_counter()
        self.ts_us = (self._t0 - epoch) * 1e6

    def _exit(self) -> None:
        self.dur_s = perf_counter() - self._t0
        base = self._counter_base
        self.counters = {
            name: value - base.get(name, 0)
            for name, value in PERF.counters().items()
            if value - base.get(name, 0)
        }
        timer_base = self._timer_base
        timers: Dict[str, Tuple[int, float]] = {}
        for name, stat in PERF.timers().items():
            calls0, total0 = timer_base.get(name, (0, 0.0))
            if stat.calls != calls0:
                timers[name] = (stat.calls - calls0, stat.total - total0)
        self.timers = timers
        self._counter_base = {}
        self._timer_base = {}

    # ------------------------------------------------------------------ #

    def exclusive_timers(self) -> Dict[str, Tuple[int, float]]:
        """Timer deltas not already accounted for by an explicit child span
        (a PERF timer that advanced inside ``serps`` shows there, not again
        on the enclosing ``day``)."""
        out: Dict[str, Tuple[int, float]] = {}
        for name, (calls, total) in self.timers.items():
            child_calls = sum(c.timers.get(name, (0, 0.0))[0] for c in self.children)
            child_total = sum(c.timers.get(name, (0, 0.0))[1] for c in self.children)
            if calls - child_calls > 0:
                out[name] = (calls - child_calls, total - child_total)
        return out

    def structure(self) -> tuple:
        """Timing-free shape: (name, tags, child structures).  Two runs of
        the same seed must produce equal structures (tested)."""
        return (
            self.name,
            tuple(sorted((k, str(v)) for k, v in self.tags.items())),
            tuple(child.structure() for child in self.children),
        )

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, dur={self.dur_s:.3f}s, "
                f"children={len(self.children)})")


class Tracer:
    """Process-global span collector (see module docstring)."""

    def __init__(self):
        self._enabled = False
        self._epoch: Optional[float] = None
        self._stack: List[Span] = []
        self.roots: List[Span] = []

    # ------------------------------------------------------------------ #
    # Switching
    # ------------------------------------------------------------------ #

    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_enabled(self, on: bool) -> bool:
        """Flip tracing; enabling starts a fresh trace.  Returns previous."""
        previous = self._enabled
        self._enabled = bool(on)
        if self._enabled and not previous:
            self.reset()
        return previous

    def reset(self) -> None:
        self._stack = []
        self.roots = []
        self._epoch = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def span(self, name: str, **tags):
        """Context manager opening a child span of the current one.

        Disabled tracer: returns a shared no-op context (zero cost)."""
        if not self._enabled:
            return _NULL_SPAN
        return self._record(name, tags)

    @contextmanager
    def _record(self, name: str, tags: Dict[str, object]) -> Iterator[Span]:
        span = Span(name, tags)
        if self._epoch is None:
            self._epoch = perf_counter()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        span._enter(self._epoch)
        try:
            yield span
        finally:
            span._exit()
            self._stack.pop()

    # ------------------------------------------------------------------ #
    # Rendering / export
    # ------------------------------------------------------------------ #

    def render(self) -> str:
        """Aggregated text tree: same-named siblings merge with a ``×N``
        call count; PERF timer deltas appear as ``·`` leaf lines at the
        deepest span that exclusively accrued them."""
        if not self.roots:
            return "(no spans recorded — enable tracing first)"
        lines: List[str] = []
        groups = _aggregate(self.roots)
        for i, group in enumerate(groups):
            _render_group(group, "", i == len(groups) - 1, None, lines)
        return "\n".join(lines)

    def chrome_trace(self, manifest: Optional[dict] = None) -> dict:
        """The trace in Chrome/Perfetto ``trace_event`` format.

        ``manifest`` (a :func:`repro.obs.manifest.run_manifest` dict) rides
        in ``otherData`` so the provenance travels with the trace file."""
        events: List[dict] = []
        for root in self.roots:
            _emit_events(root, events)
        other: Dict[str, object] = {"source": "repro.obs.trace"}
        if manifest is not None:
            other["manifest"] = manifest
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": other,
        }

    def dump_chrome_trace(self, path: str, manifest: Optional[dict] = None) -> None:
        import json

        from repro.util.atomicio import atomic_write

        with atomic_write(path) as handle:
            json.dump(self.chrome_trace(manifest), handle, indent=1, sort_keys=True)
            handle.write("\n")


def _emit_events(span: Span, events: List[dict]) -> None:
    args: Dict[str, object] = {str(k): v for k, v in span.tags.items()}
    for name, value in sorted(span.counters.items()):
        args[name] = value
    for name, (calls, total) in sorted(span.timers.items()):
        args[f"{name}.calls"] = calls
        args[f"{name}.total_ms"] = round(total * 1e3, 3)
    events.append({
        "name": span.name,
        "ph": "X",
        "ts": round(span.ts_us, 1),
        "dur": round(span.dur_s * 1e6, 1),
        "pid": 0,
        "tid": 0,
        "cat": "repro",
        "args": args,
    })
    for child in span.children:
        _emit_events(child, events)


class _Group:
    """Same-named sibling spans merged for the text rendering."""

    __slots__ = ("name", "count", "dur_s", "children", "timers", "tags")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.dur_s = 0.0
        self.children: List[Span] = []
        self.timers: Dict[str, Tuple[int, float]] = {}
        #: Tag summary: first span's tags (day ranges collapse to first..last).
        self.tags: Dict[str, object] = {}


def _aggregate(spans: List[Span]) -> List["_Group"]:
    groups: Dict[str, _Group] = {}
    order: List[str] = []
    for span in spans:
        group = groups.get(span.name)
        if group is None:
            group = groups[span.name] = _Group(span.name)
            order.append(span.name)
            group.tags = dict(span.tags)
        group.count += 1
        group.dur_s += span.dur_s
        group.children.extend(span.children)
        for name, (calls, total) in span.exclusive_timers().items():
            calls0, total0 = group.timers.get(name, (0, 0.0))
            group.timers[name] = (calls0 + calls, total0 + total)
    return [groups[name] for name in order]


def _render_group(
    group: "_Group",
    prefix: str,
    last: bool,
    parent_dur: Optional[float],
    lines: List[str],
) -> None:
    if parent_dur is None:
        connector = ""
        child_prefix = prefix
    else:
        connector = "└─ " if last else "├─ "
        child_prefix = prefix + ("   " if last else "│  ")
    label = group.name if group.count == 1 else f"{group.name} ×{group.count}"
    share = ""
    if parent_dur and parent_dur > 0:
        share = f"  {group.dur_s / parent_dur:6.1%}"
    tag_text = ""
    if group.count == 1 and group.tags:
        tag_text = "  [" + ", ".join(
            f"{k}={v}" for k, v in sorted(group.tags.items())) + "]"
    lines.append(
        f"{prefix}{connector}{label:<{max(1, 36 - len(prefix) - len(connector))}}"
        f"{group.dur_s:9.3f}s{share}{tag_text}"
    )
    for name, (calls, total) in sorted(
            group.timers.items(), key=lambda kv: -kv[1][1]):
        lines.append(
            f"{child_prefix}· {name:<{max(1, 34 - len(child_prefix))}}"
            f"{total:9.3f}s  ({calls:,} calls)"
        )
    child_groups = _aggregate(group.children)
    for i, child in enumerate(child_groups):
        _render_group(child, child_prefix, i == len(child_groups) - 1,
                      group.dur_s, lines)


#: The process-global tracer every instrumented path reports into.
TRACER = Tracer()


def tracing_enabled() -> bool:
    return TRACER.enabled


def set_tracing_enabled(on: bool) -> bool:
    """Module-level convenience mirroring :func:`repro.perf.cache.set_caches_enabled`."""
    return TRACER.set_enabled(on)
