"""Spans recorded from outside the program.

:class:`SpanRecorder` wraps a class's method (or a module's function) in
place, so every call made through the class records a span: name, raw start
and end, thread CPU time, and the index of the enclosing span.  Spans stay in
memory until the run ends.  :func:`self_times` then charges each span its
duration minus the time its wrapped children cover, in whatever clock the
caller passes (the benchmark passes the speed-corrected one).
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One span: (name, start, end, thread-CPU seconds inside, parent index).
Span = Tuple[str, float, float, float, int]


class SpanRecorder:
    """Collects spans while :attr:`active`; wrappers cost one branch otherwise."""

    def __init__(self):
        self.spans: List[Span] = []
        self.active = False
        self._stack: List[int] = []
        #: Counts kept by ``on_result`` hooks, e.g. useful-outcome totals.
        self.counts: Dict[str, int] = {}

    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable[["SpanRecorder", object, tuple], None]] = None,
             span: bool = True) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``on_result(recorder, result, args)`` runs after each call;
        ``span=False`` records no span, for hooks that only count.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{name}: only plain functions and methods can be wrapped")
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        cpu = time.thread_time

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            if not span:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(self, result, args)
                return result
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            cpu0 = cpu()
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                spans[index] = (name, start, end, cpu() - cpu0, parent)
                stack.pop()
            if on_result is not None:
                on_result(self, result, args)
            return result

        setattr(owner, attr, wrapper)

    def record(self, name: str, start: float, end: float, cpu_s: float) -> None:
        """Add a span measured elsewhere, as a child of the open span."""
        self.spans.append((name, start, end, cpu_s, self._stack[-1] if self._stack else -1))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def self_times(spans: Sequence[Span], clock: Callable[[float], float] = float
               ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and ``wait_s``.

    ``self_s`` is each span's duration under ``clock`` minus the durations
    of its direct children; ``wait_s`` is raw wall time minus thread CPU time,
    i.e. time the call spent blocked.
    """
    durations = [clock(end) - clock(start) for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for index, (_, _, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[index]
    out: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, cpu_s, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "wait_s": 0.0})
        row["calls"] += 1
        row["total_s"] += durations[index]
        row["self_s"] += durations[index] - child_time[index]
        row["wait_s"] += max(0.0, (end - start) - cpu_s)
    return out
