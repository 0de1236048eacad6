"""Scoped garbage-collector tuning for cache-heavy study runs.

CPython's default thresholds (700 young allocations per gen-0 pass) were
set for small heaps.  A study run with the content-addressed caches warm
keeps hundreds of thousands of long-lived container objects resident —
DOM trees, rendered views, feature Counters — and every *full* collection
walks all of them: profiled at benchmark scale, collector pauses were
~26% of cached wall-clock, ~420 ms per full pass, charged to whatever
hot path happened to allocate next (``web.fetch`` absorbed most of it).

:func:`low_pause_gc` raises the thresholds for the duration of a run so
young garbage is still collected (in much cheaper, larger batches) while
full passes effectively stop.  That defers *cyclic* garbage only —
acyclic objects, including every evicted cache entry (DOM trees hold no
parent pointers), are reclaimed immediately by refcounting regardless.
On exit the previous thresholds are restored and nothing more: the
cycles the scope deferred go to the collector's next ordinary pass.  A
full collection there would walk every tracked object (~200k at the end
of a benchmark-scale study) to free a handful of cycles while the
study's results still hold its world.

The tune is applied by ``StudyRun.execute`` and ``run_ablation`` — the
two entry points that run a full simulation — and helps cached and
uncached runs alike, so the benchmark A/B stays fair.  ``run_ablation``
does collect once after its scope: it has dropped its world by then,
and the next variant's scope would defer freeing it again.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator, Tuple

#: Young-generation batch of 50k allocations keeps gen-0 passes off the
#: per-day hot path; the raised promotion ratios make full passes rare
#: enough that a study-length scope typically sees none.
LOW_PAUSE_THRESHOLDS: Tuple[int, int, int] = (50_000, 25, 20)


@contextmanager
def low_pause_gc() -> Iterator[None]:
    """Run a block under :data:`LOW_PAUSE_THRESHOLDS`, then restore the
    previous thresholds.  Re-entrant: an inner scope defers to the outer
    one."""
    previous = gc.get_threshold()
    if previous == LOW_PAUSE_THRESHOLDS:
        yield  # already inside a low-pause scope; nothing to restore
        return
    gc.set_threshold(*LOW_PAUSE_THRESHOLDS)
    try:
        yield
    finally:
        gc.set_threshold(*previous)
