"""Time at a fixed reference CPU speed.

On a small virtual machine each vCPU's speed swings on its own, so raw wall
time for the same work does not repeat.  :class:`SpeedSampler` times a fixed
pure-Python kernel on the pinned CPU every ~0.1 s (from a ``SIGALRM``
handler) and rescales the wall time of each slice between two kernel runs by
``REFERENCE_KERNEL_S / measured kernel time``.  The kernel's own time is
excluded.  :class:`CorrectedClock` maps any raw ``perf_counter`` reading to
seconds of work at the reference speed; it is a pure function of the
recorded slices, so it is tested on synthetic samples and applied after the
run to span timestamps.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_right
from typing import Dict, Sequence

#: Kernel time at the reference CPU speed.  Any fixed value works; this one
#: is near the kernel's typical time on the 2-vCPU Xeon guest the benchmark
#: was written on, so corrected seconds read close to raw seconds there.
REFERENCE_KERNEL_S = 0.0035

#: Seconds between kernel samples.
INTERVAL_S = 0.1


class Kernel:
    """The fixed reference work: an integer loop, then a walk in scattered
    order over 2**19 float objects (~16 MB).

    The program chases pointers through a heap far larger than the CPU
    caches, so memory contention from other guests slows it more than it
    slows arithmetic; the walk makes the kernel feel that contention too
    (see NOTES.md for how the variants compared).  The kernel allocates no
    garbage-collected objects, so it leaves the program's collector
    untouched.
    """

    ARITHMETIC = 6_000
    WALK = 3_000
    HEAP = 1 << 19
    #: Odd, so stepping by it modulo ``HEAP`` visits every slot, each step
    #: landing ~275 KB away from the last: too far for the prefetchers.
    STEP = 2654435761

    def __init__(self):
        self.data = [float(i) for i in range(self.HEAP)]
        self.index = 0

    def __call__(self) -> float:
        acc = 0
        for i in range(self.ARITHMETIC):
            acc = (acc * 31 + i) & 0xFFFFFF
        data, step, mask = self.data, self.STEP, self.HEAP - 1
        index = self.index
        total = 0.0
        for _ in range(self.WALK):
            index = (index + step) & mask
            total += data[index]
        self.index = index
        return total


class CorrectedClock:
    """Raw time -> corrected seconds since ``starts[0]``.

    Slice ``i`` runs from ``starts[i]`` to ``ends[i]``; then the kernel took
    ``kernels[i]`` seconds, and slice ``i + 1`` starts when it ended.  Raw
    time inside slice ``i`` counts ``reference / kernels[i]`` corrected
    seconds per second; time inside a kernel run, or after the last slice,
    counts nothing.
    """

    def __init__(self, starts: Sequence[float], ends: Sequence[float],
                 kernels: Sequence[float], reference: float = REFERENCE_KERNEL_S):
        self.starts = list(starts)
        self.ends = list(ends)
        self.factors = [reference / k for k in kernels]
        self.prefix = [0.0]
        for s, e, f in zip(self.starts, self.ends, self.factors):
            self.prefix.append(self.prefix[-1] + (e - s) * f)

    def __call__(self, t: float) -> float:
        i = bisect_right(self.starts, t) - 1
        if i < 0:
            return 0.0
        return self.prefix[i] + (min(t, self.ends[i]) - self.starts[i]) * self.factors[i]


class SpeedSampler:
    """Samples CPU speed on a timer and records slices for correction.

    ``origin`` is the raw time the first slice starts from; passing the
    parent's spawn time makes interpreter start-up part of the first slice.
    """

    def __init__(self, origin: float):
        self.starts = array("d", [origin])
        self.ends = array("d")
        self.kernels = array("d")
        self.kernel = Kernel()
        self._busy = False
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Disarm the timer and close the last slice; returns its end."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
        return self.mark()

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.mark()

    def mark(self) -> float:
        """Close the current slice now, e.g. at a phase boundary; returns the
        raw time the slice ended."""
        self._busy = True
        try:
            end = time.perf_counter()
            self.kernel()
            done = time.perf_counter()
            self.ends.append(end)
            self.kernels.append(done - end)
            self.starts.append(done)
            return end
        finally:
            self._busy = False

    def clock(self) -> CorrectedClock:
        """The corrected clock over every closed slice."""
        return CorrectedClock(self.starts[:len(self.ends)], self.ends, self.kernels)

    def evidence(self, start: float, end: float) -> Dict[str, float]:
        """Raw figures for ``[start, end]``: the kernel's total time there
        (the sampler's own cost) and the quartiles of its samples in ms."""
        inside = [k for e, k in zip(self.ends, self.kernels) if start < e <= end]
        if len(inside) >= 2:
            q1, q2, q3 = statistics.quantiles(inside, n=4)
        else:
            q1 = q2 = q3 = inside[0] if inside else 0.0
        return {
            "sampler_s": sum(inside),
            "samples": len(inside),
            "kernel_ms_q1": q1 * 1e3,
            "kernel_ms_q2": q2 * 1e3,
            "kernel_ms_q3": q3 * 1e3,
        }
