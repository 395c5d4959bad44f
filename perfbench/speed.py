"""Machine speed, sampled with a fixed reference loop while the program runs.

On a shared virtual machine the same code runs up to about 1.8x slower for
stretches of a second to minutes, so raw seconds of two runs of one commit
can differ by a third.  While a phase is measured, an interval timer
interrupts the program every ``interval`` seconds and times a call of
``reference()``.  Each operation's time is then reported scaled to a
machine on which the reference loop takes ``REF_SECONDS``:

    reported = measured * REF_SECONDS / mean(reference samples near it)

where "near" is from ``PAD`` seconds before the operation to ``PAD``
seconds after it.  ``Speed.clock`` excludes the time spent in the sampler,
so ``measured`` is the program's own time.  A change to the package
changes ``measured`` and leaves the reference loop alone, so the scaling
keeps every ratio between two commits.

Samples taken right before each operation correlate poorly with it (the
machine changes speed within a second).  Over 42 solves each of ``da``,
``ttc`` and ``eadam`` on a 1,000-student instance (2-vCPU virtual machine),
scaling by samples taken every 20 ms during the solve cut the coefficient
of variation of its time from 0.20-0.21 to 0.06-0.08; in another 42 each,
scaling by one sample before the solve left it at 0.18-0.21 (unscaled
0.15-0.22).  Short operations suffer from being interrupted: over six
10-second runs of ``trade``, whose median operation takes 3.6 ms, sampling
every 50 ms rather than every 20 ms cut the coefficient of variation of
the median from 0.066 to 0.019.  So the interval is ``INTERVAL`` unless a
workload's operations last long enough to take denser samples.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
from array import array
from time import perf_counter

INTERVAL = 0.05
PAD = 0.25
# About a sample's time on a quiet 2-vCPU x86-64 virtual machine.
REF_SECONDS = 0.0003


def reference() -> int:
    """A fixed fraction of a millisecond of the kind of work the package
    does: integer arithmetic, tuple-keyed dict updates, list appends, a
    sort and a set."""
    counts: dict[tuple[int, int], int] = {}
    values = []
    x = 1
    for i in range(500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 255, i & 7)
        counts[key] = counts.get(key, 0) + 1
        values.append((x >> 8) % 1000)
    values.sort()
    return len(counts) + len({v for v in values if v & 1})


class Speed:
    """Timed reference samples of one measured phase.

    ``clock()`` is ``perf_counter()`` minus the time the sampler has taken
    so far; workloads time their calls with it.  ``scale(start, end)`` is
    the factor for an operation that ran between those ``perf_counter()``
    readings."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.at = array("d")       # perf_counter() when each sample started
        self.took = array("d")     # seconds each sample took
        self.stolen = 0.0

    def clock(self) -> float:
        return perf_counter() - self.stolen

    def _sample(self, signum, frame) -> None:
        """Time the second of two reference calls: the first brings its
        code and data back into the caches, so the sample depends on the
        machine and not on what the interrupted program had cached."""
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        reference()
        t2 = perf_counter()
        self.at.append(t0)
        self.took.append(t2 - t1)
        self.stolen += perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start - PAD)
        hi = bisect.bisect_right(self.at, end + PAD)
        if lo == hi:   # a long native call delayed the handler: the nearest sample
            lo = max(0, min(lo, len(self.at) - 1))
            hi = lo + 1
        return REF_SECONDS / statistics.fmean(self.took[lo:hi])

    def summary(self) -> str:
        q = statistics.quantiles(self.took, n=4) if len(self.took) > 1 else list(self.took) * 3
        return (f"reference loop {statistics.fmean(self.took) * 1e3:.4f} ms mean, quartiles "
                f"{', '.join(f'{x * 1e3:.4f}' for x in q)} ms (n={len(self.took)}), "
                f"{self.stolen:.3f} s excluded; times are scaled to {REF_SECONDS * 1e3:g} ms")
