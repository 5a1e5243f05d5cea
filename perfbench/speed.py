"""Host speed, measured with a fixed pure-Python reference loop.

On a shared host the same code runs up to about 1.5 times slower while
other tenants are busy, in episodes of seconds to minutes, so raw op
times of two runs of the same commit can differ by a quarter.
``SpeedProbe`` times the reference loop every ``INTERVAL`` seconds from a
SIGALRM handler, in the benchmark's own thread, while the timed ops run;
``normalize`` removes the handler's own time from an op and scales the
rest to a host on which the reference loop takes ``NOMINAL_S``.  The
reference does nothing with gridfa, so it never moves when gridfa does.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from collections import deque

INTERVAL = 0.05
NOMINAL_S = 0.0008


def reference() -> None:
    """Dict and integer work, then a small breadth-first search over
    tuples in a set: the kinds of work a gridfa decision does."""
    table = dict.fromkeys(range(256), 0)
    total = 0
    for i in range(3000):
        table[i & 255] = i
        total += table[(i * 7) & 255] % 13
    seen = set()
    frontier = deque([(0, 0, "s")])
    while frontier:
        r, c, s = frontier.popleft()
        for key in ((r + 1, c, s), (r, c + 1, s)):
            if key[0] < 24 and key[1] < 24 and key not in seen:
                seen.add(key)
                frontier.append(key)


def calibration_ms() -> float:
    """Fifty reference loops back to back, in milliseconds."""
    start = time.perf_counter()
    for _ in range(50):
        reference()
    return (time.perf_counter() - start) * 1e3


class SpeedProbe:
    """Context manager sampling the reference loop during the timed phase."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, *_args) -> None:
        start = time.perf_counter()
        reference()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, start: float, end: float) -> float:
        """Time of an interval from ``start`` to ``end`` (perf_counter),
        without the samples taken inside it, at nominal speed.  The speed
        is the mean of the samples inside, or else the latest one before.
        Samples never overlap, so starts and ends are both sorted."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        durations = [self.ends[k] - self.starts[k] for k in range(lo, hi)]
        if durations:
            local = statistics.mean(durations)
        else:
            k = max(bisect.bisect_right(self.ends, end) - 1, 0)
            local = self.ends[k] - self.starts[k]
        return (end - start - sum(durations)) * NOMINAL_S / local

    def median_ms(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends)) * 1e3
