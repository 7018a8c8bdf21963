"""Host speed, measured by a fixed pure-Python loop.

The host's speed drifts by tens of percent over seconds to minutes, with
CPU time equal to wall time, so the benchmark also gives each measured time
normalised to a fixed host speed.  A `HostClock` times the loop at marks a
few tenths of a second apart; the wall time between two marks is scaled by
REF_S over the mean of the loop's two timings, and the time spent in the
loop is left out.  The loop is the benchmark's own code, so a change to the
program moves normalised times exactly as it moves wall times.
"""

from time import perf_counter

# the loop's time at the speed normalised times are quoted at: about its
# median on an unloaded 2-vCPU x86-64 VM under CPython 3.11
REF_S = 0.004


def reference_s() -> float:
    """Fastest of three timings of the loop."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        s = 0
        for i in range(40000):
            s += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


def normalised(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` as it would read at the host speed where the loop takes
    REF_S."""
    return seconds * REF_S / ((ref_before + ref_after) / 2)


class HostClock:
    """Wall time and normalised time, summed over the segments between
    marks.  `mark(force=False)` is a no-op until MIN_SEGMENT_S has passed
    since the last mark, so marks can be offered often at little cost."""

    MIN_SEGMENT_S = 0.25

    def __init__(self):
        self.wall = 0.0
        self.norm = 0.0
        self.refs = [reference_s()]
        self._start = perf_counter()

    def mark(self, force: bool = True) -> None:
        now = perf_counter()
        if not force and now - self._start < self.MIN_SEGMENT_S:
            return
        self.refs.append(reference_s())
        self.wall += now - self._start
        self.norm += normalised(now - self._start, self.refs[-2], self.refs[-1])
        self._start = perf_counter()

    def speed(self) -> float:
        """Normalised over wall time so far."""
        return self.norm / self.wall
