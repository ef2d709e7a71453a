"""The host's momentary speed, measured by timing a fixed computation.

On a shared host the same op can take 1.7 times longer for seconds or minutes
at a stretch, and drift by a third between runs minutes apart.  Raw times
then say more about the neighbours than about the program.  This module times
`reference`, a fixed pure-Python computation that no change to lukatree can
alter, and scales measured times to a nominal host on which the reference
takes REF_NOMINAL_MS.  A slower program still reads slower; a slower host
does not.

Only the standard library is imported here, so a fresh process can time the
reference before it imports anything else.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

clock = time.perf_counter_ns

REF_NOMINAL_MS = 2.5
TICK_S = 0.2  # seconds between reference samples
MARGIN_NS = 2_000_000_000  # samples this close to a timed interval scale it


def reference() -> int:
    """The fixed computation: integer, list, dict, bisect and call traffic."""
    table = [0, 3, 7, 10, 15, 21, 28, 36]
    counts: dict[int, int] = {}
    kept = []
    state = 0x9E3779B9
    for i in range(6000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        seg = bisect.bisect_right(table, state % 36) - 1
        counts[seg] = counts.get(seg, 0) + 1
        if state & 7 == 0:
            kept.append(i)
    return len(kept) + len(counts)


def time_reference() -> int:
    """ns taken by one reference run, after one untimed run to warm it up."""
    reference()
    start = clock()
    reference()
    return clock() - start


class HostSpeed:
    """Times a reference computation every TICK_S seconds from SIGALRM.

    The handler runs in the main thread between bytecodes, so samples land
    inside long ops as well as between them.  `busy_ns` is the total time the
    handler took, which callers subtract from the ops they time.  The
    computation should resemble the timed work and take about REF_NOMINAL_MS.
    """

    def __init__(self, computation=reference):
        self.computation = computation
        self.at: list[int] = []
        self.ns: list[int] = []
        self.busy_ns = 0

    def _tick(self, signum, frame) -> None:
        start = clock()
        self.computation()
        took = clock() - start
        self.at.append(start)
        self.ns.append(took)
        self.busy_ns += took

    def __enter__(self) -> HostSpeed:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """No ticks inside the block; the next one comes when it was due."""
        left, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, left or TICK_S, TICK_S)

    def scale(self, start: int, end: int) -> float:
        """Factor taking a time measured over [start, end] to the nominal host.

        It is REF_NOMINAL_MS over the median reference time sampled within
        MARGIN_NS of the interval, or at the nearest sample if none is.
        """
        if not self.ns:
            raise ValueError("no reference samples were taken")
        lo = bisect.bisect_left(self.at, start - MARGIN_NS)
        hi = bisect.bisect_right(self.at, end + MARGIN_NS)
        if lo == hi:
            lo = min((i for i in (lo - 1, lo) if 0 <= i < len(self.at)), key=lambda i: abs(self.at[i] - start))
            hi = lo + 1
        return REF_NOMINAL_MS * 1e6 / statistics.median(self.ns[lo:hi])
