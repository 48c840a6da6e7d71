"""Wall time scaled to a reference host speed.

The speed of the host drifts: identical rounds take up to 1.6x longer a
minute later, and the process CPU time drifts with it, for Plutus and for
any other Python loop alike.  So a fixed pure-Python task (``sweep``) is
timed before and after every timed call, and every ``INTERVAL_S`` of wall
time during it from a SIGALRM handler in the main thread.  A call's scaled
time is its wall time, without the time the handler took, times ``REF_S``
times the mean inverse sample time: the time the call would have taken on
a host where one sweep always takes ``REF_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

# About the time of one sweep() on the reference host (2-core VM, CPython
# 3.11) in a quiet spell; it only fixes the scale of the reported seconds.
REF_S = 0.001
INTERVAL_S = 0.05
BOUNDARY_SAMPLES = 3
_RING = [[(v + d) % 400 for d in (-3, -2, -1, 1, 2, 3)] for v in range(400)]


def sweep() -> float:
    """Seconds for ten BFS sweeps of a 400-node ring lattice."""
    t0 = time.perf_counter()
    for start in range(0, 400, 40):
        seen = {start}
        queue = [start]
        for x in queue:
            for y in _RING[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return time.perf_counter() - t0


class Clock:
    """Accumulates, per kind of call, the raw and the scaled wall time.
    ``pauses`` holds the (start, end) of each sample taken during a call,
    so that span durations can leave them out."""

    def __init__(self) -> None:
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.pauses: list[tuple[float, float]] = []
        self._samples: list[float] = []
        self._spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(sweep())
        t1 = time.perf_counter()
        self.pauses.append((t0, t1))
        self._spent += t1 - t0

    def time(self, kind: str, fn, *args):
        """``fn(*args)``, timed and added to ``kind``."""
        before = [sweep() for _ in range(BOUNDARY_SAMPLES)]
        first, spent = len(self._samples), self._spent
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self._spent - spent
        after = [sweep() for _ in range(BOUNDARY_SAMPLES)]
        # Work done is the integral of speed (1 / sweep time) over the call,
        # so average the inverse; a stall during the call counts in full.
        # Each boundary counts as one sample, its median.
        samples = self._samples[first:] + [statistics.median(before), statistics.median(after)]
        mean_speed = statistics.fmean(1 / sample for sample in samples)
        self.raw[kind] = self.raw.get(kind, 0.0) + wall
        self.scaled[kind] = self.scaled.get(kind, 0.0) + wall * REF_S * mean_speed
        return result
