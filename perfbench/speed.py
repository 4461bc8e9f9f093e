"""Host-speed calibration, so that timings from a shared machine can be compared.

On a shared virtual machine the CPU speed drifts by tens of percent over
seconds to minutes, as neighbouring tenants come and go, so a run's raw wall
time says as much about the host as about charfactor.  A :class:`SpeedProbe`
times a fixed pure-Python loop every ``INTERVAL_S`` seconds of wall time
(from a ``SIGALRM`` timer, so samples also fall inside long instances) and
converts a measured interval into *reference seconds*: the interval, less
the calibration time spent inside it, scaled by
``REFERENCE_S / (mean calibration time around the interval)``.  A reference
second is a wall-clock second on a host where the loop takes
``REFERENCE_S``, about the typical speed of the 2-core virtual machine the
benchmark was defined on.  The loop does no charfactor work, so a change to
the program moves reference seconds in proportion to wall seconds.
"""

from __future__ import annotations

import bisect
import signal
from contextlib import contextmanager
from time import perf_counter

LOOP = 40_000
REFERENCE_S = 0.004
INTERVAL_S = 0.1


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        _loop()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    @contextmanager
    def sampling(self):
        """Sample at the start, every ``INTERVAL_S`` seconds, and at the end."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    @contextmanager
    def paused(self):
        """Stop the timer, e.g. while a child process runs on the other CPU."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The interval [t0, t1) in reference seconds (see the module docstring)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        # a short interval between two samples takes the speed of both neighbours
        around = self.durations[max(lo - 1, 0):hi + 1]
        return (t1 - t0 - sum(inside)) * REFERENCE_S * len(around) / sum(around)
