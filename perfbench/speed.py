"""In-process speed probe: rescales wall times to a fixed reference speed.

The machines this runs on are shared, and the speed a process gets drifts
by up to 2x within seconds (measured: one A2 adjoint monodromy took 4.3 s
and 9.8 s in back-to-back runs of the same process).  A timer signal runs a
fixed exact-arithmetic kernel every INTERVAL seconds; the mean kernel time
over a window says how slow the machine was then.  A window's wall time
times REFERENCE_S / mean kernel time is the time the same work would take
on a machine where the kernel takes REFERENCE_S.  In the back-to-back runs
above, the rescaled times agreed within 6%.  The kernel costs about 2% of
the process's time, the same on every run.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL = 0.025
REFERENCE_S = 0.0005


def _kernel():
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(1, i)
    return s


class SpeedProbe:
    """Kernel timings taken on SIGALRM; start() once per process."""

    def __init__(self):
        self.at = []      # perf_counter() when each sample ended
        self.took = []    # its kernel time
        self.started = None

    def _sample(self, signum, frame):
        t = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.at.append(end)
        self.took.append(end - t)

    def start(self):
        self.started = time.perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time in [start, end], widened by
        one sample each side so that short windows have samples."""
        lo = max(bisect.bisect_left(self.at, start) - 1, 0)
        hi = min(bisect.bisect_right(self.at, end) + 1, len(self.took))
        window = self.took[lo:hi] or [REFERENCE_S]
        return REFERENCE_S * len(window) / sum(window)

    def scaled(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] at the reference speed."""
        return (end - start) * self.factor(start, end)
