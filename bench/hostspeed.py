"""Host speed, sampled while a job runs, to put job times on one scale.

On a host shared with other tenants, a CPU-bound job slows by a third or
more for seconds at a time, and wall times follow: medians of the same job
in fresh processes differ by that much.  So a fixed calibration kernel
(small-matrix numpy, dict and big-integer work, like the program's own) is
timed every ``PERIOD`` seconds from a SIGALRM handler while the job runs.
The job's time is its wall time less the time spent in the handler, scaled by
``REFERENCE`` over the mean kernel time seen during the job: seconds at
the host speed where the kernel takes ``REFERENCE`` seconds.

The kernel does not call the program, so a change to the program moves
the scaled time in the same proportion as the wall time.
"""

import signal
import statistics
import time

import numpy as np

PERIOD = 0.05
# Kernel time of a typical quiet moment on a 2.1 GHz Xeon VM with 2 vCPUs.
REFERENCE = 1.0e-3

_STEP = np.array([[0.9, 0.1, 0.0, 0.0],
                  [0.1, 0.8, 0.1, 0.0],
                  [0.0, 0.1, 0.9, 0.1],
                  [0.0, 0.0, 0.1, 0.8]])
_BIG = 3**200 + 17


def kernel():
    """Fixed work of about a millisecond; returns its duration.

    Half small-matrix numpy and dict work, half big-integer arithmetic,
    because the program's float paths and its mpmath paths slow differently
    under contention.
    """
    t0 = time.perf_counter()
    M = np.eye(4)
    seen = {}
    for i in range(150):
        M = M @ _STEP
        M /= float(np.abs(M).max())
        seen[i] = float(M[0, 0])
    a = _BIG
    for i in range(60):
        a = (a * _BIG + i) >> 300
        seen[i] = [a >> k for k in range(0, 40, 8)]
    return time.perf_counter() - t0


class Sampler:
    """Kernel times taken while a ``with`` block runs.

    One sample is taken on entry, before the block's own work, so a block
    shorter than ``PERIOD`` still has one.  Each later sample runs inside
    ``span("hostspeed")``, so a tracer can take it out of the self time of
    the span it interrupted.
    """

    def __init__(self, span):
        self._span = span
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        with self._span("hostspeed"):
            self.samples.append(kernel())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples = [kernel()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def factor(self):
        """Reference over measured speed: multiplies a time taken in the block."""
        return REFERENCE / statistics.fmean(self.samples)

    def scaled(self, wall):
        """``wall`` seconds of the block, less the sampling, at the reference speed."""
        return (wall - self.spent) * self.factor
