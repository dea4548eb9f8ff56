"""The host's speed, sampled while the toolkit runs.

The benchmark's host is shared: its cores alternate between a fast and a
slow state (about 1.6 times slower) in stretches from a fraction of a
second to minutes, and CPU time grows with wall time in the slow state,
so no per-process clock leaves it out.  A run's median cannot average
away a stretch as long as the run.

``SpeedSampler`` interleaves a fixed calibration chunk (small numpy
arithmetic, a 3 x 3 determinant, a dict: the kind of work the toolkit
does per node) with the code it wraps: a timer signal every
``INTERVAL_S`` runs one chunk and records its time.  The chunk's mean time
over the interval, against ``REF_CHUNK_S``, is the host's slowdown while
the code ran; ``normalise`` divides the code's own time (the wall time
minus the sampler's) by it, giving the time the code would have taken at
the reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.01
CHUNK_ITERATIONS = 40
# Mean chunk time on the machine of BENCH_1.json while the host was in its
# fast state; any fixed value serves, it only sets the scale.
REF_CHUNK_S = 2.0e-4

_A = np.arange(9.0).reshape(3, 3) + np.eye(3)


def chunk() -> float:
    s = 0.0
    for i in range(CHUNK_ITERATIONS):
        b = _A * 0.5 + i
        s += float(np.linalg.det(b))
        d = {"x": s}
        s += d["x"] % 3.0
    return s


class SpeedSampler:
    """Context manager that samples the chunk time every INTERVAL_S of wall
    time while its body runs (SIGALRM; the handler runs between bytecodes
    of the main thread)."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:  # a signal that lands during a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        chunk()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self) -> float:
        """Mean chunk time over REF_CHUNK_S.  Each sample is capped at twice
        the median: a preemption that lands inside one 0.2 ms chunk would
        otherwise weigh as much as dozens of samples."""
        if not self.samples:
            raise RuntimeError("the sampler took no samples")
        cap = 2.0 * statistics.median(self.samples)
        return statistics.fmean(min(s, cap) for s in self.samples) / REF_CHUNK_S

    def normalise(self, wall: float) -> float:
        """Seconds the wrapped code would take at the reference speed, from
        the wall time of the sampled interval."""
        return (wall - self.spent) / self.slowdown()
