"""Host-speed normalisation of measured times.

The benchmark runs on a few cores of a shared host whose speed changes
under it: ``kernel`` below takes about 0.5 ms or about 0.9 ms, switching
every few seconds within one process, with process CPU time equal to
wall time, so the swing is the host's, not the scheduler's.  A
wall-clock throughput over a minute inherits that swing: on a 2-vCPU
Xeon VM the same run read 31 or 18 verified certificates per minute an
hour apart.

``Pace`` cancels it.  While an operation runs, an interval timer
interrupts it every ``PERIOD`` seconds, and the signal handler times
``kernel`` -- a fixed dense-pivot loop on a small numpy array, the same
mix of interpreter and small-array work as mdmvi's simplex and hull
code.  Each stretch of the operation's own time (timer work excluded) is
scaled by ``REF_S`` over the kernel time measured around it, so the
result reads in seconds of a host that runs the kernel in ``REF_S``.
A change to the program moves this reference time as it moves wall time;
a change of host speed moves both the program and the kernel, and
cancels.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD = 0.1  # seconds between kernel samples inside an operation
REF_S = 0.5e-3  # the kernel's time on the reference host (best of BEST_OF)
BEST_OF = 3  # repeats per sample; the fastest one drops interrupts

_BASE = 1.0 + (np.arange(7 * 11, dtype=float).reshape(7, 11) * 0.618034) % 1.0


def kernel(reps: int = 6) -> float:
    """Gauss-Jordan sweeps on a fixed 7 x 11 array, row by row, as the
    program's tableau pivots are."""
    acc = 0.0
    for _ in range(reps):
        T = _BASE.copy()
        for p in range(T.shape[0] - 1):
            T[p] /= T[p, p]
            for r in range(T.shape[0]):
                if r != p and T[r, p] != 0.0:
                    T[r] -= T[r, p] * T[p]
        acc += float(np.abs(T[-1]).min())
    return acc


def sample() -> float:
    """The kernel's current time on this host, fastest of BEST_OF."""
    best = float("inf")
    for _ in range(BEST_OF):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class Pace:
    """Time one stretch of work in wall and in reference seconds.

    ``with Pace() as p: work()`` leaves ``p.wall_s`` (the work's own wall
    time, timer samples excluded) and ``p.ref_s`` (the same, scaled to
    the reference host stretch by stretch).  With ``since``, a
    ``perf_counter`` reading taken earlier, the time from then to the
    first sample counts too, scaled by that sample alone.
    """

    def __init__(self, since: float | None = None):
        self._since = since
        self.wall_s = 0.0
        self.ref_s = 0.0

    def _take(self) -> None:
        t0 = perf_counter()
        k = sample()
        t1 = perf_counter()
        stretch = t0 - self._mark  # the work's time since the last sample
        self.wall_s += stretch
        self.ref_s += stretch * REF_S * 2.0 / ((self._k or k) + k)
        self._k, self._mark = k, t1

    def _tick(self, signum, frame) -> None:
        self._take()

    def __enter__(self) -> "Pace":
        self._k = None
        self._mark = perf_counter() if self._since is None else self._since
        self._take()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._take()
