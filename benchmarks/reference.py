"""The host-speed reference: fixed work timed next to every measurement.

Neighbour load on a shared host slows a process by 20-50 % in phases of
a few seconds, and CPU time slows with it.  The benchmark therefore
times this fixed work in the same process, next to what it measures,
and reports measured / reference (see ``run.py``).

One *slice* mixes the kinds of work the program does: integer
arithmetic and dict stores in the interpreter, numpy scalar indexing
with float maths (as in the tridiagonal QL loop), float formatting (as
in table rendering) and small numpy vector operations (as in grids and
quadrature).  ``Sampler`` interrupts a running operation every
``SAMPLE_INTERVAL_S`` to time one slice, so that the reference follows
drift during long operations too.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# Slices in one full reference: about 50 ms on a 2-core Xeon VM when no
# neighbour load slows it.
SLICES = 10
SAMPLE_INTERVAL_S = 0.1

_DIAG = np.linspace(1.0, 2.0, 60)
_OFFDIAG = np.full(60, 0.25)
_GRID = np.linspace(0.0, 1.0, 200)


def _slice() -> None:
    acc, table = 0, {}
    for i in range(10_000):
        acc += i * i % 7
        table[i & 255] = acc
    d, e = _DIAG.copy(), _OFFDIAG.copy()
    for _ in range(17):
        for i in range(59):
            f = d[i] * e[i]
            g = math.hypot(f, d[i + 1])
            d[i] = g - f * 0.5
            e[i] = abs(e[i] - g * 1e-3)
    "\r\n".join(f"{i},{i * 0.37 / 3.0!r},{-i * 0.37:.17g}" for i in range(700))
    for _ in range(500):
        float(np.dot(_GRID, np.exp(-_GRID) * _GRID))


def timed(slices: int = SLICES) -> tuple[float, float]:
    """Wall and CPU seconds of ``slices`` slices of the reference work."""
    c0, w0 = time.process_time(), time.perf_counter()
    for _ in range(slices):
        _slice()
    return time.perf_counter() - w0, time.process_time() - c0


class Sampler:
    """Times one reference slice every ``SAMPLE_INTERVAL_S`` (SIGALRM).

    ``wall`` and ``cpu`` sum the time spent in the slices, which the
    caller subtracts from the operation's time; ``count`` is the number
    of slices.
    """

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.count = 0

    def _sample(self, signum, frame) -> None:
        wall, cpu = timed(1)
        self.wall += wall
        self.cpu += cpu
        self.count += 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
