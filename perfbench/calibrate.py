"""Host-speed calibration for the benchmark's timings.

The benchmark shares a few cores of a host with other tenants, and their
load changes how fast the same code runs: on a 2-vCPU Intel Xeon VM the
same sweep took from 2.8 s to 4.9 s within minutes, for tens of seconds at a
time. The calibration loop below does a fixed piece of work that does not
touch rspider, in the same kinds of work as the program: a Python loop of
small numpy products, Python object calls, a strided column gather and a
BLAS product. It runs after every timed piece, so each piece is bracketed by
two calibration times taken on the same core at nearly the same moment.
Both piece and loop are timed over a whole run, and the run reports their
ratio, so no single moment of contention decides the figure.

Each piece is paired with the mean of the two calibration times around it,
and a calibrated time is measured time over calibration time, times
``REF_S`` (``run.py`` sums both over a run first). ``REF_S`` only sets the
scale: it is what the loop took on an idle core of that VM, so calibrated
seconds read close to idle seconds there. A change to the program moves the
calibrated time by the same share as the measured one; a change of host
load moves both the piece and the loop, and cancels as far as the piece's
work slows like the loop's (``NOTES.md`` has how far that holds).
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.011  # one calibration loop on an idle core of a 2-vCPU Intel Xeon VM


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def add(self, other):
        return _Pair(self.a + other.a, self.b * other.b)


class Calibration:
    """The fixed loop, its inputs drawn once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(181104194)
        a = rng.standard_normal((20, 20))
        self._small = a / np.linalg.norm(a, 2)
        self._x0 = rng.standard_normal(20)
        self._big = rng.standard_normal((200, 20000))
        self._idx = rng.integers(0, 20000, size=2000)
        self._w = rng.standard_normal(200)
        self.sink = 0.0
        self.last = self.time()

    def _loop(self):
        x, s = self._x0.copy(), 0.0
        for _ in range(600):
            y = self._small @ x
            s += float(y[0])
            x = y / np.linalg.norm(y)
        p, one, seen = _Pair(0.0, 1.0), _Pair(1.0, 1.0), {}
        for i in range(6000):
            p = p.add(one)
            seen[i & 63] = p
        s += p.a
        s += float((self._w @ self._big.take(self._idx, axis=1)).sum())
        block = self._big[:, :3000]
        s += float((block @ block.T).trace())
        self.sink = s

    def time(self) -> float:
        t0 = time.perf_counter()
        self._loop()
        return time.perf_counter() - t0

    def bracket(self, seconds: float) -> tuple[float, float]:
        """Time the loop after a piece that took ``seconds``.

        The loop runs once per started half second of the piece, at most 8
        times, so a long piece is matched by a longer look at the host.
        Returns the piece's time and the mean calibration time around it;
        the loop time just taken opens the bracket of the next piece.
        """
        reps = min(8, 1 + int(seconds / 0.5))
        before, self.last = self.last, sum(self.time() for _ in range(reps)) / reps
        return seconds, (before + self.last) / 2
