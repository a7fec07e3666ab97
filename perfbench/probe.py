"""Sample the machine's speed from inside a benchmark child while its job runs.

A shared host's speed drifts by up to 1.8x over minutes, so the benchmark
reports each job's time at a fixed reference speed.  Every ``PERIOD_S``
seconds a ``SIGALRM`` handler times ``piece()``, a fixed product of two
sparse polynomials with ``Fraction`` coefficients: the kind of work fedconn's
ring does, written with the standard library only, so that no change to the
program can change it.  A job's scale is ``REF_S`` over the mean piece time,
and the time spent in pieces is taken out of the job's wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.2
# typical piece() time on the 2-vCPU Xeon the benchmark's figures were taken
# on; job times are reported at the speed at which a piece takes this long
REF_S = 0.0018


def _poly(seed: int, size: int) -> dict:
    poly = {}
    for i in range(size):
        exps = (i % 5, i // 5 % 4, i // 20 % 3, (i + seed) % 2)
        poly[exps] = poly.get(exps, Fraction(0)) + Fraction((i * seed) % 11 - 5, i % 7 + 1)
    return poly


_A, _B = _poly(3, 20), _poly(5, 20)


def piece() -> float:
    """Seconds taken by one fixed 20 x 20 term product (about 1.5 ms)."""
    t0 = time.perf_counter()
    product = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
            product[e] = product.get(e, 0) + ca * cb
    return time.perf_counter() - t0


class Sampler:
    """Times one piece at start, every PERIOD_S seconds after it, and at stop."""

    def __init__(self):
        self.times = []

    def _sample(self, *_):
        self.times.append(piece())

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()

    def total_s(self) -> float:
        return sum(self.times)

    def stats(self) -> dict:
        return {"n": len(self.times), "mean_s": statistics.fmean(self.times),
                "total_s": self.total_s()}
