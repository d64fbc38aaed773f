"""Host-speed reference: scale measured times to one nominal host speed.

A shared host can run the same code up to about 1.8 times slower for seconds
at a time, when other tenants load the processor. Timing the program alone,
that swing dominates the run-to-run spread of every time. The benchmark
therefore times a fixed reference computation (interpreter work plus the
small complex-matrix work the package does) in the same process, on the same
CPU, between the timed sections, and reports each timed section scaled by
``NOMINAL_S / (reference time near that section)``: the time the section
would take on a host where the reference takes ``NOMINAL_S``. The reference
is benchmark code, so a change to the program leaves its work unchanged. Raw
times are reported alongside.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from numpy.linalg import eigvalsh  # bound at import: a traced run wraps np.linalg

NOMINAL_S = 0.75e-3
SAMPLE_INTERVAL_S = 0.02
BURST = 5
# reference samples this close to a timed section also describe its host speed;
# a wider window smooths over the short slowdowns that make the slowest operations
WINDOW_S = 0.02

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_B, _C = _A[:2, :2].copy(), _A[:4, :4].copy()


def reference() -> float:
    """Seconds taken by a fixed mix of interpreter and small-matrix work."""
    start = time.perf_counter()
    total = 0
    for i in range(1500):
        total += (i * i) % 7
    for _ in range(15):
        h = _A @ _A.conj().T
        eigvalsh(h)
        np.kron(_B, _C)
    return time.perf_counter() - start


class HostSpeed:
    """Reference samples taken between timed sections, with their times."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        """Time the reference, unless one was timed in the last interval."""
        now = time.perf_counter()
        if not self.at or now - self.at[-1] >= SAMPLE_INTERVAL_S:
            self.seconds.append(reference())
            self.at.append(now)

    def burst(self) -> None:
        """Time the reference several times: the samples next to a long
        section are the only ones its scale can use."""
        for _ in range(BURST):
            self.at.append(time.perf_counter())
            self.seconds.append(reference())

    def scale(self, start: float, end: float) -> float:
        """Factor that takes time spent in [start, end] to the nominal host:
        NOMINAL_S over the median reference time among the samples within
        WINDOW_S of the interval and the nearest sample on each side."""
        lo = min(bisect.bisect_left(self.at, start - WINDOW_S), max(bisect.bisect_left(self.at, start) - 1, 0))
        hi = max(bisect.bisect_right(self.at, end + WINDOW_S), bisect.bisect_right(self.at, end) + 1)
        return NOMINAL_S / statistics.median(self.seconds[lo:hi])
