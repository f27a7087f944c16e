"""Reference seconds: wall times corrected for the machine's changing speed.

The benchmark machine (2 shared vCPUs) changes speed by up to 1.7x over
tens of seconds; raw wall times of whole 30 s runs differed by 20% and
more, and one 5 s report can span a fast and a slow phase.  SpeedProbe
therefore times a small fixed exact elimination, written without gradedlie
so that no change to the package can move it, three times before and after
each timed operation and every PROBE_INTERVAL_S during it (from a SIGALRM
handler in the main thread).  The operation's wall time, minus the time
spent in probes inside it, is scaled by PROBE_NOMINAL_S over the mean probe
time: the result is the time the operation would take on a machine where
the probe takes exactly PROBE_NOMINAL_S.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PROBE_NOMINAL_S = 0.002
PROBE_INTERVAL_S = 0.1
PROBES_AROUND = 3


def probe() -> float:
    """Wall time of a fixed 8x8 exact Gauss-Jordan elimination."""
    n = 8
    start = time.perf_counter()
    rows = [[Fraction((3 * i + 5 * j + i * j) % 7 - 3, 1 + (i + 2 * j) % 4) for j in range(n)]
            for i in range(n)]
    r = 0
    for c in range(n):
        pivot = next((k for k in range(r, n) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for k in range(n):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return time.perf_counter() - start


class SpeedProbe:
    """Times operations in reference seconds; install once, from the main thread."""

    def __init__(self):
        self.spent = 0.0  # seconds spent in probes inside timed operations, cumulative
        self._inside: list[float] = []
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            seconds = probe()
            self._inside.append(seconds)
            self.spent += seconds

    def around(self, operation, sample_inside: bool = True):
        """(result, wall seconds net of probes, factor to reference seconds).

        sample_inside=False leaves the operation uninterrupted, for operations
        that wait on another process, where a probe would measure the other core.
        """
        before = [probe() for _ in range(PROBES_AROUND)]
        self._inside = []
        start = time.perf_counter()
        if sample_inside:
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            result = operation()
        finally:
            self._armed = False
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        inside = self._inside
        after = [probe() for _ in range(PROBES_AROUND)]
        factor = PROBE_NOMINAL_S / statistics.mean(before + inside + after)
        return result, wall - sum(inside), factor
