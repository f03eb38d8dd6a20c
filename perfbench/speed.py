"""Host speed reference.

The benchmark runs on shared hosts whose single-thread speed drifts: on
the 2-vCPU Xeon VM this benchmark was built on, the same pure-Python loop
ran about 1.5x faster or slower for seconds to minutes at a time, with or
without CPU pinning, in wall and in CPU time alike.  So end-to-end times
are reported at a fixed reference speed: a short loop that does not touch
q16det is timed every SAMPLE_EVERY_S seconds during the measured work, and
a time t becomes t * NOMINAL_S / (reference time).  A change to q16det
moves the scaled figure as it moves the raw one; a change of host speed
moves only the raw one.  Raw figures are kept in the record.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

#: A typical reference time on the host above (its fast state is ~0.21 ms).
NOMINAL_S = 0.0003

#: Interval of the reference samples taken while measured work runs.
SAMPLE_EVERY_S = 0.05

_MATRIX = [[(7919 * i * i + 104729 * j + 13) % 1999 - 999 for j in range(7)] for i in range(7)]


def _loop() -> int:
    # Fraction-free elimination steps on a fixed 7x7 integer matrix: the
    # same mix of int products, floor division and list indexing as the
    # determinant kernels.
    m = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(6):
        if m[k][k] == 0:
            m[k][k] = 1
        pivot = m[k][k]
        for i in range(k + 1, 7):
            row_i, lead = m[i], m[i][k]
            for j in range(k + 1, 7):
                row_i[j] = (row_i[j] * pivot - lead * m[k][j]) // prev
        prev = pivot
    return m[6][6]


def reference() -> float:
    """Seconds the reference loop takes now (median of three passes)."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(10):
            _loop()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


class Tracker:
    """Reference samples every SAMPLE_EVERY_S seconds while work runs.

    An interval timer interrupts the work and times the reference loop in
    the signal handler, so long pieces of work (a 14 s direct scan pass) are
    sampled throughout.  ``measured`` subtracts the sampling time from a
    piece of work, and ``scaled`` divides it by the mean reference time of
    the samples inside it, or of the two around it when it held none.  Use
    as a context manager around the timed phase.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, reference)

    def _sample(self, *_) -> None:
        t0 = perf_counter()
        ref = reference()
        self.samples.append((t0, perf_counter(), ref))

    def __enter__(self) -> "Tracker":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _inside(self, start: float, end: float) -> list[tuple[float, float, float]]:
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        return self.samples[lo:hi]

    def measured(self, start: float, end: float) -> float:
        """Seconds of work between two clock readings, without sampling."""
        return end - start - sum(min(e, end) - s for s, e, _ in self._inside(start, end))

    def scaled(self, start: float, end: float) -> float:
        """measured(start, end) at the reference speed."""
        inside = self._inside(start, end)
        if not inside:
            i = bisect.bisect_left(self.samples, (start,))
            inside = self.samples[max(0, i - 1) : i + 1]
        ref = sum(r for _, _, r in inside) / len(inside)
        return self.measured(start, end) * NOMINAL_S / ref
