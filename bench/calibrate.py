"""Machine-speed calibration for CPU-time measurements.

The benchmark runs on a shared virtual machine.  Stolen time moves wall
times, and contention from other guests on the same host moves even the
CPU time of a fixed loop by more than half within a minute.  So the CPU
times the benchmark gates on are scaled by the speed of the machine at the
time: a fixed reference loop is timed on the same CPU before and after
every RECALIBRATE_CPU_S of measured work, and each CPU time is multiplied
by REFERENCE_NOMINAL_S over the mean of the reference times around it.
The result reads as CPU time on a machine where the reference loop takes
REFERENCE_NOMINAL_S.

The reference blends the kinds of work the package does in pure Python:
Fraction arithmetic (membership over Q), small-integer products indexed
from a tuple (the oracle's filter) and dict stores of tuples (table
builds).
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

REFERENCE_NOMINAL_S = 0.004
# time the reference loop again after this much measured CPU time
RECALIBRATE_CPU_S = 0.1

_FRACTIONS = [Fraction(k % 97 + 1, k % 89 + 1) for k in range(200)]
_SMALL = tuple(range(16))


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU, so that the
    reference loop sees the same contention as the measured work."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})


def _fractions() -> None:
    acc = Fraction(0)
    for a, b in zip(_FRACTIONS, _FRACTIONS[1:]):
        acc += a * b - b


def _integers() -> None:
    v, bad = _SMALL, 0
    for k in range(5000):
        if (v[k & 15] * v[(k >> 1) & 15] - v[(k >> 2) & 15] * v[(k >> 3) & 15]) % 7:
            bad += 1


def _tables() -> None:
    table = {}
    for k in range(5000):
        table[(k, k % 7)] = k * 3 % 11


def _fastest(part) -> float:
    """CPU seconds of the fastest of three runs, so that caches left cold
    by a child process that just ended do not count."""
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        part()
        best = min(best, time.process_time() - start)
    return best


def reference_cpu() -> float:
    """CPU seconds of the reference loop."""
    return _fastest(_fractions) + _fastest(_integers) + _fastest(_tables)


class Calibration:
    """Collects CPU times and scales each by the mean of the reference
    times measured just before and just after it."""

    def __init__(self):
        self.scaled: list[float] = []
        self._pending: list[float] = []
        self._before = reference_cpu()

    def add(self, cpu: float) -> None:
        self._pending.append(cpu)
        if sum(self._pending) >= RECALIBRATE_CPU_S:
            self.flush()

    def flush(self) -> list[float]:
        """Scale what is pending; returns every calibrated time so far."""
        if self._pending:
            after = reference_cpu()
            factor = 2 * REFERENCE_NOMINAL_S / (self._before + after)
            self.scaled.extend(cpu * factor for cpu in self._pending)
            self._pending = []
            self._before = after
        return self.scaled
