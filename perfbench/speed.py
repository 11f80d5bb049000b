"""Machine-speed reference for the benchmark's timings.

On a shared machine the speed of a core can drift by up to 2x for seconds
to minutes at a time, whatever runs on it: on a shared 2-vCPU virtual
machine the same exact-arithmetic loop took anywhere from 75 to 165 ms.
Every timed region is therefore paired with a fixed reference computation
that uses no germinv code, and times are reported at a nominal speed:
value * NOMINAL_REF_MS / measured reference ms.  Fresh-interpreter probes
(set-up and cold CLI calls) track process start-up rather than arithmetic,
so run.py scales each of them by a bare interpreter start measured just
before it: value * NOMINAL_START_MS / measured start ms.  run.py prints the
raw values beside the scaled ones.  Never change reference_unit or the
nominal constants: they are part of every recorded baseline.  The scaling
only holds when the reference runs on the same core as the work it
brackets, which is why run.py pins the benchmark to one CPU.
"""

from __future__ import annotations

from fractions import Fraction
from statistics import median
from time import perf_counter

NOMINAL_REF_MS = 2.0
NOMINAL_START_MS = 60.0  # a bare `python -c pass`
REFERENCE_UNITS = 5
REF_INTERVAL_S = 0.5  # longest stretch of ops between two references


def reference_unit() -> Fraction:
    """Exact rational arithmetic with growing operands, like germinv's own."""
    acc = Fraction(0)
    for k in range(1, 300):
        acc = acc * Fraction(k, k + 1) + Fraction(1, k)
    return acc


def reference_ms() -> float:
    """Median wall time of REFERENCE_UNITS reference units, in ms."""
    times = []
    for _ in range(REFERENCE_UNITS):
        start = perf_counter()
        reference_unit()
        times.append((perf_counter() - start) * 1000)
    return median(times)


class SpeedTrack:
    """Pairs each timed op with the machine speed around it.

    A reference is measured at the start, between ops once REF_INTERVAL_S
    has passed since the last one, and at close(); each op is paired with
    the mean of the two references that bracket it.
    """

    def __init__(self):
        self.records: list = []  # [op ms, reference ms, counted]
        self._pending: list = []
        self._ref = reference_ms()
        self._since = perf_counter()

    def add(self, op_ms: float, counted: bool):
        self._pending.append((op_ms, counted))
        if perf_counter() - self._since >= REF_INTERVAL_S:
            self.close()

    def close(self):
        ref = reference_ms()
        mean = (self._ref + ref) / 2
        self.records.extend([op_ms, mean, counted] for op_ms, counted in self._pending)
        self._pending.clear()
        self._ref, self._since = ref, perf_counter()
