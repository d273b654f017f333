"""The host's speed, measured by a fixed reference loop next to the work.

The benchmark runs on virtual machines whose speed changes by 20-40% from
one stretch of seconds to the next, with process CPU time equal to wall
time (other tenants slow the vCPU down; no time is stolen outright).  A
run of half a minute cannot average that out, so the end-to-end times of
two runs of the same code differ by as much as a real regression would.

What does cancel it: the same process times a fixed reference loop, which
uses no braidrep code, at regular moments in between the work.  The loop
is a small integer polynomial product and a short ``Fraction`` sum, the two
kinds of arithmetic braidrep spends its time on.  Each end-to-end time is
reported in *reference seconds*: the measured time multiplied by
``REFERENCE_S`` over the mean time of the reference loop in the same
process, that is, the time the work would take on a host where the loop
takes ``REFERENCE_S``.  The mean, not the median: loops timed at regular
intervals see each stretch of the host for as long as the work does, so
their mean slows down by the same time-weighted factor as the work's total.
A change to braidrep cannot move the loop, so it moves the reported time as
much as the measured one; a change of host speed moves both and cancels.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# About the mean time of one reference loop on the 2-vCPU x86 VM the bounds
# were set on (Python 3.11).  Any constant would do: it only fixes the unit.
REFERENCE_S = 0.007

# Time one loop after a task whenever this much time has passed since the
# previous loop, so that about 3% of a timed phase goes to the loop.
PROBE_EVERY_S = 0.25

_A = list(range(1, 25))
_B = list(range(7, 31))


def reference_loop() -> float:
    """Run the fixed reference loop once and return its wall time.

    The cyclic garbage collector is off while the loop runs, so that its
    time does not depend on how much garbage the program left behind or on
    the collector settings the program chose.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(100):
            out = [0] * (len(_A) + len(_B) - 1)
            for i, x in enumerate(_A):
                for j, y in enumerate(_B):
                    out[i + j] += x * y
        s = Fraction(0)
        for i in range(1, 120):
            s += Fraction(1, i) * Fraction(i + 1, i + 2)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples, weights=None) -> float:
    """Factor that turns measured seconds into reference seconds."""
    return REFERENCE_S / statistics.fmean(samples, weights)


class SpeedProbe:
    """Task hooks that time the reference loop between tasks.

    A loop is timed after a task once ``PROBE_EVERY_S`` have passed since
    the last one.  Its weight is the time since the last one, since a task
    can take longer than that and the loop stands for the whole stretch.
    ``spent_s`` adds up the time taken by the loops, so that callers can
    take it out of any span that encloses tasks.
    """

    def __init__(self):
        self.samples = []
        self.weights = []
        self.spent_s = 0.0
        self._last = perf_counter()

    def begin_task(self):
        pass

    def end_task(self):
        now = perf_counter()
        if now - self._last >= PROBE_EVERY_S:
            self.samples.append(reference_loop())
            self.weights.append(now - self._last)
            self._last = perf_counter()
            self.spent_s += self._last - now
