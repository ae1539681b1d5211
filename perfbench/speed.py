"""Machine-speed normalisation of op times.

The benchmark shares a few cores of a host whose speed for one process
swings by up to 1.8x over seconds to minutes, with CPU time tracking wall
time, so neither longer runs nor CPU clocks remove the swings.  Each timed
phase therefore interleaves a fixed calibration kernel with its ops: after
every op the kernel runs for about a quarter of the time the op took (at
least once), and every op time is rescaled to what it would have been at a
fixed reference speed::

    reference time = wall time * REFERENCE_KERNEL_S / local kernel time

where the local kernel time is the mean of the kernel samples taken within
``WINDOW_S`` of the op (between the op's start minus ``WINDOW_S`` and its end
plus ``WINDOW_S``).  The kernel is benchmark code, never the package's, so a
change to the package moves the op times and not the kernel: only the
machine's own slowdowns cancel.  It does stdlib work of the kind the
package does (rational arithmetic, dicts, strings, big integers) and runs
with the garbage collector off, so that it never pays for collecting the
package's objects.  The times in the result are "reference seconds": wall
seconds on a machine where the kernel takes ``REFERENCE_KERNEL_S``, close to
wall seconds on an idle 2-vCPU Xeon VM with Python 3.11.
"""

from __future__ import annotations

import bisect
import gc
from fractions import Fraction
from statistics import fmean
from time import perf_counter

REFERENCE_KERNEL_S = 0.0004
WINDOW_S = 0.1
SHARE = 0.25


def kernel() -> int:
    """Fixed work, about 0.4 ms on the reference machine."""
    table = {}
    acc = Fraction(0)
    x = 1
    for i in range(1, 120):
        acc += Fraction(i, i + 7)
        table[i] = str(i * i)
        x = x * 3 + i
    return len(sorted(table.values())) + acc.numerator % 7 + x % 11


def kernel_seconds() -> float:
    """Time one run of the kernel, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Kernel samples of one timed phase, and the ops' rescaling."""

    def __init__(self) -> None:
        self.times: list[float] = []  # start of each kernel sample
        self.seconds: list[float] = []  # its duration

    def calibrate(self, op_seconds: float) -> None:
        """Run the kernel for about SHARE of ``op_seconds``, at least once."""
        for _ in range(max(1, round(op_seconds * SHARE / REFERENCE_KERNEL_S))):
            self.times.append(perf_counter())
            self.seconds.append(kernel_seconds())

    def reference(self, start: float, end: float) -> float:
        """The op that ran from ``start`` to ``end``, in reference seconds."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return (end - start) * REFERENCE_KERNEL_S / fmean(self.seconds[lo:hi])

    def mean_kernel_s(self) -> float:
        return fmean(self.seconds)
