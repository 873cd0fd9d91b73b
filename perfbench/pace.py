"""How fast the host runs right now, from small fixed kernels.

On a shared host the CPU's speed swings over seconds: the same
``rfho state`` call took 180 to 340 ms within 30 s, in CPU time as well
as wall time, so descheduling is not the cause and process time does not
help.  The benchmark runs a kernel around every operation and scales the
operation's time by ``REFERENCE_S / kernel time``; reported times then
read as if the kernel took ``REFERENCE_S``.  A slowdown hits interpreter
code and numpy loops by different amounts, so each workload uses the
kernel closest to its own work.  In tests on one host, blocks of ten
operations varied by 14% raw and 3% scaled for a k-space call with the
interpreter kernel, and by 7% raw, 6% with the interpreter kernel and 2%
with the numpy kernel for an x-space transform.  The kernels use none of
rfho, so a change to rfho moves scaled times as it moves raw ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: the kernel time at the speed scaled times refer to
REFERENCE_S = 0.010


def _interpreter() -> float:
    """Fraction and float arithmetic in the interpreter, like the exact algebra."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1, 3000):
        total += float(Fraction(i, 7) * Fraction(3, i + 1)) + (i * 0.5) ** 1.3
    return time.perf_counter() - start


def _numpy() -> float:
    """cos of an outer product, like the quadrature kernel of a transform."""
    import numpy as np

    xs, ks = np.linspace(0.0, 40.0, 100), np.linspace(0.0, 25.0, 4800)
    start = time.perf_counter()
    np.cos(np.outer(xs, ks)).sum()
    return time.perf_counter() - start


_KERNELS = {"interpreter": _interpreter, "numpy": _numpy}


def pace(kernel: str = "interpreter") -> float:
    """Seconds the named kernel takes now (each takes some 10 to 20 ms)."""
    return _KERNELS[kernel]()


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel runs into reference time."""
    return 2 * REFERENCE_S / (before + after)


def settled(kernel: str = "interpreter") -> float:
    """``pace()`` after one discarded run: a kernel's first run in a process is slow."""
    pace(kernel)
    return pace(kernel)
