"""Reference kernel that measures how fast the machine runs right now.

On a shared host the same pass over the same inputs can take 20-40% longer
for minutes at a time, and the set-up time moves with it.  A timing divided
by the time of this fixed kernel, run just before it in the same process,
keeps much less of that drift.  The kernel is plain Python arithmetic: it
calls neither the library nor numpy nor BLAS, so no change to the program
or to its thread settings can move it.
"""

from __future__ import annotations

import math
import statistics
import time

__all__ = ["NOMINAL_S", "kernel_seconds", "to_reference"]

# The kernel's time on an unloaded 2-core x86 host; a reference time is
# what the timing would read on a machine running the kernel this fast.
NOMINAL_S = 0.1
_STEPS = 300_000


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_STEPS):
        acc += math.exp(-1e-6 * i) * math.erfc(1e-5 * i) + math.sqrt(i + 1.0)
    return time.perf_counter() - t0


def to_reference(pairs: list[tuple[float, float]]) -> float:
    """Median of ``seconds / kernel`` over (seconds, kernel) pairs, in seconds."""
    return statistics.median(s / k for s, k in pairs) * NOMINAL_S
