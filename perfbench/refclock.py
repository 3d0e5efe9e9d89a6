"""Reference kernel and the arithmetic that scales op times by it.

Shared virtual hosts change speed by up to a factor of two from one second
to the next, and raw wall or CPU time picks that up.  Every op is therefore
timed next to a fixed pure-Python reference kernel run in the same process,
and its time is reported as ``wall / kernel_time * NOMINAL_S``: seconds at
the speed where the kernel takes exactly ``NOMINAL_S``.  The kernel time
used for one op is the median of the kernel samples taken just before and
just after it (``HALF_WINDOW`` on each side), which follows drift over a
few tenths of a second while ignoring a single disturbed sample.

Scaling cancels drift only as far as the kernel slows down in step with the
code it calibrates.  On a 2-vCPU Xeon virtual machine, over 0.3 s windows,
temperedk ops divided by a kernel of f-string dict updates still varied by
10-15 % (interquartile range over median); divided by the kernel below,
built from the same kinds of operations as temperedk, they varied by about
6 %, the same as one temperedk op divided by another.
"""

from __future__ import annotations

import statistics
import time
from itertools import combinations
from typing import Sequence

NOMINAL_S = 0.001
HALF_WINDOW = 3


class _Cell:
    __slots__ = ("labels", "key")

    def __init__(self, labels: tuple[int, ...], key: str) -> None:
        self.labels = labels
        self.key = key


def kernel() -> int:
    """Fixed pure-Python work in the style of the code it calibrates:
    label tuples from ``combinations``, small objects, string keys and a
    keyed sort.  About a millisecond on a current x86 core."""
    cells = [_Cell(c, ",".join(map(str, c))) for c in combinations(range(17), 3)]
    cells.sort(key=lambda cell: (cell.key, cell.labels))
    return len(cells)


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def window_refs(kernel_samples: Sequence[float]) -> list[float]:
    """Reference time for each op of a timeline.

    The timeline alternates kernel samples and ops, starting and ending
    with a kernel sample, so op ``i`` lies between samples ``i`` and
    ``i + 1``.  Its reference is the median of the ``HALF_WINDOW`` samples
    before it and the ``HALF_WINDOW`` after it, clipped at both ends.
    """
    count = len(kernel_samples) - 1
    if count < 0:
        raise ValueError("a timeline starts with a kernel sample")
    refs = []
    for i in range(count):
        lo = max(0, i + 1 - HALF_WINDOW)
        hi = min(len(kernel_samples), i + 1 + HALF_WINDOW)
        refs.append(statistics.median(kernel_samples[lo:hi]))
    return refs


def scaled(wall_s: float, ref_s: float) -> float:
    """Wall time converted to seconds at reference speed."""
    if ref_s <= 0:
        raise ValueError(f"reference time must be positive, got {ref_s}")
    return wall_s / ref_s * NOMINAL_S


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median, as statistics.quantiles gives it."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
