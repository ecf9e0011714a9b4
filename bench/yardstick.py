"""A fixed piece of calibration work that tracks the machine's current speed.

On a shared 2-vCPU host, CPU speed drifts by about +-20% over tens of
seconds, for interpreter-bound and BLAS-bound work alike (their 2-second
medians correlate at 0.97).  Timing the same small kernel before every op
measures that drift where the op ran.  An op time multiplied by
REFERENCE_S / (local kernel time) is the time the op would take on a
machine running the kernel in REFERENCE_S: reference seconds.  That removes
most of the drift from run-to-run comparisons and leaves the program's own
speed; the raw wall times are reported beside them.
"""

from statistics import median
from time import perf_counter

import numpy as np

# Median kernel time on a 2-vCPU Xeon at 2.1 GHz with one BLAS thread.
REFERENCE_S = 0.0085
WINDOW = 3   # kernel samples taken on each side of an op


class Yardstick:
    """Times the calibration kernel: small numpy calls from a Python loop,
    then one dense complex matrix product."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((384, 384)) + 1j * rng.random((384, 384))
        self._v = rng.random(8)

    def measure(self) -> float:
        start = perf_counter()
        acc = 0.0
        for i in range(600):
            acc += float(np.dot(self._v, self._v)) * (i % 7)
        acc += float((self._a @ self._a).real[0, 0])
        return perf_counter() - start


def scales(marks: list[float]) -> list[float]:
    """Reference-speed factor of each op from kernel times taken before the
    first op and after every op (``marks[i]`` and ``marks[i + 1]`` bracket
    op i): REFERENCE_S over the median of the nearby kernel times."""
    return [REFERENCE_S / median(marks[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
            for i in range(len(marks) - 1)]
