"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes.  ``kernel()`` times a fixed mix of ``Fraction``
arithmetic, dict inserts, scalar float loops and numpy calls on tiny and
medium arrays (the kinds of work the three workloads do) that shares no
code with ``gradedgroups``: a change to the program cannot move it, only the
machine can.  A timing ``t`` taken next to a calibration ``c`` is
reported as ``t * REFERENCE_S / c``, seconds on a machine where the
kernel takes ``REFERENCE_S``.
"""

import gc
import time
from fractions import Fraction

import numpy as np

# kernel time on a quiet 2-core x86_64 virtual machine, Python 3.11, numpy 2.4
REFERENCE_S = 0.015


def kernel() -> float:
    """Seconds for the calibration work, with the collector paused."""
    gc.collect()
    gc.disable()
    try:
        return _work()
    finally:
        gc.enable()


def _work() -> float:
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
    table = {}
    for i in range(10000):
        table[(i, i % 7)] = float(i) ** 0.5
    a = np.linspace(0.0, 1.0, 2000)
    for _ in range(200):
        a = np.sqrt(a * a + 1e-3) - 1e-4
    for i in range(1000):
        t = np.asarray(i * 1e-3)
        np.stack([t, t, t], axis=-1).reshape(3)
    s = 0.0
    for i in range(20000):
        s += (i * 0.5) ** 0.5 - abs(s) * 1e-9
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """A timing in reference seconds, from the calibrations around it."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
