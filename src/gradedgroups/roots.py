"""Batched bisection on a membership predicate: ball boundaries, low-degree
edges, the reach of a covering ball and unit-gauge crossings all use it.
Callers pick the stopping width and the cap, and read the end they need.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# interior points tested per round; a round shrinks the bracket POINTS + 1 fold
POINTS = 256
_FRACTIONS = np.arange(1, POINTS + 1) / (POINTS + 1)


def bisect(inside: Callable[[np.ndarray], np.ndarray], a: float, b: float,
           tol: Callable[[float, float], float], max_iter: int):
    """Shrink the bracket [a, b] around the edge of the set where ``inside`` holds.

    ``inside`` maps an array of parameters to a bool array; it holds at a
    and not at b, and a may lie on either side of b.  Each round tests
    POINTS evenly spaced interior points in one call and keeps the first
    inside -> outside step counted from a's side, then stops once
    |b - a| <= tol(a, b).  It also stops after ``max_iter`` rounds, or
    when no float lies strictly between a and b.
    Returns the final (a, b): a is still inside, b still outside.
    """
    for _ in range(max_iter):
        if np.nextafter(a, b) == b:
            break
        pts = a + (b - a) * _FRACTIONS
        ins = np.asarray(inside(pts), dtype=bool)
        k = int(ins.argmin())       # the first point outside, if there is one
        if ins[k]:
            a = float(pts[-1])
        else:
            a, b = (float(pts[k - 1]) if k else a), float(pts[k])
        if abs(b - a) <= tol(a, b):
            break
    return a, b
