"""Bisection on a membership predicate: ball boundaries, low-degree edges,
the reach of a covering ball and unit-gauge crossings all use it.  Callers
pick the stopping width and the cap, and read the end they need.
"""

from __future__ import annotations

from typing import Callable


def bisect(inside: Callable[[float], bool], a: float, b: float,
           tol: Callable[[float, float], float], max_iter: int):
    """Halve the bracket [a, b] around the edge of the set where ``inside`` holds.

    ``inside(a)`` holds and ``inside(b)`` does not; a may lie on either side
    of b.  Each step tests the midpoint and moves the end on its side, then
    stops once |b - a| <= tol(a, b).  It also stops after ``max_iter`` steps,
    or when the midpoint no longer splits the bracket in floating point.
    Returns the final (a, b): a is still inside, b still outside.
    """
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if inside(mid):
            a = mid
        else:
            b = mid
        if abs(b - a) <= tol(a, b):
            break
    return a, b
