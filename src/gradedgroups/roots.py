"""Batched bisection on a membership predicate, and the grid scan built on
it.  ``intervals`` turns a sampled mask into refined runs: ball parameter
sets, low-degree sets and unit-gauge segments all come from it.
``bisect`` alone also locates the reach of a covering ball.  Callers pick
the stopping width and the cap.
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


def intervals(inside: Callable[[np.ndarray], np.ndarray], ts: np.ndarray,
              ins: np.ndarray, tol: Callable[[float, float], float],
              max_iter: int) -> tuple:
    """Maximal runs of the increasing grid ``ts`` where ``inside`` holds.

    ``ins`` is the mask on ``ts``, as a rule ``inside(ts)`` (a caller may
    mark a point it knows to be inside).  Returns the runs as (lo, hi)
    pairs.  An end between two grid points is refined by :func:`bisect`
    from the inside grid point with ``tol`` and ``max_iter``, and its
    inside end is reported; a run that reaches the first or last grid
    point ends there.  A component that lies strictly between two grid
    points is not seen.
    """
    ins = np.asarray(ins, dtype=bool)
    steps = np.flatnonzero(np.diff(np.concatenate(([False], ins, [False])).astype(np.int8)))
    last = len(ts) - 1

    def end(i: int, j: int) -> float:
        # from grid point i (inside) toward its neighbour j (outside, if on the grid)
        if not 0 <= j <= last:
            return float(ts[i])
        return bisect(inside, float(ts[i]), float(ts[j]), tol, max_iter)[0]

    return tuple((end(i, i - 1), end(j, j + 1))
                 for i, j in zip(steps[0::2], steps[1::2] - 1))
