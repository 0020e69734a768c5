"""Batched bisection on a membership predicate, and the grid scan built on
it.  ``intervals`` turns a sampled mask into refined runs: ball parameter
sets, low-degree sets and unit-gauge segments all come from it.
``refine`` is the one round loop; ``bisect`` enters it with evenly spaced
points, and the covering walk enters it with its own predicted first
round to locate the reach of a ball.  A predicate may hand back the
values behind its answer, and the loop then also tests a cluster of
points where those values predict the edge.  Callers pick the stopping
width and the cap.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# interior points tested per round; a round shrinks the bracket POINTS + 1 fold
POINTS = 256
_FRACTIONS = np.arange(1, POINTS + 1) / (POINTS + 1)
# points a round adds around a predicted edge, at spacing tol / 2
NEAR = 129
_OFFSETS = np.arange(NEAR) - NEAR // 2


def bisect(inside: Callable, a: float, b: float,
           tol: Callable[[float, float], float], max_iter: int):
    """Shrink the bracket [a, b] around the edge of the set where ``inside`` holds.

    ``inside`` holds at a and not at b, and a may lie on either side of
    b.  Each round tests POINTS evenly spaced interior points in one call
    (:func:`refine`) and keeps the first inside -> outside step counted
    from a's side, then stops once |b - a| <= tol(a, b).  It also stops
    after ``max_iter`` rounds, or when no float lies strictly between a
    and b.  Returns the final (a, b): a is still inside, b still outside.
    """
    return refine(inside, a, b, a + (b - a) * _FRACTIONS, tol, max_iter)


def refine(inside: Callable, a: float, b: float, pts: np.ndarray,
           tol: Callable[[float, float], float], max_iter: int):
    """The rounds of :func:`bisect`, the first of them on the points ``pts``.

    ``pts`` lie strictly between a and b, or at b, ordered from a toward
    b.  A round tests its points in one call and keeps the first inside
    -> outside step counted from a's side; when every point is inside, a
    moves to the last of them.  It stops once |b - a| <= tol(a, b), after
    ``max_iter`` rounds, or when no float lies strictly between a and b.
    Every round after the first tests POINTS evenly spaced interior
    points.

    ``inside`` maps an array of parameters to a bool array, or to a pair
    (bool array, values) where the values are <= 0 exactly where it
    holds.  With values, the <= 4 samples around the step (a among them
    when the step opens the round) predict where the values reach 0, by
    inverse interpolation through the run of them that strictly
    increases from a's side and stops at a sample within tol(a, b) of
    its neighbour, and the next round adds NEAR points at
    spacing tol(a, b) / 2 around that prediction.  A prediction within
    NEAR // 4 * tol of the edge, as a rule, ends the search in that
    round; a poor one costs nothing but the extra points.  Boolean predicates get
    plain rounds.  Returns the final (a, b): a is inside or is the a
    passed in, b is outside or is the b passed in.
    """
    ga = None                       # the value at a, once a round has tested a
    for _ in range(max_iter):
        if math.nextafter(a, b) == b:
            break
        out = inside(pts)
        ins, vals = out if isinstance(out, tuple) else (out, None)
        ins = np.asarray(ins, dtype=bool)
        k = int(ins.argmin())       # the first point outside, if there is one
        a0 = a
        if ins[k]:
            a, ga, vals = float(pts[-1]), None, None
        else:
            a, b = (float(pts[k - 1]) if k else a), float(pts[k])
        if abs(b - a) <= tol(a, b):
            break
        xs = _FRACTIONS
        if vals is not None:
            # the samples around the step, pts[k - 2:k + 2], led by a0 when short
            i = max(k - 2, 0)
            ts, gs = pts[i:k + 2].tolist(), np.asarray(vals)[i:k + 2].tolist()
            if k < 2 and ga is not None:
                ts.insert(0, a0)
                gs.insert(0, ga)
                i -= 1
            ga = gs[k - i - 1] if k > i else None
            edge = _predict(ts, gs, k - i, tol(a, b))
            if edge is not None:
                xs = _with_cluster((edge - a) / (b - a), 0.5 * tol(a, b) / abs(b - a))
        pts = a + (b - a) * xs
    return a, b


def _predict(ts: list, gs: list, j: int, gap: float) -> float | None:
    """Where g reaches 0, by inverse interpolation through (ts, gs).

    gs[j] is the first value above 0; interpolation uses the run of
    strictly increasing values around gs[j - 1], gs[j].  The run also
    ends at a sample within ``gap`` of its neighbour: the difference of
    two such values is mostly rounding, and interpolating through it
    throws the prediction off.  None without an inside sample (j = 0).
    """
    if j == 0:
        return None
    lo, hi = j - 1, j + 1
    while lo > 0 and gs[lo - 1] < gs[lo] and abs(ts[lo] - ts[lo - 1]) > gap:
        lo -= 1
    while hi < len(gs) and gs[hi] > gs[hi - 1] and abs(ts[hi] - ts[hi - 1]) > gap:
        hi += 1
    ts, gs = ts[lo:hi], gs[lo:hi]
    edge = ts[0]
    for i in range(1, len(gs)):
        w, gi = ts[i] - ts[0], gs[i]
        for m, gm in enumerate(gs):
            if m != i:
                w *= gm / (gm - gi)
        edge += w
    return edge


def _with_cluster(x: float, dx: float) -> np.ndarray:
    """_FRACTIONS merged with those of the NEAR points x + j * dx in [0, 1)."""
    near = x + dx * _OFFSETS
    return np.sort(np.concatenate((_FRACTIONS, near[(near >= 0.0) & (near < 1.0)])))


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
