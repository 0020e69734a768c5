"""Root finding: batched bisection on a membership predicate, the grid scan
built on it, and the first exit of a set cut out by polynomials.

``intervals`` turns a sampled mask into refined runs: ball parameter
sets, low-degree sets and unit-gauge segments all come from it.  Each
end of a run is located by :func:`bisect`, rounds of evenly spaced
points tested in one call each; callers pick the stopping width and the
cap.

Where membership is a set of polynomial inequalities P_k(s) <= 0, as
along each piece of a curve's coefficient table, :func:`first_exit`
finds the first s where one of them fails: predicted by scalar Newton
steps, certified by Bernstein enclosures (Lane & Riesenfeld, "Bounds on
a polynomial", BIT 1981) and subdivision (Mourrain & Pavone, J. Symb.
Comput. 2009).  Polynomials are lists of coefficients in ascending
powers, evaluated in Python floats.  A caller that takes many exits in
a row may keep the predictions as claims and certify them all at once
(:func:`certify`, one numpy pass per degree), with the same outcome as
certifying each on its own.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np


class NumericalResolutionError(RuntimeError):
    """A scan, walk or integral could not make progress at the requested resolution."""


# interior points tested per round; a round shrinks the bracket POINTS + 1 fold
POINTS = 256
_FRACTIONS = np.arange(1, POINTS + 1) / (POINTS + 1)


def bisect(inside: Callable, a: float, b: float,
           tol: Callable[[float, float], float], max_iter: int):
    """Shrink the bracket [a, b] around the edge of the set where ``inside`` holds.

    ``inside`` holds at a and not at b, and a may lie on either side of
    b.  Each round tests POINTS evenly spaced interior points in one call
    and keeps the first inside -> outside step counted from a's side (a
    moves to the last point when every point is inside), then stops once
    |b - a| <= tol(a, b).  It also stops after ``max_iter`` rounds, or
    when no float lies strictly between a and b.  Returns the final
    (a, b): a is still inside, b still outside.
    """
    for _ in range(max_iter):
        if math.nextafter(a, b) == b:
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


# -- first exit of a polynomial membership -----------------------------------------


def horner(p: list, x: float) -> float:
    """p(x) for the ascending coefficients p."""
    v = 0.0
    for c in reversed(p):
        v = v * x + c
    return v


def taylor_shift(p, h) -> list:
    """Ascending coefficients of s -> p(h + s).

    The coefficients may be arrays (one polynomial per entry, changed in
    place) and h an array broadcasting against them.
    """
    p = list(p)
    for i in range(len(p) - 1):
        for k in range(len(p) - 2, i - 1, -1):
            p[k] += h * p[k + 1]
    return p


@lru_cache(maxsize=None)
def _inv_binom(n: int) -> tuple:
    """1 / C(n, k) for k = 0..n, the scaling of the power-to-Bernstein conversion."""
    return tuple(1.0 / math.comb(n, k) for k in range(n + 1))


def _bernstein(p: list, a: float, w: float) -> tuple:
    """Bernstein coefficients of p on [a, a + w], and a bound on their rounding.

    Their hull encloses p on the interval.  With m = |a| + w, every
    computed coefficient lies within (4 deg + 8) 2^-53 sum |p_k| m^k of
    the exact one: the shift, the scaling and the binomial sums each add
    at most deg roundings to terms whose sizes sum to at most that.
    """
    n = len(p) - 1
    e = taylor_shift(p, a) if a else list(p)
    inv, scale = _inv_binom(n), 1.0
    for k in range(1, n + 1):
        scale *= w
        e[k] *= scale * inv[k]
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            e[i] += e[i - 1]
    m, size = abs(a) + w, 0.0
    for c in reversed(p):
        size = size * m + abs(c)
    return e, (4 * n + 8) * 2.0 ** -53 * size


def _below(p: list, a: float, c: float) -> bool:
    """p < 0 on [a, c], certified by its Bernstein enclosure."""
    b, margin = _bernstein(p, a, c - a)
    return max(b) < -margin


def _rising(dp: list, a: float, c: float) -> bool:
    """The derivative dp > 0 on [a, c], certified likewise."""
    b, margin = _bernstein(dp, a, c - a)
    return min(b) > margin


def _derivative(p: list) -> list:
    return [k * c for k, c in enumerate(p)][1:] or [0.0]


# Newton steps of a prediction: from a guess a few percent off the exit,
# four or five meet the reach tolerance
PREDICT_STEPS = 12
# halvings of one interval; a width above 2^128 times the tolerance needs more
MAX_DEPTH = 128


def _bracket(polys: list, g: float, hi: float, tol: Callable[[float], float]) -> float | None:
    """Inside end a of a bracket [a, c] of a root of the P most violated at g.

    Newton steps from g; once a step is at most w = tol / 2 long, the
    bracket is the w wide one centered where it lands, if P(a) <= 0 < P(c)
    there and 0 < a < c <= hi.  None where a step meets a slope that is
    not positive or leaves (0, hi), or the steps run out.
    """
    vals = [horner(p, g) for p in polys]
    v = max(vals)
    p = polys[vals.index(v)]
    dp, x = _derivative(p), g
    for _ in range(PREDICT_STEPS):
        d = horner(dp, x)
        if not d > 0.0:
            return None
        step = v / d
        x -= step
        if not 0.0 < x < hi:
            return None
        width = 0.5 * tol(x)
        if abs(step) <= width:
            a, c = x - 0.5 * width, x + 0.5 * width
            va, vc = horner(p, a), horner(p, c)
            if va <= 0.0 < vc:
                return a if 0.0 < a and c <= hi else None
            x, v = (a, va) if va > 0.0 else (c, vc)
        else:
            v = horner(p, x)
    return None


def _newton(p: list, dp: list, a: float, c: float, tol: Callable[[float], float]) -> float:
    """The inside end of the root of p, increasing on [a, c] with p(a) <= 0 < p(c).

    Newton steps from the secant point, each at least tol / 4 long toward
    the root so the bracket also closes from its far side, and a halving
    where a step leaves the bracket or does not halve the one before.
    Stops once the bracket is at most tol(a) wide, tol taken at the a
    passed in.
    """
    va, vc = horner(p, a), horner(p, c)
    x = a - va * (c - a) / (vc - va)
    last, width = c - a, tol(a)
    while c - a > width:
        if not a < x < c:
            x = 0.5 * (a + c)
        v = horner(p, x)
        if v <= 0.0:
            a = x
        else:
            c = x
        d = horner(dp, x)
        nx = x - v / d if d > 0.0 else x
        nx = max(nx, x + 0.25 * width) if v <= 0.0 else min(nx, x - 0.25 * width)
        if not a < nx < c or abs(nx - x) > 0.5 * last:
            nx = 0.5 * (a + c)
        last, x = abs(nx - x), nx
    return a


def _search(polys: list, hi: float, tol: Callable[[float], float]) -> float | None:
    """First exit in [0, hi] by subdivision, as :func:`first_exit` describes."""
    stack, a = [(hi, 0)], 0.0
    while stack:
        c, depth = stack.pop()
        open_ = [p for p in polys if not _below(p, a, c)]
        if not open_:
            a = c
            continue
        if len(open_) == 1 and _rising(dp := _derivative(open_[0]), a, c):
            p = open_[0]
            if horner(p, c) <= 0.0:
                a = c
                continue
            if horner(p, a) > 0.0:
                return a
            return _newton(p, dp, a, c, tol)
        if c - a <= tol(a):
            return a
        if depth >= MAX_DEPTH:
            raise NumericalResolutionError(
                f"first exit on [0, {hi}] not resolved within {MAX_DEPTH} halvings")
        stack += [(c, depth + 1), (0.5 * (a + c), depth + 1)]
    return None


def first_exit(polys: list, hi: float, guess: float | None,
               tol: Callable[[float], float], claims: list | None = None) -> float | None:
    """First s in [0, hi] where some P in ``polys`` is positive, or None.

    Each P is a list of ascending coefficients, as a rule negative at 0.
    The inside end of the exit is returned: a point a such that every
    P <= 0 on [0, a] is certified and, unless the search could not tell
    (below), some P > 0 within tol(a) beyond a.

    Predict, then certify.  From a ``guess`` in (0, hi), Newton steps on
    the P most violated there bracket one of its roots (:func:`_bracket`),
    and [0, a] is searched for an earlier exit.  Without a guess, or where
    the steps fail, [0, hi] is searched.  The search takes intervals from
    the left: one on which the Bernstein coefficients of every P lie below
    minus their rounding bound is inside; one on which exactly one P is
    not certified that way, while its derivative is certified positive,
    holds at most one root, solved by :func:`_newton`; any other interval
    is halved, its left half first.  An interval still unresolved at width
    tol(a) ends the search at its left end a, as a tangency does.  Past
    MAX_DEPTH halvings of one interval raises NumericalResolutionError.

    With a list ``claims``, the search of [0, a] after a bracket is left
    to :func:`certify`: (polys, a) is appended to ``claims`` and a is
    returned as it stands.  The first step of that search is the check
    :func:`certify` makes, so where it passes, both give the same a.
    """
    if guess is not None and 0.0 < guess < hi and polys:
        a = _bracket(polys, guess, hi, tol)
        if a is not None:
            if claims is not None:
                claims.append((polys, a))
                return a
            found = _search(polys, a, tol)
            return a if found is None else found
    return _search(polys, hi, tol)


def certify(claims: list) -> int | None:
    """Index of the first claim (polys, a) not certified, or None.

    A claim is certified where every P in polys lies below minus its
    rounding bound on [0, a] by its Bernstein coefficients: the check
    :func:`_below` makes, vectorized over every P of one degree at once,
    operation for operation as :func:`_bernstein` with its shift 0, so
    each P passes here exactly where it passes there (a nan coefficient,
    which Python's max may skip, fails here).  Nothing is padded: each
    degree keeps its own margin.
    """
    by_degree: dict = {}          # degree: (claim indices, interval widths, coefficients)
    for j, (polys, a) in enumerate(claims):
        for p in polys:
            owner, w, rows = by_degree.setdefault(len(p) - 1, ([], [], []))
            owner.append(j)
            w.append(a)
            rows.append(p)
    failed = len(claims)
    with np.errstate(all="ignore"):          # as in Python floats: inf and nan, no warnings
        for n, (owner, w, rows) in by_degree.items():
            p, w = np.array(rows), np.array(w)
            e, inv, scale = p.copy(), _inv_binom(n), np.ones(len(w))
            for k in range(1, n + 1):
                scale = scale * w
                e[:, k] *= scale * inv[k]
            for j in range(1, n + 1):
                e[:, j:] += e[:, j - 1:-1]
            size = np.zeros(len(w))
            for k in range(n, -1, -1):
                size = size * w + np.abs(p[:, k])
            bad = np.flatnonzero(~(e.max(axis=1) < -((4 * n + 8) * 2.0 ** -53 * size)))
            if bad.size:
                failed = min(failed, owner[bad[0]])
    return None if failed == len(claims) else failed
