"""Root finding on sets cut out by polynomial inequalities P_k(s) <= 0.

One search: Bernstein enclosures (Lane & Riesenfeld, "Bounds on a
polynomial", BIT 1981) certify an interval inside or outside, Newton
steps solve one crossing of a monotone P, anything else is halved
(Mourrain & Pavone, J. Symb. Comput. 2009).  Its maximal :func:`runs`
are ball sets, low-degree sets and the unit-gauge chord (on whole tables
by :func:`table_runs`); its :func:`first_exit` searches, in place, a
reach of the covering walk whose bracket was not certified.  Polynomials
are lists of ascending coefficients, evaluated in Python floats.  A
reach's Newton prediction and the certificate of its bracket by the same
Bernstein enclosure are one generated text (:func:`_bracket_source`),
written into the covering walk's loop and into the ``reach`` of each of
a curve's anchor tables (``HomogeneousDistance.membership``).  The text
computes what :func:`horner` and :func:`_bernstein` compute, saving only
the operations on a literal zero, which change no result.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable

import numpy as np


class NumericalResolutionError(RuntimeError):
    """A scan, walk or integral could not make progress at the requested resolution."""


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
    e = list(p)
    if a:                                    # taylor_shift(p, a), inline
        for i in range(n):
            for k in range(n - 1, i - 1, -1):
                e[k] += a * e[k + 1]
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


def _bernstein_rows(p: np.ndarray, w: np.ndarray, a: np.ndarray) -> tuple:
    """:func:`_bernstein` of each row of p (one degree) on [a_i, a_i + w_i],
    operation for operation; call under ``np.errstate(all="ignore")``."""
    n = p.shape[1] - 1
    e = p.copy()
    e = np.where((a != 0.0)[:, None], np.array(taylor_shift(p.T.copy(), a)).T, e)
    inv, scale = _inv_binom(n), np.ones(len(w))
    for k in range(1, n + 1):
        scale = scale * w
        e[:, k] *= scale * inv[k]
    for j in range(1, n + 1):
        e[:, j:] += e[:, j - 1:-1]
    m, size = np.abs(a) + w, np.zeros(len(w))
    for k in range(n, -1, -1):
        size = size * m + np.abs(p[:, k])
    return e, (4 * n + 8) * 2.0 ** -53 * size


def _derivative(p: list) -> list:
    return [k * c for k, c in enumerate(p)][1:] or [0.0]


# Newton steps of a prediction: from a guess a few percent off the exit,
# four or five meet the reach tolerance
PREDICT_STEPS = 12
# halvings of one search: a reach of the walk takes at most about 20, and an
# ill-conditioned table that would take millions stops within a second
MAX_HALVINGS = 2048
# the names the text of _bracket_source reads besides its locals
_SCOPE = {"ulp": math.ulp, "steps": range(PREDICT_STEPS)}


def _literal(term: str) -> float | None:
    """The value of a term of generated source that is a float literal, else None;
    a literal is finite, so its repr starts with a digit or a minus sign."""
    try:
        return float(term) if term[:1] in "-0123456789" else None
    except ValueError:
        return None


def _horner_source(terms: list, x: str) -> str:
    """Source of :func:`horner` on ``terms`` (names or finite float literals)
    at ``x``, unrolled, saving the operations on a literal zero: the leading
    0.0 * x and each + 0.0 are left out (see :func:`_bracket_source`)."""
    src = "0.0"
    for c in reversed(terms):
        if _literal(src) == 0.0:
            src = c
        else:                                # a compound src has spaces, a term none
            src = f"({src}) * {x}" if " " in src else f"{src} * {x}"
            if _literal(c) != 0.0:
                src = f"{src} + {c}"
    return src


def reach_tol(start: float, lo: float) -> float:
    """Width to which a reach from ``start`` brackets an exit ``lo`` ahead of it.

    Tight, because the per-ball shortfall of the covering walk accumulates
    over the whole walk; the floor of four float spacings at start + lo
    keeps the two ends of the bracket on distinct parameters.  The text of
    :func:`_bracket_source` computes it inline with the same operations:
    it saves only operations on a literal zero, and this has none.
    """
    return max(1e-12 * lo + 1e-16, 4.0 * math.ulp(start + lo))


def _bracket_source(names: list, offset: str, refuse: str) -> str:
    """Body text, one indent deep, of a reach's bracket on [0, ``hi``] from the
    guess ``g`` for the coefficients ``names`` of each P (locals or finite
    float literals), to the :func:`reach_tol` of ``start`` at ``offset`` +
    x.  It ends on ``a``, the inside end of a bracket of a root of the P
    most violated at g (:func:`_newton_source`), or hi where there is none,
    and runs the one statement ``refuse`` once unless every P lies below
    minus its rounding bound on [0, a] (:func:`_certificate_source`), as
    :func:`runs` certifies an interval inside, save that a nan refuses.
    At a = hi that is the first step of the search of [0, hi]
    (:func:`first_exit`), which the covering walk makes where it refuses.

    The first of equal values is the most violated, P' is k * c, and every
    P and P' is :func:`horner` and the certificate :func:`_bernstein`
    unrolled.  The text saves every operation on a literal zero and keeps
    every other in its place: Horner sums drop their leading 0.0 * x and
    each + 0.0, k * c of a literal c is written as its value, and a zero
    term of the certificate is carried through its sums as a known
    constant.  No center can see it.  For finite x, 0.0 * x is a zero and
    y + 0.0 is y but for the sign of a zero (IEEE 754; Kahan, "Much Ado
    About Nothing's Sign Bit", 1987), and values that agree but for the
    signs of zeros agree after any sum, product or abs, and after a
    division by a slope checked positive; this text only compares such
    values otherwise, and a comparison does not see the sign of a zero.
    The x of every sum is finite for a finite ``hi``: g and the Newton
    iterates lie in (0, hi), and a in (0, hi].  A bracket end x -+ w / 2
    may overflow where the width w does; no bracket ends there, with or
    without the saved operations.  A literal zero term c_k s^k is nan, not
    zero, where s^k overflows; a check that refuses there stands in for it
    (k = 1 needs none, s^1 being a).  A fold of literals that is not finite
    is written as its operation.
    """
    newton = "".join(f"    {line}" for line in _newton_source(names, offset).splitlines(True))
    return (f"    if g is not None and 0.0 < g < hi:\n{newton}    else:\n        a = hi\n"
            + _certificate_source(names, refuse))


def _newton_source(names: list, offset: str) -> str:
    """Text of the Newton steps of :func:`_bracket_source` from ``g``: they end
    on a bracket [a, c], 0 < a <= x < hi and c <= hi, or set a = hi.
    ``offset``, a local or a literal, is not added where it is a literal zero."""
    if not names:                            # no P, no root to bracket
        return "    a = hi\n"
    if _literal(offset) == 0.0:
        tolerance = "tol, floor = 1e-12 * x + 1e-16, 4.0 * ulp(start + x)"
    else:
        tolerance = (f"lo = {offset} + x\n"
                     "            tol, floor = 1e-12 * lo + 1e-16, 4.0 * ulp(start + lo)")
    lines = [f"    v{i} = {_horner_source(coef, 'g')}\n" for i, coef in enumerate(names)]
    lines += ["    v, i = v0, 0\n"] + [f"    if v{i} > v:\n        v, i = v{i}, {i}\n"
                                      for i in range(1, len(names))]
    # one Newton block per length of P, on q0, q1, ... where those P differ;
    # a step that fails sets a = 0.0, the failed bracket
    groups = {n: [i for i, coef in enumerate(names) if len(coef) == n] for n in map(len, names)}
    for j, members in enumerate(groups.values()):
        coef = [c if all(names[i][k] == c for i in members) else f"q{k}"
                for k, c in enumerate(names[members[0]])]
        qs = [q for q in coef if q[0] == "q"]
        copy = "".join(f"        {'elif' if m else 'if'} i == {i}:\n            {', '.join(qs)}, = "
                       f"{', '.join(names[i][int(q[1:])] for q in qs)},\n"
                       for m, i in enumerate(members) if qs)
        dp, derivative = [], ""
        for k in range(1, len(coef)):
            c = _literal(coef[k])
            if c is not None and math.isfinite(k * c):
                dp.append(repr(k * c))
            else:
                dp.append(f"d{k}")
                derivative += f"d{k} = {k} * {coef[k]}; "
        block = f"""{copy}        {derivative}x = g
        for _ in steps:
            d = {_horner_source(dp or ["0.0"], "x")}
            if not d > 0.0:
                a = 0.0
                break
            step = v / d
            x -= step
            if not 0.0 < x < hi:
                a = 0.0
                break
            {tolerance}
            width = 0.5 * (floor if floor > tol else tol)
            if -width <= step <= width:
                a, c = x - 0.5 * width, x + 0.5 * width
                va, vc = {_horner_source(coef, "a")}, {_horner_source(coef, "c")}
                if va <= 0.0 < vc:
                    break
                x, v = (a, va) if va > 0.0 else (c, vc)
            else:
                v = {_horner_source(coef, "x")}
        else:
            a = 0.0
"""
        if len(groups) == 1:                 # no test of i: it picks this block
            lines += [line[4:] for line in block.splitlines(True)]
        else:
            lines.append(f"    {'elif' if j else 'if'} i in {tuple(members)}:\n{block}")
    lines.append("    if not (0.0 < a and c <= hi):\n        a = hi\n")
    return "".join(lines)


def _certificate_source(names: list, refuse: str) -> str:
    """Text of the certificate of :func:`_bracket_source` on [0, a]: every
    Bernstein term of every P first, then one check that runs ``refuse``
    unless each lies below minus its P's rounding bound (:func:`_bernstein`),
    the guard of an overflowing s^k its first conjunct.  So ``refuse`` runs
    at most once, and may be a statement that stays in the text."""
    if not names:
        return ""
    lines = [f"    s{k} = {'a' if k == 1 else f's{k - 1} * a'}\n"
              for k in range(1, max(map(len, names)))]
    zero = max((k for coef in names for k, c in enumerate(coef) if k and _literal(c) == 0.0),
               default=1)
    checks = [f"s{zero} <= {sys.float_info.max!r}"] if zero > 1 else []
    for i, coef in enumerate(names):
        n = len(coef) - 1
        e, inv = coef[:1], _inv_binom(n)      # each Bernstein term: a local or a literal
        for k in range(1, n + 1):
            if _literal(coef[k]) == 0.0:
                e.append("0.0")
                continue
            e.append(f"b{i}_{k}")
            lines.append(f"    b{i}_{k} = {coef[k]} * "
                         + (f"s{k}\n" if inv[k] == 1.0 else f"(s{k} * {inv[k]!r})\n"))
        for j in range(1, n + 1):
            for k in range(n, j - 1, -1):
                x, y = _literal(e[k]), _literal(e[k - 1])
                if y == 0.0:                 # e[k] + 0.0
                    continue
                if x is not None and y is not None and math.isfinite(x + y):
                    e[k] = repr(x + y)
                    continue
                # 0.0 + e[k - 1] is a copy, as e[k - 1] changes later in the sweep
                lines.append(f"    b{i}_{k} = {e[k - 1] if x == 0.0 else f'{e[k]} + {e[k - 1]}'}\n")
                e[k] = f"b{i}_{k}"
        size = _horner_source([f"abs({c})" if _literal(c) is None else repr(abs(_literal(c)))
                               for c in coef], "a")
        lines.append(f"    m{i} = {-(4 * n + 8) * 2.0 ** -53!r} * ({size})\n")
        checks += (f"{b} < m{i}" for b in e)
    lines.append(f"    if not ({' and '.join(dict.fromkeys(checks))}):\n        {refuse}\n")
    return "".join(lines)


def _newton(p: list, dp: list, a: float, c: float, tol: Callable[[float], float]) -> float:
    """The inside end of the root of p, increasing on [a, c] with p(a) <= 0 < p(c).

    Newton steps from the secant point, each at least tol / 4 long toward
    the root so the bracket also closes from its far side, and a halving
    where a step leaves the bracket or does not halve the one before.
    Stops once the bracket is at most tol(a) wide, tol taken at the a
    passed in.  A decreasing p is solved as x -> p(-x) on [-c, -a].
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


def _inside_part(polys: list, a: float, c: float, tol: Callable[[float], float]):
    """One step of :func:`runs` on [a, c], ``polys`` as pairs (P, P'): the part
    (u, v) where every P <= 0, None if that is empty, False to halve."""
    open_ = []
    for p, dp in polys:
        b, margin = _bernstein(p, a, c - a)
        if not max(b) < -margin:
            if min(b) > margin:
                return None
            open_.append((p, dp))
    if not open_:
        return a, c
    # on [0, c] with P'(0) = 0 (a d = 0 anchor table) P' has no sign to certify:
    # unshifted, the Bernstein sweep keeps coefficient 0, P'(0), so min <= 0 <= max
    if len(open_) == 1 and not (a == 0.0 and open_[0][1][0] == 0.0):
        ((p, dp),) = open_
        b, margin = _bernstein(dp, a, c - a)
        if min(b) > margin:                      # rising: inside, then outside
            if horner(p, c) <= 0.0:
                return a, c
            if horner(p, a) > 0.0:
                return None
            return a, _newton(p, dp, a, c, tol)
        if max(b) < -margin:                     # falling: outside, then inside
            if horner(p, a) <= 0.0:
                return a, c
            if horner(p, c) > 0.0:
                return None
            q = [-v if k % 2 else v for k, v in enumerate(p)]     # x -> p(-x), exact
            return -_newton(q, _derivative(q), -c, -a, lambda x: tol(-x)), c
    return None if c - a <= tol(a) else False


def runs(polys: list, lo: float, hi: float, tol: Callable[[float], float]):
    """Maximal runs (u, v) of [lo, hi] where every P in ``polys`` is <= 0, left to right.

    Intervals are taken from the left, from [lo, hi]: inside where the
    Bernstein coefficients of every P lie below minus their rounding bound,
    outside where those of some P lie above it, one root (:func:`_newton`,
    to its inside end) where exactly one P is neither and its derivative
    is certified of one sign, else halved, left half first.  One unresolved
    at width tol(a) counts as outside, as a tangency does.  Past
    MAX_HALVINGS halvings raises NumericalResolutionError.
    """
    polys = [(p, _derivative(p)) for p in polys]
    stack, a, start, halvings = [hi], lo, None, 0
    while stack:
        c = stack.pop()
        part = _inside_part(polys, a, c, tol)
        if part is False:
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise NumericalResolutionError(
                    f"runs on [{lo}, {hi}] not resolved within {MAX_HALVINGS} halvings")
            stack += [c, 0.5 * (a + c)]
            continue
        if start is not None and (part is None or part[0] > a):
            yield start, a
            start = None
        if part is not None:
            if start is None:
                start = part[0]
            if part[1] < c:
                yield start, part[1]
                start = None
        a = c
    if start is not None:
        yield start, hi


def first_exit(polys: list, hi: float, start: float, offset: float) -> float:
    """First s in [0, hi] where some P in ``polys`` is positive, or hi.

    Each P is a list of ascending coefficients, as a rule negative at 0,
    solved to the :func:`reach_tol` of ``start`` at ``offset`` + s.  The
    inside end of the exit is returned, the end of the first of the
    :func:`runs` (0 where it does not start at 0): every P <= 0 on [0, a]
    is certified and, unless an interval was unresolved at that width,
    some P > 0 within it beyond a.  Where the certificate of a reach's
    bracket [0, a] refuses, the covering walk searches it in place:
    ``a = first_exit(P, a, start, offset)`` (:func:`_bracket_source`).
    """
    return _exit(polys, hi, lambda x: reach_tol(start, offset + x))


def _exit(polys: list, hi: float, tol: Callable[[float], float]) -> float:
    """The end of the first run of [0, hi], 0 where it starts later, hi where it is all of it."""
    u, v = next(runs(polys, 0.0, hi, tol), (hi, hi))
    return 0.0 if u > 0.0 else v


def table_runs(table: np.ndarray, domain, breaks, origins,
               tol: Callable[[float], float]) -> list:
    """Maximal runs [u, v] of the domain where every P <= 0, on a piecewise table.

    On piece i, P(t) = sum_k table[:, k, i] (t - origins[i])^k, the pieces
    split at the ``breaks``.  One numpy pass of Bernstein enclosures takes
    the pieces where every P is below whole and drops those where some P
    is above; :func:`runs` searches the rest, tol(t) read at t.  Runs that
    meet at a break are merged.
    """
    starts, ends = np.array([domain[0], *breaks]), np.array([*breaks, domain[1]])
    lo, hi = starts - origins, ends - origins
    count, size, pieces = table.shape
    with np.errstate(all="ignore"):
        e, margin = _bernstein_rows(table.transpose(2, 0, 1).reshape(-1, size),
                                    np.repeat(hi - lo, count), np.repeat(lo, count))
    below = (e.max(axis=1) < -margin).reshape(pieces, count).all(axis=1)
    above = (e.min(axis=1) > margin).reshape(pieces, count).any(axis=1)
    found = []
    for i in np.flatnonzero(~above).tolist():
        origin = origins[i]
        local = [(lo[i], hi[i])] if below[i] else runs(
            [np.trim_zeros(p, "b").tolist() or [0.0] for p in table[:, :, i]],
            lo[i], hi[i], lambda s: tol(origin + s))
        for u, v in local:
            u = float(starts[i] if u == lo[i] else origin + u)
            v = float(ends[i] if v == hi[i] else origin + v)
            if found and found[-1][1] == u:
                found[-1] = (found[-1][0], v)
            else:
                found.append((u, v))
    return found
