"""Homogeneous distances of layer-max type, and their diagnostics.

The gauge is N(z) = max_k eps_k * |z^(k)|^(1/k) over the layers, with
|.| the euclidean norm of the layer block.  It is 1-homogeneous under
dilations and even (N(-z) = N(z)), so d(x, y) = N(x^-1 * y) is left
invariant and symmetric.  The triangle inequality depends on the eps
weights; it is not assumed but audited by sampling (triangle_audit).

Every float distance runs one kernel generated per distance on first
use: z = x^-1 * y from the columns of -x and y, in the group law's own
operation order, then the gauge, with no product array in between.  The
audit draws and scores its triples through it one block at a time, each
block advanced to its own part of the random stream: its working set is
one block, whatever the sample count.

Along a curve's coefficient table, an r-ball around x is where every
P_k = (eps_k / r)^(2k) |z^(k)|^2 - 1 <= 0, z = x^-1 * y, a polynomial in
the parameter.  Only the distance builds them: read off anchor tables
(``membership``) or folded around a center (``ball_around``).

Also here: the 1-dimensional density constant of a straight line through
the identity ("metric factor"), by a closed form when the direction sits
in a single layer or else measured as the unit ball set of the line's
one-piece table.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from . import roots
from .curve import Curve, _anchor_rows, _squares, polynomial_curve
from .group import DimensionMismatch, GroupLaw, _leading


class HomogeneousDistance:
    """Layer-max gauge distance attached to a group law.

    eps has one positive weight per layer.  All evaluations are float;
    batch methods accept arrays of shape (..., n).
    """

    def __init__(self, law: GroupLaw, eps: Sequence[float]):
        alg = law.algebra
        eps = tuple(float(e) for e in eps)
        if len(eps) != alg.step:
            raise ValueError(f"need one eps per layer ({alg.step}), got {len(eps)}")
        if not all(0.0 < e < math.inf for e in eps):
            raise ValueError(f"eps weights must be positive and finite, got {eps}")
        self.law = law
        self.eps = eps
        self._slices = [alg.layer_slice(k) for k in range(1, alg.step + 1)]
        # per coefficient table: its anchor tables by offset, and their evaluators by source
        self._tables: dict = {}

    # -- gauge ------------------------------------------------------------

    @cached_property
    def _gauge(self):
        """N on the coordinate columns of z, compiled on first use."""
        return _compile_kernel(self.eps, self._slices)

    @cached_property
    def _pair(self):
        """N(x^-1 * y) on the columns of -x, then of y, compiled on first use."""
        return _compile_kernel(self.eps, self._slices, self.law.q_polys)

    def _columns(self, z):
        """Coordinate columns z[j] of points of shape (..., n)."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1:] != (self.law.n,):
            raise DimensionMismatch(
                f"points must have {self.law.n} coordinates, got {z.shape}")
        return _leading(z)

    def norm(self, z):
        """N(z); batch aware (last axis is the coordinate axis)."""
        return _point_or_batch(self._gauge(self._columns(z)))

    def distance(self, x, y):
        """d(x, y) = N(x^-1 * y) for points of shape (..., n) that broadcast.

        One fused kernel computes the product and the gauge, with the
        rounding of ``norm(law.multiply(law.inverse(x), y))`` bit for bit.
        """
        return _point_or_batch(self._pair(self.law._columns(self.law.inverse(x), y)[2]))

    __call__ = distance

    def distance_from(self, x0) -> Callable:
        """Closure Y -> d(x0, Y) = N(x0^-1 * Y) over points of shape (..., n).

        On step 3 and more it has a rounding floor (d(x0, x0) up to about
        1e-5 on engel at |x0| ~ 1); ball sets do not use it, and have none.
        """
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (self.law.n,):
            raise DimensionMismatch(f"anchor must have shape ({self.law.n},), got {x0.shape}")
        return lambda y: self.distance(x0, y)

    def ball_weights(self, r: float) -> list:
        """The weights (eps_k / r)^(2k) of |z^(k)|^2 in the P_k of an r-ball,
        one per layer.  An overflowing weight raises NumericalResolutionError."""
        try:
            return [(e / r) ** (2 * k) for k, e in enumerate(self.eps, start=1)]
        except OverflowError:
            raise roots.NumericalResolutionError(
                f"radius {r} is below float resolution") from None

    def membership(self, pieces, r: float) -> tuple:
        """Membership in closed r-balls anchored on a curve's table: (polys, bracket, walk).

        ``polys(m, d, u)`` lists, for each layer k that z = x^-1 * y(s)
        touches, the ascending coefficients of P_k(s).  The anchor x lies u
        past the origin of piece m; y(s) runs along piece m + d, from the
        anchor (d = 0) or from the piece's first parameter.  z is folded as
        a polynomial in (u, s), every piece at once, per offset d (``law.
        divide_rows`` on ``curve._anchor_rows``), and each function of
        :func:`_membership_source` on it compiled on first use and kept.
        For d = 0 its s^0 column, x^-1 * x, is left out, so P_k(0) = -1 and
        P_k'(0) = 0 exactly: no self-distance floor.  ``bracket(m, d, u, g,
        hi, start, offset)`` runs the table's ``reach``, the first exit in
        [0, hi] or hi, and ``walk(t, hi, guard, cap, centers, limit)`` the
        whole loop of ``measure._walk`` from t, returning (t, edge) of its
        last ball.  Both search a bracket in place where its certificate
        refuses (``roots.first_exit``).
        """
        w = self.ball_weights(r)
        _, tables, compiled = self._tables.setdefault(id(pieces[0]), (pieces, {}, {}))
        breaks, origins = pieces[1].tolist(), pieces[2].tolist()

        def table(d: int, kind: str = "reach") -> tuple:
            if (d, kind) not in tables:
                z = self.law.divide_rows(*_anchor_rows(pieces, d))
                source, rows = _membership_source(z, self._slices, d == 0, kind)
                if source not in compiled:
                    scope = {**roots._SCOPE, "inf": math.inf, "bisect_right": bisect.bisect_right,
                             "onward": _onward, "first_exit": roots.first_exit}
                    # source built from our own terms
                    exec(source, scope)  # noqa: S102
                    compiled[source] = scope[kind]
                tables[d, kind] = compiled[source], rows
            return tables[d, kind]

        def polys(m: int, d: int, u: float) -> list:
            evaluate, rows = table(d, "evaluate")
            return evaluate(u, rows[m], w)

        def bracket(m: int, d: int, u: float, *args) -> float:
            reach, rows = table(d)
            return reach(u, rows[m], w, *args)

        def walk(*state) -> tuple:
            run, rows = table(0, "walk")
            return run(*state, rows, w, breaks, origins, bracket)

        return polys, bracket, walk

    def ball_around(self, curve: Curve, t0: float, r: float) -> tuple:
        """(polys, origins): the P_k of the r-ball around gamma(t0) that
        z = gamma(t0)^-1 * gamma touches, on every piece of the curve's
        table, and the pieces' origins (:func:`_center_fold`)."""
        squares, origins = _center_fold(self, curve, t0)
        polys = (np.array(self.ball_weights(r))[:, None, None] * squares)[squares.any(axis=(1, 2))]
        polys[:, 0] -= 1.0
        return polys, origins


@lru_cache(maxsize=1)
def _center_fold(dist: HomogeneousDistance, curve: Curve, t0: float) -> tuple:
    """(squares, origins): |z^(k)|^2 per layer on the table, z = gamma(t0)^-1 * gamma,
    the anchor's piece shifted to origin t0 with the s^0 column of z set to 0,
    as ``membership`` does for d = 0.  Kept for the last center."""
    coef, breaks, origins = curve.pieces
    m = int(np.searchsorted(breaks, t0, side="right"))
    y, origins = coef.copy(), origins.copy()
    y[:, :, m] = roots.taylor_shift(coef[:, :, m].copy(), t0 - origins[m])
    origins[m] = t0
    z = dist.law.divide_rows([np.full((1, 1, y.shape[2]), c) for c in y[0, :, m]],
                             [y[None, :, j] for j in range(curve.n)])
    for zj in z:
        zj[0, 0, m] = 0.0
    fold = _squares([[zj[0] for zj in z[sl]] for sl in dist._slices]), origins
    for table in fold:            # handed to every caller with this center
        table.flags.writeable = False
    return fold


_WALK = """def walk(t, stop, guard, cap, centers, limit, rows, w, breaks, origins, bracket):
    last, center, end, stop = None, None, -inf, stop - guard
    while True:
        start, g = (t, last) if center is None else (center, center - t)
        if start >= end:                 # the piece reach's bisect finds
            piece = bisect_right(breaks, start)
            end = breaks[piece] if piece < len(breaks) else inf
            origin, t1 = origins[piece], min(cap, end)
{unpack}        u = start - origin
{coefficients}        hi = t1 - start
        if 0.0 < hi:
{bracket}            # no exit on the piece: on along the next ones
            edge = start + a if a < hi else onward(bracket, breaks, cap, piece, u, g, start, 1, t1)
        else:                            # at the domain's end the reach stays put
            edge = start
        if center is None:
            center = edge
            centers.append(center)
            if len(centers) > limit:
                return t, edge
            # a backward check of (t, center) against the center's ball goes here.
            # A ball centered at t itself reaches no further than the reach from
            # t just found, so only a center ahead of t takes a reach of its own
            if center > t:
                continue
        if edge >= stop or edge >= cap or edge <= t + guard:
            return t, edge
        last = edge - center
        t, last, center = edge, guard if guard > last else last, None
"""


def _onward(bracket: Callable, breaks: list, cap: float, piece: int, u: float,
            g: float | None, start: float, d: int, t0: float) -> float:
    """The reach from ``start``, u past the origin of ``piece``, on from piece
    + d, which it enters at t0 (start itself at d = 0): the exit of the
    first of pieces piece + d, piece + d + 1, ... whose table's reach
    (``bracket``) finds one, else the domain's end ``cap``.  The generated
    loop goes on with it past its anchor's piece (d = 1); from d = 0 it is
    the whole reach (``measure._polynomial_reach``)."""
    while t0 < cap:
        t1 = min(cap, breaks[piece + d]) if piece + d < len(breaks) else cap
        offset, hi = t0 - start, t1 - t0
        a = bracket(piece, d, u, None if g is None else g - offset, hi, start, offset)
        if a < hi:
            return t0 + a
        t0, d = t1, d + 1
    return cap


def _membership_source(z: list, slices, anchored: bool, kind: str) -> tuple:
    """Source of the function ``kind`` on a table, and its per-piece coefficient lists c.

    ``evaluate(u, c, w)`` reads each power of s of each z_j by Horner in
    u, sums the squares per layer as polynomials in s, scales them by
    w[k - 1] and subtracts 1.  Coefficients zero on every piece are left
    out, and so is the s^0 column of z where ``anchored``.  ``reach(u, c,
    w, g, hi, start, offset)`` computes them, literals written in, and
    runs the text of ``roots._bracket_source``: it returns a where that
    certifies [0, a], else ``roots.first_exit`` of the P on [0, a].
    ``walk`` is the loop of ``measure._walk`` (``_WALK``) with that reach
    inline, offset 0.0, and the next pieces' ``reach`` past a piece
    without exit (:func:`_onward`).
    """
    count = z[0].shape[2]
    entries, size, lines, layers = [], 0, [], []
    for k, sl in enumerate(slices):
        block = []                 # per coordinate of the layer: names of its s-coefficients
        for j in range(sl.start, sl.stop):
            names = []
            for b, col in enumerate(z[j].any(axis=2).T.tolist()):
                if not any(col) or (anchored and b == 0):
                    names.append(None)
                    continue
                last = len(col) - 1 - col[::-1].index(True)
                horner = f"c{size + last}"
                for a in range(last - 1, -1, -1):
                    horner = f"c{size + a} + u * ({horner})"
                entries.append(z[j][:last + 1, b])
                size += last + 1
                names.append(f"z{j}_{b}")
                lines.append(f"    z{j}_{b} = {horner}\n")
            while names and names[-1] is None:
                names.pop()
            if names:
                block.append(names)
        if not block:
            continue
        terms = []
        for b in range(2 * max(map(len, block)) - 1):
            squares = [f"{zi} * {zj}" if i == b - i else f"2.0 * {zi} * {zj}"
                       for names in block
                       for i in range(max(0, b + 1 - len(names)), b // 2 + 1)
                       if (zi := names[i]) and (zj := names[b - i])]
            if squares:
                terms.append(f"w[{k}] * ({' + '.join(squares)})" + (" - 1.0" if b == 0 else ""))
            else:
                terms.append("-1.0" if b == 0 else "0.0")
        layers.append(terms)
    rows = np.concatenate(entries or [np.empty((0, count))]).T.tolist()
    unpack = f"{', '.join(f'c{i}' for i in range(size))}, = " if size else ""

    def listed(polys: list) -> str:          # source of the list of the P
        return f"[{', '.join('[' + ', '.join(coef) + ']' for coef in polys)}]"

    if kind == "evaluate":
        return (f"def evaluate(u, c, w):\n    {unpack and unpack + 'c'}\n{''.join(lines)}"
                f"    return {listed(layers)}\n"), rows
    # the coefficients that are not literals, as locals
    names = [[term if term[0] in "-0" else f"c{i}_{k}" for k, term in enumerate(terms)]
             for i, terms in enumerate(layers)]
    lines += [f"    {name} = {term}\n" for coef, terms in zip(names, layers)
              for name, term in zip(coef, terms) if name != term]
    if kind == "walk":
        bracket = roots._bracket_source(names, "0.0",
                                        f"a = first_exit({listed(names)}, a, start, 0.0)")
        bracket = "".join(f"        {line}" for line in bracket.splitlines(True))
        return _WALK.format(unpack=unpack and f"            {unpack}rows[piece]\n",
                            coefficients="".join(f"    {line}" for line in lines),
                            bracket=bracket), rows
    bracket = roots._bracket_source(names, "offset",
                                    f"a = first_exit({listed(names)}, a, start, offset)")
    return (f"def reach(u, c, w, g, hi, start, offset):\n    {unpack and unpack + 'c'}\n"
            f"{''.join(lines)}{bracket}    return a\n"), rows


def _point_or_batch(out):
    """A kernel's value: a float for a single point, else the array."""
    return float(out) if np.ndim(out) == 0 else out


def _compile_kernel(eps, slices, q_polys=None):
    """Generate ``kernel(v)``: N(z) on the coordinate columns z[j] = v[j], or,
    given a group law's ``q_polys``, N(x^-1 * y) on v, the columns of -x
    followed by those of y.

    The product is z_i = v[i] + v[n + i] + (Q_i), Q_i as the text of
    ``RationalPoly.float_source``: ``GroupLaw.multiply(-x, y)`` operation
    for operation, so both paths round alike.  A zero Q_i is not added,
    as + 0.0 can change only the sign of a zero, which the gauge does not
    see.  The gauge skips unit weights and takes |z_j| for a layer of one
    coordinate.
    """
    if q_polys is None:
        lines, col = [], "v[{}]".format
    else:
        n = len(q_polys)
        lines = [f"    z{i} = v[{i}] + v[{n + i}]" + (f" + ({q.float_source('v')})" if q else "")
                 + "\n" for i, q in enumerate(q_polys)]
        col = "z{}".format
    terms = []
    for k, sl in enumerate(slices, start=1):
        if sl.stop - sl.start == 1:
            mag = f"np.abs({col(sl.start)})"
        else:
            mag = f"np.sqrt({' + '.join(f'{col(j)} * {col(j)}' for j in range(sl.start, sl.stop))})"
        root = mag if k == 1 else f"np.sqrt({mag})" if k == 2 else f"{mag} ** {1.0 / k!r}"
        terms.append(root if eps[k - 1] == 1.0 else f"{eps[k - 1]!r} * {root}")
    gauge = terms[0]
    for term in terms[1:]:
        gauge = f"np.maximum({gauge}, {term})"
    scope = {"np": np}
    # source built from our own terms
    exec(f"def kernel(v):\n{''.join(lines)}    return {gauge}\n", scope)  # noqa: S102
    return scope["kernel"]


# -- triangle inequality audit ---------------------------------------------


@dataclass(frozen=True)
class TriangleAudit:
    max_ratio: float
    witness: tuple | None  # (x, y, z) lists at the worst ratio
    samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0 + 1e-12


# triples drawn per chunk by triangle_audit, which fixes the random stream's layout
# (changing it changes every witness), and scored AUDIT_BLOCK at a time, each block
# drawing its own part of the chunk's stream: the working set is one block
AUDIT_CHUNK = 65536
AUDIT_BLOCK = 8192


def triangle_audit(dist: HomogeneousDistance, samples: int = 100_000,
                   seed: int = 0) -> TriangleAudit:
    """Largest observed d(x,z) / (d(x,y) + d(y,z)) over random triples.

    Points are drawn coordinate-wise uniform on [-1, 1], then dilated by a
    log-uniform factor in [1/4, 4] so several scales get exercised.
    Degenerate triples (zero denominator) score 0 by convention.  Each
    distance is the fused kernel of ``distance``, so the result is the
    same as scoring with ``norm(law.multiply(-x, y))``.

    The draws are those of ``default_rng(seed)`` taking, per chunk of m =
    AUDIT_CHUNK triples, m x n uniforms for each of x, y and z (point-major),
    then 3 m log-scales.  Each block of AUDIT_BLOCK triples draws its part
    of each from a PCG64 advanced to it, so memory stays one block.

    Raises ValueError unless samples is an int >= 1 and seed an int >= 0
    (bools refused), and NumericalResolutionError where a sampled distance,
    or the sum of two, is not a finite float (weights so large that the
    gauge overflows), or a nonzero one is subnormal (weights so small that
    its ratios are rounding noise).
    """
    for name, value, least in (("samples", samples, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an int of at least {least}, got {value!r}")
    degrees = dist.law.degrees
    n = len(degrees)
    pair = dist._pair

    def points(uniform, s):
        """A block's points as columns, coordinate j times s^degree_j.  The
        array exponent keeps numpy's array power loop, which rounds as the
        chunk-wide power did; a scalar 2 would take its square instead."""
        scaled = {k: s if k == 1 else s ** np.full_like(s, k) for k in set(degrees)}
        u = uniform(-1.0, 1.0, size=(len(s), n))
        return [u[:, j] * scaled[k] for j, k in enumerate(degrees)]

    best, witness = 0.0, None
    for lo in range(0, samples, AUDIT_CHUNK):
        m = min(AUDIT_CHUNK, samples - lo)
        # where x, y, z and the three scale rows start, one 64-bit output per
        # double: every earlier chunk took 3 n + 3 per triple
        starts = [lo * (3 * n + 3) + t * m * n for t in range(3)]
        starts += [starts[2] + m * n + t * m for t in range(3)]
        streams = [np.random.Generator(np.random.PCG64(seed).advance(start)).uniform
                   for start in starts]
        for block in range(0, m, AUDIT_BLOCK):
            size = min(AUDIT_BLOCK, m - block)
            scales = [np.exp(draw(math.log(0.25), math.log(4.0), size=size))
                      for draw in streams[3:]]
            x, y, z = (points(draw, s) for draw, s in zip(streams, scales))
            neg_x, neg_y = [-c for c in x], [-c for c in y]
            with np.errstate(over="ignore", invalid="ignore"):
                dxy, dyz, dxz = dists = np.array([pair([*neg_x, *y]), pair([*neg_y, *z]),
                                                  pair([*neg_x, *z])])
                denom = dxy + dyz
            if not (denom.max() <= sys.float_info.max and dxz.max() <= sys.float_info.max):
                raise roots.NumericalResolutionError(
                    f"sampled distances overflow float at eps {list(dist.eps)}")
            # the least nonzero distance, past any degenerate triple's 0
            least = dists.min() or np.min(dists, where=dists > 0.0, initial=np.inf)
            if least < sys.float_info.min:
                raise roots.NumericalResolutionError(
                    f"sampled distances are subnormal floats at eps {list(dist.eps)}")
            ratio = np.divide(dxz, denom, out=np.zeros_like(dxz), where=denom > 0)
            i = int(np.argmax(ratio))
            if ratio[i] > best:
                best = float(ratio[i])
                witness = tuple([float(c[i]) for c in p] for p in (x, y, z))
    return TriangleAudit(max_ratio=best, witness=witness, samples=samples, seed=seed)


# -- metric factor -----------------------------------------------------------


def _finite(value: float, what: str, at: str) -> float:
    """``value`` where it is a finite nonzero float; else NumericalResolutionError
    that ``what`` overflows or underflows to 0 ``at`` the numbers it was taken at."""
    if value == 0.0:
        raise roots.NumericalResolutionError(f"{what} underflows to 0 {at}")
    if not abs(value) < math.inf:
        raise roots.NumericalResolutionError(f"{what} overflows {at}")
    return value


def _power(r: float, q: float, name: str) -> float:
    """r ** q, the q-dimensional size of a ball of radius r or the scale of a
    closed form; NumericalResolutionError where it overflows or underflows
    to 0 (``name`` is what r is called)."""
    try:
        size = float(r ** q)
    except OverflowError:
        size = math.inf
    return _finite(size, f"{name} ** q", f"at {name} {r}, q {q}")


def _line_gauge_interval_length(dist, lam) -> float:
    """Lebesgue measure of {t : N(t * lam) <= 1}: the unit ball set around 0 of
    the one-piece table t -> t lam on (-s_max, s_max) (``measure.ball_param_set``).

    Measured, not taken in closed form, so that it checks the closed form
    of ``metric_factor`` independently.
    """
    from .measure import ball_param_set      # measure imports this module

    lam = np.asarray(lam, dtype=float)
    # beyond s_max the gauge certainly exceeds 1: the largest layer term
    # alone crosses 1 at eps_k^-k / |block_k|
    ends = [e ** -k / mag for k, (e, sl) in enumerate(zip(dist.eps, dist._slices), start=1)
            if (mag := float(np.linalg.norm(lam[sl]))) > 0]
    if not ends:
        raise ValueError("zero direction has no line measure")
    s_max = min(ends) * (1.0 + 1e-9)
    line = polynomial_curve(np.stack((np.zeros_like(lam), lam))[:, :, None], (-s_max, s_max))
    runs, _ = ball_param_set(dist, line, 0.0, 1.0)
    return sum(hi - lo for lo, hi in runs)


def metric_factor(dist: HomogeneousDistance, lam) -> float:
    """1-d euclidean measure of span{lam} inside the unit ball.

    ``lam`` is a direction's frame coefficients, the pullback of a tangent
    vector to the identity.  For a direction in one layer q the closed
    form 2 |lam| / N(lam)^q applies, and NumericalResolutionError where it
    is not a finite nonzero float; otherwise the length of
    {t : N(t lam) <= 1} is measured (:func:`_line_gauge_interval_length`).
    """
    lam = np.asarray(lam, dtype=float)
    mag = float(np.linalg.norm(lam))
    if mag == 0.0:
        raise ValueError("metric factor of the zero direction is undefined")

    layers_hit = [k for k, sl in enumerate(dist._slices, start=1)
                  if float(np.linalg.norm(lam[sl])) > 1e-12 * mag]
    if len(layers_hit) == 1:
        gauge, q = float(dist.norm(lam)), layers_hit[0]
        return _finite(2.0 * mag / _power(gauge, q, "N(lam)"), "2 |lam| / N(lam) ** q",
                       f"at |lam| {mag}, N(lam) {gauge}, q {q}")
    return mag * _line_gauge_interval_length(dist, lam)


def degree_constant(dist: HomogeneousDistance, q: int) -> float:
    """Metric factor of a unit direction in layer q, whose gauge is eps_q: 2 / eps_q^q.

    Raises ValueError unless 1 <= q <= step, as ``layer_slice`` does, and
    NumericalResolutionError where the constant is not a finite nonzero float.
    """
    dist.law.algebra.layer_slice(q)
    eps = dist.eps[q - 1]
    return _finite(2.0 / _power(eps, q, "eps_q"), "2 / eps_q ** q", f"at eps_q {eps}, q {q}")
