"""Homogeneous distances of layer-max type, and their diagnostics.

The gauge is N(z) = max_k eps_k * |z^(k)|^(1/k) over the layers, with
|.| the euclidean norm of the layer block.  It is 1-homogeneous under
dilations and even (N(-z) = N(z)), so d(x, y) = N(x^-1 * y) is left
invariant and symmetric.  The triangle inequality depends on the eps
weights; it is not assumed but audited by sampling (triangle_audit).

Every float distance is two plain functions on coordinate columns: the
law's quotient z = x^-1 * y (``GroupLaw._divide``, Q's term tables with
the signs of x folded into their coefficients) and the gauge
(:func:`_gauge`), which ``norm`` also runs; it rounds as
``norm(law.multiply(-x, y))``.  The audit draws and scores its triples
through them one block at a time, each block advanced to its own part of
the random stream: its working set is one block, whatever the sample
count.  Building a distance loads no numpy: the float functions import
it, ``roots`` and ``curve`` as they run.

Along a curve's coefficient table, an r-ball around x is where every
P_k = (eps_k / r)^(2k) |z^(k)|^2 - 1 <= 0, z = x^-1 * y, a polynomial in
the parameter.  Only the distance builds them, from one fold of anchor
rows against path rows (``curve._anchor_rows``): the walk's tables of
offset d >= 0 (``membership``) and a center's piece against every piece
(``ball_around``).

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
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

from .algebra import NumericalResolutionError
from .group import DimensionMismatch, GroupLaw, _leading

if TYPE_CHECKING:
    from .curve import Curve


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
        # per coefficient table: its anchor tables by offset, and their compiled texts by layout
        self._tables: dict = {}

    # -- gauge ------------------------------------------------------------

    def _pair(self, cols):
        """N(x^-1 * y) on ``cols``, the columns of x then of y, all of one shape."""
        return _gauge(self.eps, self._slices, self.law._divide(cols))

    def norm(self, z):
        """N(z); batch aware (last axis is the coordinate axis)."""
        return _point_or_batch(_gauge(self.eps, self._slices, _leading(self.law._floats(z)[0])))

    def distance(self, x, y):
        """d(x, y) = N(x^-1 * y) for points of shape (..., n) that broadcast.

        On the columns of x and y broadcast to one shape, the law's quotient
        (``GroupLaw._divide``) and :func:`_gauge` round as
        ``norm(law.multiply(law.inverse(x), y))``, bit for bit.
        """
        return _point_or_batch(self._pair(self.law._columns(x, y)[2]))

    __call__ = distance

    def distance_from(self, x0) -> Callable:
        """Closure Y -> d(x0, Y) = N(x0^-1 * Y) over points of shape (..., n).

        On step 3 and more it has a rounding floor (d(x0, x0) up to about
        1e-5 on engel at |x0| ~ 1); ball sets do not use it, and have none.
        """
        x0 = self.law._floats(x0)[0]
        if x0.shape != (self.law.n,):
            raise DimensionMismatch(f"anchor must have shape ({self.law.n},), got {x0.shape}")
        return lambda y: self.distance(x0, y)

    def ball_weights(self, r: float) -> list:
        """The weights (eps_k / r)^(2k) of |z^(k)|^2 in the P_k of an r-ball,
        one per layer.  An overflowing weight raises NumericalResolutionError."""
        try:
            return [(e / r) ** (2 * k) for k, e in enumerate(self.eps, start=1)]
        except OverflowError:
            raise NumericalResolutionError(
                f"radius {r} is below float resolution") from None

    def membership(self, pieces, r: float) -> tuple:
        """Membership in closed r-balls anchored on a curve's table: (bracket, walk).

        The anchor x lies u past the origin of piece m; y(s) runs along
        piece m + d, from the anchor (d = 0) or from the piece's first
        parameter.  For each layer k that z = x^-1 * y(s) touches, P_k(s)
        is a polynomial whose coefficients are read off by Horner in u.
        z is folded as a polynomial in (u, s), every piece at once, per
        offset d (``law.divide_rows`` on ``curve._anchor_rows``), and each
        function of :func:`_membership_source` compiled once per layout of
        a table (:func:`_layout`) and kept.  For d = 0 its s^0 column, x^-1
        * x, is left out, so P_k(0) = -1 and P_k'(0) = 0 exactly.
        ``bracket(m, d, u, g, hi, start, offset)`` runs the table's
        ``reach``, the first exit in [0, hi] or hi, and ``walk(t, hi,
        guard, cap, centers, limit)`` the greedy walk of ``measure.
        spherical_measure_upper`` over [t, hi] in one call, returning (t,
        edge) of its last ball.  Both search a bracket in place where its
        certificate refuses (``roots.first_exit``).
        """
        from . import curve, roots
        w = self.ball_weights(r)
        _, tables, compiled = self._tables.setdefault(id(pieces[0]), (pieces, {}, {}))
        breaks, origins = pieces[1].tolist(), pieces[2].tolist()

        def table(d: int, kind: str = "reach") -> tuple:
            if (d, kind) not in tables:
                rows = curve._anchor_rows(pieces, range(len(origins) - d), range(d, len(origins)))
                layout, rows = _layout(self.law.divide_rows(*rows), d == 0)
                if (kind, layout) not in compiled:
                    scope = {**roots._SCOPE, "inf": math.inf, "bisect_right": bisect.bisect_right,
                             "onward": _onward, "first_exit": roots.first_exit}
                    # source built from our own terms
                    exec(_membership_source(layout, self._slices, kind), scope)  # noqa: S102
                    compiled[kind, layout] = scope[kind]
                tables[d, kind] = compiled[kind, layout], rows
            return tables[d, kind]

        def bracket(m: int, d: int, u: float, *args) -> float:
            reach, rows = table(d)
            return reach(u, rows[m], w, *args)

        def walk(*state) -> tuple:
            run, rows = table(0, "walk")
            return run(*state, rows, w, breaks, origins, bracket)

        return bracket, walk

    def ball_around(self, curve: Curve, t0: float, r: float) -> tuple:
        """(polys, origins): the P_k of the r-ball around gamma(t0) that z =
        gamma(t0)^-1 * gamma touches on every piece, in s past the piece's
        origin: t0 on the center's, else its first parameter (:func:`_ball_fold`)."""
        import numpy as np
        squares, origins = _ball_fold(self, curve, t0)
        polys = (np.array(self.ball_weights(r))[:, None, None] * squares)[squares.any(axis=(1, 2))]
        polys[:, 0] -= 1.0
        return polys, origins


@lru_cache(maxsize=1)
def _ball_fold(dist: HomogeneousDistance, curve: Curve, t0: float) -> tuple:
    """(squares, origins) of ``ball_around``, kept for the last center: |z^(k)|^2
    per layer, z folded once from piece m against all (``curve._anchor_rows``)
    at u = t0 - origins[m], its s^0 column on piece m (x^-1 * x) set to 0."""
    import numpy as np
    from .curve import _anchor_rows, _squares
    _, breaks, origins = curve.pieces
    m, every = int(np.searchsorted(breaks, t0, side="right")), np.arange(len(origins))
    z = [np.polynomial.polynomial.polyval(t0 - origins[m], zj) for zj in
         dist.law.divide_rows(*_anchor_rows(curve.pieces, np.full_like(every, m), every))]
    for zj in z:
        zj[0, m] = 0.0
    fold = _squares([z[sl] for sl in dist._slices]), np.concatenate((origins[:1], breaks))
    fold[1][m] = t0
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
    the whole reach from start, the one the loop takes inline."""
    while t0 < cap:
        t1 = min(cap, breaks[piece + d]) if piece + d < len(breaks) else cap
        offset, hi = t0 - start, t1 - t0
        a = bracket(piece, d, u, None if g is None else g - offset, hi, start, offset)
        if a < hi:
            return t0 + a
        t0, d = t1, d + 1
    return cap


def _layout(z: list, anchored: bool) -> tuple:
    """(layout, rows) of a table z: per z_j and power b of s, how many powers of
    u it keeps (up to the last nonzero on some piece; none for b = 0 where
    ``anchored``), and per piece the kept coefficients in that order."""
    import numpy as np
    layout = tuple(tuple(0 if not any(col) or (anchored and b == 0)
                         else len(col) - col[::-1].index(True)
                         for b, col in enumerate(zj.any(axis=2).T.tolist())) for zj in z)
    entries = [zj[:size, b] for zj, sizes in zip(z, layout) for b, size in enumerate(sizes) if size]
    return layout, np.concatenate(entries or [np.empty((0, z[0].shape[2]))]).T.tolist()


def _membership_source(layout: tuple, slices, kind: str) -> str:
    """Source of the function ``kind`` on the tables of a :func:`_layout`.

    Both kinds compute the P of a table from its piece's coefficients c:
    each power of s of each z_j by Horner in u (``roots._horner_source``),
    the squares summed per layer as polynomials in s, scaled by w[k - 1],
    and 1 subtracted, with every literal written in.  ``reach(u, c, w, g,
    hi, start, offset)`` runs the text of ``roots._bracket_source`` on
    them: it returns a where that certifies [0, a], else
    ``roots.first_exit`` of the P on [0, a].
    ``walk`` is the greedy loop of ``measure.spherical_measure_upper``
    (``_WALK``) with that reach inline, offset 0.0, and the next pieces'
    ``reach`` past a piece without exit (:func:`_onward`).
    """
    from . import roots
    size, lines, layers = 0, [], []
    for k, sl in enumerate(slices):
        block = []                 # per coordinate of the layer: names of its s-coefficients
        for j in range(sl.start, sl.stop):
            names = []
            for b, kept in enumerate(layout[j]):
                names.append(f"z{j}_{b}" if kept else None)
                if kept:
                    coef = [f"c{i}" for i in range(size, size + kept)]
                    lines.append(f"    z{j}_{b} = {roots._horner_source(coef, 'u')}\n")
                size += kept
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
    unpack = f"{', '.join(f'c{i}' for i in range(size))}, = " if size else ""

    def listed(polys: list) -> str:          # source of the list of the P
        return f"[{', '.join('[' + ', '.join(coef) + ']' for coef in polys)}]"

    # the coefficients that are not literals, as locals
    names = [[term if roots._literal(term) is not None else f"c{i}_{k}"
              for k, term in enumerate(terms)]
             for i, terms in enumerate(layers)]
    lines += [f"    {name} = {term}\n" for coef, terms in zip(names, layers)
              for name, term in zip(coef, terms) if name != term]
    if kind == "walk":
        bracket = roots._bracket_source(names, "0.0",
                                        f"a = first_exit({listed(names)}, a, start, 0.0)")
        bracket = "".join(f"        {line}" for line in bracket.splitlines(True))
        return _WALK.format(unpack=unpack and f"            {unpack}rows[piece]\n",
                            coefficients="".join(f"    {line}" for line in lines),
                            bracket=bracket)
    bracket = roots._bracket_source(names, "offset",
                                    f"a = first_exit({listed(names)}, a, start, offset)")
    return (f"def reach(u, c, w, g, hi, start, offset):\n    {unpack and unpack + 'c'}\n"
            f"{''.join(lines)}{bracket}    return a\n")


def _point_or_batch(out):
    """A gauge's value: a float for a single point, else the array."""
    return float(out) if getattr(out, "ndim", 0) == 0 else out


def _gauge(eps, slices, z):
    """N on the coordinate columns z[j], all of one shape: per layer k, |z_j|
    for a layer of one coordinate, else the sqrt of its squares summed left
    to right, then sqrt again for k = 2 and ** (1/k) from k = 3, times
    eps_k unless it is 1, the layers folded by ``np.maximum`` from the first.
    Sums go in place on its own temporaries, never on a column of z."""
    import numpy as np
    out = None
    for k, (e, sl) in enumerate(zip(eps, slices), start=1):
        if sl.stop - sl.start == 1:
            mag = np.abs(z[sl.start])
        else:
            mag = z[sl.start] * z[sl.start]
            for j in range(sl.start + 1, sl.stop):
                mag += z[j] * z[j]
            mag = np.sqrt(mag)
        root = mag if k == 1 else np.sqrt(mag) if k == 2 else mag ** (1.0 / k)
        if e != 1.0:
            root = e * root
        out = root if out is None else np.maximum(out, root)
    return out


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
    distance is ``distance``'s quotient and gauge on the block's columns,
    which write no point, so the result is the same as scoring with
    ``norm(law.multiply(-x, y))``.

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
    import numpy as np
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
            with np.errstate(over="ignore", invalid="ignore"):
                dxy, dyz, dxz = dists = np.array([pair([*x, *y]), pair([*y, *z]), pair([*x, *z])])
                denom = dxy + dyz
            if not (denom.max() <= sys.float_info.max and dxz.max() <= sys.float_info.max):
                raise NumericalResolutionError(
                    f"sampled distances overflow float at eps {list(dist.eps)}")
            # the least nonzero distance, past any degenerate triple's 0
            least = dists.min() or np.min(dists, where=dists > 0.0, initial=np.inf)
            if least < sys.float_info.min:
                raise NumericalResolutionError(
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
        raise NumericalResolutionError(f"{what} underflows to 0 {at}")
    if not abs(value) < math.inf:
        raise NumericalResolutionError(f"{what} overflows {at}")
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
    import numpy as np
    from .curve import polynomial_curve
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
    import numpy as np
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
