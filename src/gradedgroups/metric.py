"""Homogeneous distances of layer-max type, and their diagnostics.

The gauge is N(z) = max_k eps_k * |z^(k)|^(1/k) over the layers, with
|.| the euclidean norm of the layer block.  It is 1-homogeneous under
dilations and even (N(-z) = N(z)), so d(x, y) = N(x^-1 * y) is left
invariant and symmetric.  The triangle inequality depends on the eps
weights; it is not assumed but audited by sampling (triangle_audit).

Along a curve's coefficient table, a ball is a few polynomial
inequalities in the parameter, read off anchor tables (``membership``).

Also here: the 1-dimensional density constant of a straight line through
the identity ("metric factor"), measured either by a closed form when
the direction sits in a single layer or by generic interval scanning,
and the sampled ball-box comparison constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import roots
from .curve import _anchor_rows
from .frame import FrameCoordinates
from .group import DimensionMismatch, GroupLaw, _leading
from .poly import monomial_source


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
        if any(e <= 0 for e in eps):
            raise ValueError("eps weights must be positive")
        self.law = law
        self.eps = eps
        self._slices = [alg.layer_slice(k) for k in range(1, alg.step + 1)]
        self._gauge, self._coef, self._k = _compile_kernel(law, eps, self._slices)
        # per coefficient table: its anchor tables by offset, and their evaluators by source
        self._tables: dict = {}

    # -- gauge ------------------------------------------------------------

    def _columns(self, z):
        """Coordinate columns z[j] of points of shape (..., n)."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1:] != (self.law.n,):
            raise DimensionMismatch(
                f"points must have {self.law.n} coordinates, got {z.shape}")
        return _leading(z)

    def norm(self, z):
        """N(z); batch aware (last axis is the coordinate axis)."""
        out = self._gauge(self._columns(z))
        return float(out) if np.ndim(out) == 0 else out

    def distance(self, x, y):
        return self.norm(self.law.multiply(self.law.inverse(x), y))

    __call__ = distance

    def distance_from(self, x0) -> Callable:
        """Closure Y -> d(x0, Y) over points of shape (..., n).

        The anchor's share of x0^-1 * y is folded into one coefficient per
        y-monomial here, so a call evaluates only the fused kernel.  A
        single point (n,) gives a float-like scalar.

        On groups of step 3 and more the result has a rounding floor: the
        layer-k coordinates of x0^-1 * y are differences of terms of size
        |x0|^k, and the gauge raises their rounding to the power 1/k.  On
        engel, d(x0, x0) reads up to 9.6e-6 over normal random x0 with
        |x0| ~ 1 and 7.7e-5 at |x0| ~ 10; on heisenberg it is exactly 0.
        Distances near that floor are rounding.
        """
        n = self.law.n
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n,):
            raise DimensionMismatch(f"anchor must have shape ({n},), got {x0.shape}")
        coef = self._coef(x0.tolist())
        kernel, columns = self._k, self._columns

        def dist_to(y):
            return kernel(coef, columns(y))

        return dist_to

    def membership(self, pieces, r: float) -> Callable:
        """Membership in closed r-balls anchored on a curve's table ``pieces``.

        ``polys(m, d, u)`` lists, for each layer k that z = x^-1 * y(s)
        touches, the ascending coefficients of P_k(s) = (eps_k / r)^(2k)
        |z^(k)(s)|^2 - 1: y(s) is in the ball around x where every P_k <= 0.
        The anchor x lies u past the origin of piece m; y(s) runs along
        piece m + d, from the anchor (d = 0) or from the piece's first
        parameter.  z is folded as a polynomial in (u, s), every piece at
        once, once per offset d and kept (``law.divide_rows`` on
        ``curve._anchor_rows``).  For d = 0 its s^0 column, x^-1 * x, is
        left out, so P_k(0) = -1 and P_k'(0) = 0 exactly: no self-distance
        floor.  An overflowing (eps_k / r)^(2k) raises
        NumericalResolutionError.
        """
        try:
            w = [(e / r) ** (2 * k) for k, e in enumerate(self.eps, start=1)]
        except OverflowError:
            raise roots.NumericalResolutionError(
                f"radius {r} is below float resolution") from None
        _, tables, compiled = self._tables.setdefault(id(pieces[0]), (pieces, {}, {}))

        def polys(m: int, d: int, u: float) -> list:
            if d not in tables:
                z = self.law.divide_rows(*_anchor_rows(pieces, d))
                source, rows = _membership_source(z, self._slices, d == 0)
                if source not in compiled:
                    scope = {}
                    # source built from our own terms
                    exec(source, scope)  # noqa: S102
                    compiled[source] = scope["evaluate"]
                tables[d] = compiled[source], rows
            evaluate, rows = tables[d]
            return evaluate(u, rows[m], w)

        return polys


def _membership_source(z: list, slices, anchored: bool) -> tuple:
    """Source of ``evaluate(u, c, w)`` and the per-piece coefficient lists c.

    ``evaluate`` reads each power of s of each z_j by Horner in u, sums
    the squares per layer as polynomials in s, scales them by w[k - 1] and
    subtracts 1.  Coefficients zero on every piece are left out, and so is
    the s^0 column of z where ``anchored``.
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
        layers.append(f"[{', '.join(terms)}]")
    if size:
        lines.insert(0, f"    {', '.join(f'c{i}' for i in range(size))}, = c\n")
    return (f"def evaluate(u, c, w):\n{''.join(lines)}    return [{', '.join(layers)}]\n",
            np.concatenate(entries or [np.empty((0, count))]).T.tolist())


def _compile_kernel(law: GroupLaw, eps, slices):
    """Generate the gauge and the functions behind ``distance_from``.

    ``gauge(z)`` is N(z) on the coordinate columns z[j]; it skips unit
    weights and takes |z_j| for a layer of one coordinate.  ``coef(x)``
    maps an anchor x to the coefficients of z = x^-1 * y as polynomials in
    y: per coordinate i, the constant -x_i, then one value per y-monomial
    of Q_i(x^-1, y), its terms grouped by y-exponents.  ``k(c, y)``
    evaluates z on the columns y[j] and returns gauge(z).
    """
    terms = []
    for k, sl in enumerate(slices, start=1):
        if sl.stop - sl.start == 1:
            mag = f"np.abs(z[{sl.start}])"
        else:
            mag = f"np.sqrt({' + '.join(f'z[{j}] * z[{j}]' for j in range(sl.start, sl.stop))})"
        root = mag if k == 1 else f"np.sqrt({mag})" if k == 2 else f"{mag} ** {1.0 / k!r}"
        terms.append(root if eps[k - 1] == 1.0 else f"{eps[k - 1]!r} * {root}")
    gauge = terms[0]
    for term in terms[1:]:
        gauge = f"np.maximum({gauge}, {term})"

    n = law.n
    coefs, zs = [], []
    for i, q in enumerate(law.q_polys):
        zs.append(f"c[{len(coefs)}] + y[{i}]")
        coefs.append(f"-x[{i}]")
        by_y: dict = {}
        for exps, c in sorted(q.terms.items()):
            alpha, beta = exps[:n], exps[n:]
            # x^-1 = -x, so each x-factor flips the sign
            by_y.setdefault(beta, []).append(
                monomial_source(repr(float(c * (-1) ** sum(alpha))), alpha, "x"))
        ys = []
        for beta, parts in by_y.items():
            ys.append(monomial_source(f"c[{len(coefs)}]", beta, "y"))
            coefs.append(" + ".join(parts))
        if ys:
            zs[i] += f" + ({' + '.join(ys)})"

    scope = {"np": np}
    # source built from our own terms
    exec(f"def gauge(z):\n    return {gauge}\n"  # noqa: S102
         f"def k(c, y):\n    return gauge(({', '.join(zs)},))\n"
         f"def coef(x):\n    return ({', '.join(coefs)},)\n", scope)
    return scope["gauge"], scope["coef"], scope["k"]


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


# triples drawn and scored per batch by triangle_audit
AUDIT_CHUNK = 65536


def triangle_audit(dist: HomogeneousDistance, samples: int = 100_000,
                   seed: int = 0) -> TriangleAudit:
    """Largest observed d(x,z) / (d(x,y) + d(y,z)) over random triples.

    Points are drawn coordinate-wise uniform on [-1, 1], then dilated by a
    log-uniform factor in [1/4, 4] so several scales get exercised.
    Degenerate triples (zero denominator) score 0 by convention.
    """
    law = dist.law
    n = law.n
    degrees = np.array(law.degrees, dtype=float)
    rng = np.random.default_rng(seed)

    best, witness = 0.0, None
    left = samples
    while left > 0:
        m = min(AUDIT_CHUNK, left)
        pts = rng.uniform(-1.0, 1.0, size=(3, m, n))
        scales = np.exp(rng.uniform(math.log(0.25), math.log(4.0), size=(3, m)))
        pts *= scales[..., None] ** degrees
        left -= m
        x, y, z = pts
        dxy = dist.norm(law.multiply(-x, y))
        dyz = dist.norm(law.multiply(-y, z))
        dxz = dist.norm(law.multiply(-x, z))
        denom = dxy + dyz
        ratio = np.divide(dxz, denom, out=np.zeros_like(dxz), where=denom > 0)
        i = int(np.argmax(ratio))
        if ratio[i] > best:
            best = float(ratio[i])
            witness = (x[i].tolist(), y[i].tolist(), z[i].tolist())
    return TriangleAudit(max_ratio=best, witness=witness, samples=samples, seed=seed)


# -- metric factor -----------------------------------------------------------


def _line_gauge_interval_length(dist, lam) -> float:
    """Lebesgue measure of {t : N(t * lam) < 1} by scan plus bisection.

    Every layer term eps_k |t lam^(k)|^(1/k) grows with |t|, so for the
    layer-max gauge the set is the single interval (-s, s) whose end s
    lies below s_max.  It is located by a 4096-cell scan of [0, s_max]
    with every crossing of N = 1 refined (``roots.intervals``) rather
    than in closed form, so that it stays an independent check of the
    closed form of ``metric_factor``.  The factor 2 is the negative half.
    """
    lam = np.asarray(lam, dtype=float)
    norm = dist.norm
    # beyond s_max the gauge certainly exceeds 1: the largest layer term
    # alone crosses 1 at eps_k^-k / |block_k|
    s_max = np.inf
    for k, sl in enumerate(dist._slices, start=1):
        mag = float(np.linalg.norm(lam[sl]))
        if mag > 0:
            s_max = min(s_max, dist.eps[k - 1] ** (-k) / mag)
    if not np.isfinite(s_max):
        raise ValueError("zero direction has no line measure")
    s_max *= 1.0 + 1e-9

    def below(t):
        return norm(np.multiply.outer(t, lam)) < 1.0

    ts = np.linspace(0.0, s_max, 4097)
    runs = roots.intervals(below, ts, below(ts), lambda a, b: 1e-9 * s_max, 10)
    return 2.0 * sum(hi - lo for lo, hi in runs)


def metric_factor(dist: HomogeneousDistance, tau, method: str = "auto") -> float:
    """1-d euclidean measure of span{tau_0} inside the unit ball.

    ``tau`` is a FrameCoordinates (only the coefficients matter: they are
    the pullback of the vector to the identity) or a bare coefficient
    vector.  For a direction concentrated in one layer the closed form
    2 |tau_0| / d(0, tau_0)^q applies; otherwise the length of
    {t : N(t tau_0) < 1} is measured directly.  method is "auto",
    "closed" or "measure".
    """
    lam = tau.lam if isinstance(tau, FrameCoordinates) else np.asarray(tau, dtype=float)
    lam = np.asarray(lam, dtype=float)
    mag = float(np.linalg.norm(lam))
    if mag == 0.0:
        raise ValueError("metric factor of the zero direction is undefined")

    layers_hit = []
    for k, sl in enumerate(dist._slices, start=1):
        if float(np.linalg.norm(lam[sl])) > 1e-12 * mag:
            layers_hit.append(k)

    if method not in ("auto", "closed", "measure"):
        raise ValueError(f"unknown metric_factor method {method!r}")
    if method == "closed" or (method == "auto" and len(layers_hit) == 1):
        if len(layers_hit) != 1:
            raise ValueError("closed form needs a direction inside a single layer")
        q = layers_hit[0]
        return 2.0 * mag / float(dist.norm(lam)) ** q
    return mag * _line_gauge_interval_length(dist, lam)


def degree_constant(dist: HomogeneousDistance, q: int) -> float:
    """Metric factor of a unit direction in layer q, whose gauge is eps_q: 2 / eps_q^q.

    Raises ValueError unless 1 <= q <= step, as ``layer_slice`` does.
    """
    dist.law.algebra.layer_slice(q)
    return 2.0 / dist.eps[q - 1] ** q


# -- ball-box comparison ------------------------------------------------------


@dataclass(frozen=True)
class BallBoxReport:
    lam: float
    sup_gauge_on_unit_box: float
    box_witness: list
    sup_box_exit_on_sphere: float
    sphere_witness: list
    samples: int
    seed: int
    recheck_violations: int


def ball_box_constants(dist: HomogeneousDistance, samples: int = 20000,
                       seed: int = 0) -> BallBoxReport:
    """Largest lam <= 1 with Box_(lam r) inside the ball of radius r inside
    Box_(r / lam), estimated by sampling.

    Direction 1: sup of N over the unit box (corners included, they are the
    usual extremizers); Box_lam sits in the unit ball for lam = 1 / sup.
    Direction 2: points on the unit sphere of N (random directions scaled
    by homogeneity), maximizing |z_j|^(1/d_j); the ball sits in Box_(1/lam)
    for 1/lam = that sup.  Ends with a membership re-check on fresh box
    samples.
    """
    law = dist.law
    n = law.n
    degrees = np.array(law.degrees, dtype=float)
    rng = np.random.default_rng(seed)

    pts = rng.uniform(-1.0, 1.0, size=(samples, n))
    if n <= 16:
        corners = np.array(list(np.ndindex(*(2,) * n)), dtype=float) * 2.0 - 1.0
        pts = np.vstack([pts, corners])
    gauges = dist.norm(pts)
    i = int(np.argmax(gauges))
    sup_box = float(gauges[i])
    box_witness = pts[i].tolist()

    dirs = rng.normal(size=(samples, n))
    norms = dist.norm(dirs)
    keep = norms > 0
    dirs = dirs[keep]
    norms = norms[keep]
    sphere = dirs * (1.0 / norms[:, None]) ** degrees  # delta_{1/N}(u) lands on N = 1
    exit_scores = np.max(np.abs(sphere) ** (1.0 / degrees), axis=1)
    j = int(np.argmax(exit_scores))
    sup_exit = float(exit_scores[j])
    sphere_witness = sphere[j].tolist()

    lam = min(1.0, 1.0 / sup_box, 1.0 / sup_exit)

    recheck = rng.uniform(-1.0, 1.0, size=(10000, n))
    recheck *= np.array([lam ** d for d in law.degrees])
    violations = int(np.sum(dist.norm(recheck) > 1.0 + 1e-9))

    return BallBoxReport(lam=lam, sup_gauge_on_unit_box=sup_box,
                         box_witness=box_witness,
                         sup_box_exit_on_sphere=sup_exit,
                         sphere_witness=sphere_witness,
                         samples=samples, seed=seed,
                         recheck_violations=violations)
