"""Homogeneous distances of layer-max type, and their diagnostics.

The gauge is N(z) = max_k eps_k * |z^(k)|^(1/k) over the layers, with
|.| the euclidean norm of the layer block.  It is 1-homogeneous under
dilations and even (N(-z) = N(z)), so d(x, y) = N(x^-1 * y) is left
invariant and symmetric.  The triangle inequality depends on the eps
weights; it is not assumed but audited by sampling (triangle_audit).

Also here: the 1-dimensional density constant of a straight line through
the identity ("metric factor"), measured either by a closed form when
the direction sits in a single layer or by generic interval scanning,
and the sampled ball-box comparison constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import roots
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
        self._gauge, self._coef, self._k, self._folds = _compile_kernel(law, eps, self._slices)

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

    @cached_property
    def _disp(self) -> Callable:
        """Generated ``disp(c, y)``: z = x^-1 * y on coefficient lists y[j] of
        polynomials in one variable, from the anchor coefficients c = coef(x),
        returned as such lists.

        Built from the y-monomials of ``_compile_kernel``'s fold on first
        use, because only the covering walk needs it.
        """
        disps = []
        for i, (const, monomials) in enumerate(self._folds):
            parts = []
            for index, beta in monomials:
                factors = [f"y[{j}]" for j, e in enumerate(beta) for _ in range(e)]
                product = factors[0]
                for f in factors[1:]:
                    product = f"_pmul({product}, {f})"
                parts.append(f"(c[{index}], {product}), ")
            disps.append(f"_lin(c[{const}], y[{i}], ({''.join(parts)}))")
        scope = {"_lin": _lin, "_pmul": _pmul}
        # source built from our own terms
        exec(f"def disp(c, y):\n    return [{', '.join(disps)}]\n", scope)  # noqa: S102
        return scope["disp"]

    def layer_polynomials(self, x0, ys, r: float) -> list:
        """Membership in the closed r-ball around x0 along a polynomial path.

        ``ys[j]`` lists the ascending coefficients of coordinate j of a path
        y(s), and z(s) = x0^-1 * y(s) is expanded by the same fold as
        :meth:`distance_from`, with products of coordinates taken as
        products of polynomials.  Returns, for every layer k on which z is
        not identically zero, the ascending coefficients of
        P_k(s) = (eps_k / r)^(2k) |z^(k)(s)|^2 - 1, so that N(z(s)) <= r
        exactly where every P_k(s) <= 0.  Where y(0) is x0 itself, z(0) is
        x0^-1 * x0 = 0 exactly, and its constant terms are set so.  A
        radius so small that (eps_k / r)^(2k) overflows is below float
        resolution: NumericalResolutionError.
        """
        x0 = list(x0)
        z = self._disp(self._coef(x0), ys)
        if [y[0] for y in ys] == x0:
            for zj in z:
                zj[0] = 0.0
        out = []
        for k, sl in enumerate(self._slices, start=1):
            block = [zj for zj in z[sl] if any(zj)]
            if not block:
                continue
            try:
                w = (self.eps[k - 1] / r) ** (2 * k)
            except OverflowError:
                raise roots.NumericalResolutionError(
                    f"radius {r} is below float resolution on layer {k}") from None
            p = [0.0] * (2 * max(map(len, block)) - 1)
            for zj in block:
                for i, ci in enumerate(zj):
                    p[2 * i] += ci * ci
                    ci += ci
                    for j in range(i + 1, len(zj)):
                        p[i + j] += ci * zj[j]
            p = [w * c for c in p]
            p[0] -= 1.0
            while len(p) > 1 and p[-1] == 0.0:
                p.pop()
            out.append(p)
        return out


def _pmul(p: list, q: list) -> list:
    """Product of two polynomials in ascending coefficients."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _lin(const: float, y: list, terms) -> list:
    """const + y + the sum of w * p over the (w, p) pairs, in ascending coefficients."""
    out = list(y)
    out[0] += const
    for w, p in terms:
        if len(p) > len(out):
            out += [0.0] * (len(p) - len(out))
        for k, c in enumerate(p):
            out[k] += w * c
    return out


def _compile_kernel(law: GroupLaw, eps, slices):
    """Generate the gauge and the functions behind ``distance_from``.

    ``gauge(z)`` is N(z) on the coordinate columns z[j]; it skips unit
    weights and takes |z_j| for a layer of one coordinate.  ``coef(x)``
    maps an anchor x to the coefficients of z = x^-1 * y as polynomials in
    y: per coordinate i, the constant -x_i, then one value per y-monomial
    of Q_i(x^-1, y), its terms grouped by y-exponents.  ``k(c, y)``
    evaluates z on the columns y[j] and returns gauge(z).  Last come the
    folds: per coordinate i, the index of its constant in coef(x) and the
    (index, y-exponents) of each y-monomial.
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
    coefs, zs, folds = [], [], []
    for i, q in enumerate(law.q_polys):
        zs.append(f"c[{len(coefs)}] + y[{i}]")
        folds.append((len(coefs), []))
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
            folds[i][1].append((len(coefs), beta))
            coefs.append(" + ".join(parts))
        if ys:
            zs[i] += f" + ({' + '.join(ys)})"

    scope = {"np": np}
    # source built from our own terms
    exec(f"def gauge(z):\n    return {gauge}\n"  # noqa: S102
         f"def k(c, y):\n    return gauge(({', '.join(zs)},))\n"
         f"def coef(x):\n    return ({', '.join(coefs)},)\n", scope)
    return scope["gauge"], scope["coef"], scope["k"], folds


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
