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
from typing import Callable, Sequence

import numpy as np

from .frame import FrameCoordinates
from .group import GroupLaw
from .roots import bisect


@dataclass(frozen=True)
class Box:
    """Weighted coordinate box: |x_j| <= radius^(degree_j) for every j."""

    degrees: tuple
    radius: float

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        bounds = np.array([self.radius ** d for d in self.degrees])
        return bool(np.all(np.abs(x) <= bounds * (1.0 + tol)))


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
        self._plain = [(s.start, s.stop, eps[k - 1], 0.5 / k)
                       for k, s in enumerate(self._slices, start=1)]

    @property
    def algebra(self):
        return self.law.algebra

    # -- gauge ------------------------------------------------------------

    def norm(self, z):
        """N(z); batch aware (last axis is the coordinate axis)."""
        z = np.asarray(z, dtype=float)
        vals = []
        for k, sl in enumerate(self._slices, start=1):
            block = z[..., sl]
            mag = np.sqrt(np.sum(block * block, axis=-1))
            vals.append(self.eps[k - 1] * mag ** (1.0 / k))
        out = np.maximum.reduce(vals)
        return float(out) if out.ndim == 0 else out

    def _norm_scalar(self, z) -> float:
        best = 0.0
        for start, stop, ek, expo in self._plain:
            ss = 0.0
            for j in range(start, stop):
                ss += z[j] * z[j]
            val = ek * ss ** expo
            if val > best:
                best = val
        return best

    def distance(self, x, y):
        return self.norm(self.law.multiply(self.law.inverse(x), y))

    __call__ = distance

    def distance_from(self, x0) -> Callable:
        """Fast scalar closure t -> d(x0, y); y may be ndarray or sequence."""
        n = self.law.n
        xinv = tuple(-float(c) for c in np.asarray(x0, dtype=float))
        qfns = self.law._q_fns
        norm_scalar = self._norm_scalar

        def dist_to(y) -> float:
            ytup = tuple(y.tolist()) if isinstance(y, np.ndarray) else tuple(map(float, y))
            v = xinv + ytup
            z = [xinv[i] + ytup[i] + qfns[i](v) for i in range(n)]
            return norm_scalar(z)

        return dist_to


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


def _line_gauge_interval_length(dist, lam, rel_tol: float, grid: int) -> float:
    """Lebesgue measure of {t : N(t * lam) < 1} by scan plus bisection.

    The membership set need not be a single interval for a general gauge,
    so the positive half-line is scanned on a uniform grid and every sign
    change of N - 1 is refined.  The set is symmetric, hence the factor 2.
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

    ts = np.linspace(0.0, s_max, grid + 1)
    vals = norm(ts[:, None] * lam[None, :]) - 1.0
    inside = vals < 0.0

    def refine(lo, hi):
        below = norm(lo * lam) < 1.0
        lo, hi = bisect(lambda t: (norm(t * lam) < 1.0) == below, lo, hi,
                        lambda a, b: rel_tol * s_max * 1e-3, 80)
        return 0.5 * (lo + hi)

    total = 0.0
    open_at = 0.0 if inside[0] else None
    for i in range(len(ts) - 1):
        if inside[i] != inside[i + 1]:
            crossing = refine(ts[i], ts[i + 1])
            if inside[i]:
                total += crossing - open_at
                open_at = None
            else:
                open_at = crossing
    if open_at is not None:
        total += s_max - open_at
    return 2.0 * total


def metric_factor(dist: HomogeneousDistance, tau, method: str = "auto",
                  rel_tol: float = 1e-6, grid: int = 4096) -> float:
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
    return mag * _line_gauge_interval_length(dist, lam, rel_tol, grid)


def degree_constant(dist: HomogeneousDistance, q: int) -> float:
    """Metric factor of a unit direction in layer q (2 / eps_q^q)."""
    sl = dist._slices[q - 1]
    lam = np.zeros(dist.law.n)
    lam[sl.start] = 1.0
    return metric_factor(dist, lam, method="closed")


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
