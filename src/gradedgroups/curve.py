"""C1 curves in exponential coordinates and their degree theory.

A curve carries its open parameter domain and position/velocity
callables.  The pointwise degree at t is the largest layer the velocity
touches when written in the left-invariant frame; the degree of the
curve is the maximum over a parameter grid, and parameters realizing a
smaller degree form the low-degree set.  Near a point of maximal degree
one distinguished coordinate dominates; the adapted basis rotates the
top layer so that coordinate comes first, and the little-o check fits
log-log slopes of the translated coordinates against the graded targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import roots
from .frame import FrameCoordinates, METRIC_EUCLIDEAN, METRIC_LEFT, speed
from .group import GroupLaw


class ZeroVelocityError(ValueError):
    pass


@dataclass(frozen=True)
class Curve:
    """Parametrized curve with explicit velocity.

    position/velocity take an ndarray of parameters of shape (...) and
    return an array of shape (..., n), one point per parameter.
    ``positions``/``velocities`` raise ValueError when a callable returns
    any other shape.  ``position_at``/``velocity_at`` read one parameter
    through them, as shape (), so a point of any shape but (n,) is refused
    too.  The domain is an open interval; operations clip slightly inside
    it.  ``breaks`` lists the parameters where the velocity may kink; the
    integrals split there.
    """

    domain: tuple
    n: int
    position: Callable
    velocity: Callable
    name: str = ""
    description: str = ""
    breaks: tuple = ()

    def position_at(self, t: float) -> np.ndarray:
        return self.positions(float(t))

    def velocity_at(self, t: float) -> np.ndarray:
        return self.velocities(float(t))

    def _batch(self, fn, ts: np.ndarray) -> np.ndarray:
        out = np.asarray(fn(ts), dtype=float)
        if out.shape != ts.shape + (self.n,):
            raise ValueError(f"curve {self.name!r} returned shape {out.shape} for "
                             f"parameters of shape {ts.shape}; expected "
                             f"{ts.shape + (self.n,)}")
        return out

    def positions(self, ts) -> np.ndarray:
        return self._batch(self.position, np.asarray(ts, dtype=float))

    def velocities(self, ts) -> np.ndarray:
        return self._batch(self.velocity, np.asarray(ts, dtype=float))

    def span(self) -> float:
        return self.domain[1] - self.domain[0]


def curve_from_samples(samples, n: int, name: str = "") -> Curve:
    """Cubic interpolation through (t, position, velocity) samples.

    The velocities are honored exactly at the nodes (piecewise cubic
    Hermite), which keeps the interpolant C1; the nodes are its breaks.
    From node t_i on, the position is c0 + c1 s + c2 s^2 + c3 s^3 in
    s = t - t_i, summed in ascending powers, and the velocity is the same
    sum over the derivative's coefficients; the end pieces extend outward.
    """
    ts = np.asarray([s["t"] for s in samples], dtype=float)
    pos = np.asarray([s["position"] for s in samples], dtype=float)
    vel = np.asarray([s["velocity"] for s in samples], dtype=float)
    if ts.ndim != 1 or len(ts) < 2 or pos.shape != (len(ts), n) or vel.shape != pos.shape:
        raise ValueError("need two or more samples of matching dimension")
    h = np.diff(ts)
    if not np.all(h > 0):
        raise ValueError("sample parameters must be strictly increasing")
    p, v = pos.T, vel.T         # one row per coordinate
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        slope = np.diff(p) / h
        cubic = (v[:, :-1] + v[:, 1:] - 2 * slope) / h
        coef = np.stack((p[:, :-1], v[:, :-1], (slope - v[:, :-1]) / h - cubic, cubic / h))
        dcoef = coef[1:] * np.array([1.0, 2.0, 3.0])[:, None, None]
    if not (np.isfinite(coef).all() and np.isfinite(dcoef).all()):
        i = int(h.argmin())
        raise ValueError(f"sample spacing {h[i]:g} after t = {ts[i]:g} is too small: "
                         "the cubic interpolant's coefficients overflow")

    def power_sum(c, t):
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(ts[1:-1], t, side="right")     # the piece from node i
        s = z = t - ts.take(i)
        c = c.take(i, axis=-1)
        out = c[0] + c[1] * s
        for ck in c[2:]:
            z = z * s
            out = out + ck * z
        return out.transpose((*range(1, out.ndim), 0))

    return Curve(domain=(float(ts[0]), float(ts[-1])), n=n,
                 position=lambda t: power_sum(coef, t),
                 velocity=lambda t: power_sum(dcoef, t), name=name,
                 description="cubic interpolant of sampled data",
                 breaks=tuple(ts.tolist()))


# -- degrees -----------------------------------------------------------------


# a frame component counts toward the degree when |lam_j| > TOL_REL * |lam|:
# far above float rounding, far below any component a fixture or sampled
# curve carries away from its low-degree set
TOL_REL = 1e-8


def _degrees(law: GroupLaw, ts, pos, vel):
    """Frame coordinates of the velocities and the pointwise degrees.

    ``pos`` and ``vel`` have shape (..., n) over parameters ``ts`` of shape
    (...).  A component counts when |lam_j| > TOL_REL * |lam|; the degree
    is the largest layer with a counting component.  Frame coordinates
    that overflow, or whose norm does, are an error: no degree can be read
    from them.
    """
    still = ~vel.any(axis=-1)
    if still.any():
        raise ZeroVelocityError(f"velocity vanishes at t = {np.asarray(ts)[still][0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        lam = law.frame.coordinates(pos, vel)
        scale = np.sqrt((lam * lam).sum(axis=-1, keepdims=True))
    bad = ~np.isfinite(scale[..., 0])
    if bad.any():
        t = np.asarray(ts)[bad][0]
        if np.isfinite(lam[bad]).all():
            raise ValueError(f"the norm of the velocity's frame coordinates overflows at t = {t}")
        raise ValueError(f"frame coordinates of the velocity are not finite at t = {t}")
    degs = np.where(np.abs(lam) > TOL_REL * scale, law.degrees, 0).max(axis=-1)
    return lam, degs


def pointwise_degree(law: GroupLaw, curve: Curve, t: float) -> int:
    """Largest layer whose frame component of the velocity is non-negligible.

    A component counts when |lam_j| > TOL_REL * |lam|.  Zero velocity is an
    error: the degree of a point is defined through a nonvanishing tangent.
    """
    _, deg = _degrees(law, t, curve.position_at(t), curve.velocity_at(t))
    return int(deg)


@dataclass(frozen=True)
class DegreeProfile:
    grid: np.ndarray
    degrees: np.ndarray        # pointwise degree per grid point
    degree: int                # max over the grid = degree of the curve
    exponents: tuple           # d_j / degree for every coordinate
    low_degree_intervals: tuple  # maximal parameter intervals below full degree


def degree_profile(law: GroupLaw, curve: Curve, grid_points: int = 512) -> DegreeProfile:
    """Sample the degree along the curve and locate the low-degree set.

    Pointwise degrees count frame components above ``TOL_REL`` of the
    velocity's frame norm.  The low-degree set is reported as closed
    parameter intervals around grid runs of submaximal degree
    (``roots.intervals``), each end sharpened by bisection toward the
    neighboring grid point and reported on its low-degree side.  Features
    narrower than a grid cell that sit strictly between grid points can be
    missed, which is the usual resolution caveat of a sampled scan.
    """
    a, b = curve.domain
    inset = 1e-9 * curve.span()
    ts = np.linspace(a + inset, b - inset, grid_points + 1)
    _, degs = _degrees(law, ts, curve.positions(ts), curve.velocities(ts))
    top = int(degs.max())
    width = 1e-12 * curve.span()

    def low(t):
        return _degrees(law, t, curve.positions(t), curve.velocities(t))[1] < top

    intervals = roots.intervals(low, ts, degs < top, lambda lo, hi: width, 8)
    return DegreeProfile(grid=ts, degrees=degs, degree=top,
                         exponents=tuple(d / top for d in law.degrees),
                         low_degree_intervals=intervals)


# -- tangent projections ------------------------------------------------------


def tangent_projection(law: GroupLaw, curve: Curve, t: float, layer: int,
                       metric: str = METRIC_LEFT):
    """Layer part of the unit tangent, in frame coordinates.

    The velocity is normalized by its length under the chosen ambient
    metric, its frame coordinates are restricted to the requested layer,
    and the euclidean size of that block is returned alongside.
    """
    x = curve.position_at(t)
    v = curve.velocity_at(t)
    sp = speed(law.frame, x, v, metric)
    if sp == 0.0:
        raise ZeroVelocityError(f"velocity vanishes at t = {t}")
    lam = law.frame.coordinates(x, v) / sp
    sl = law.algebra.layer_slice(layer)
    proj = np.zeros_like(lam)
    proj[sl] = lam[sl]
    return FrameCoordinates(lam=proj, base_point=x), float(np.linalg.norm(proj[sl]))


# -- adapted bases -------------------------------------------------------------


@dataclass(frozen=True)
class AdaptedBasis:
    """Degree-preserving rotation that puts the dominant direction first.

    ``rotation`` columns are the new basis vectors in old coordinates; it
    is orthogonal and block diagonal across layers, so degrees are kept.
    ``i0`` is the 0-based index of the distinguished coordinate (the first
    slot of layer q).
    """

    rotation: np.ndarray
    q: int
    i0: int


def adapted_basis(law: GroupLaw, curve: Curve, t0: float, q: int) -> AdaptedBasis:
    """Rotate layer q so the translated tangent points along its first axis.

    Requires t0 to realize the full degree q: the layer-q block of the
    velocity in frame coordinates (equivalently, of the velocity of the
    curve translated to the identity) must not vanish.
    """
    alg = law.algebra
    if not 1 <= q <= alg.step:
        raise ValueError(f"layer {q} out of range")
    lam, deg = _degrees(law, t0, curve.position_at(t0), curve.velocity_at(t0))
    if deg != q:
        raise ValueError(f"t0 = {t0} does not have degree {q}; adapted basis undefined")
    sl = alg.layer_slice(q)
    block = lam[sl]
    u = block / np.linalg.norm(block)

    dim = sl.stop - sl.start
    m = np.eye(dim)
    m[:, 0] = u
    qmat, _ = np.linalg.qr(m)
    # qr may flip signs; force the first column to be u exactly
    if np.dot(qmat[:, 0], u) < 0:
        qmat[:, 0] = -qmat[:, 0]
    qmat[:, 0] = u
    # re-orthogonalize the remaining columns against the exact first column
    for c in range(1, dim):
        col = qmat[:, c]
        for prev in range(c):
            col = col - np.dot(qmat[:, prev], col) * qmat[:, prev]
        qmat[:, c] = col / np.linalg.norm(col)

    rot = np.eye(alg.n)
    rot[sl, sl] = qmat
    return AdaptedBasis(rotation=rot, q=q, i0=sl.start)


def adapted_structure_tensor(law: GroupLaw, basis: AdaptedBasis) -> np.ndarray:
    """Structure constants conjugated into the adapted basis (float).

    Because the rotation is block diagonal by layer, entries violating the
    grading rule stay identically zero; the Jacobi identity holds to
    rounding.
    """
    c = law.algebra.structure_tensor()
    r = basis.rotation
    return np.einsum("ia,jb,ijk,kc->abc", r, r, c, r)


# -- curve transforms ----------------------------------------------------------


def translate_curve(law: GroupLaw, z, curve: Curve) -> Curve:
    """Left translation t -> z * gamma(t), with the pushed-forward velocity."""
    z = np.asarray(z, dtype=float)

    def velocity(t):
        jac = law.left_jacobian(z, curve.positions(t))
        return np.einsum("...ij,...j->...i", jac, curve.velocities(t))

    return Curve(domain=curve.domain, n=curve.n,
                 position=lambda t: law.multiply(z, curve.positions(t)), velocity=velocity,
                 name=f"{curve.name}+translated" if curve.name else "translated",
                 description=curve.description, breaks=curve.breaks)


def dilate_curve(law: GroupLaw, s: float, curve: Curve) -> Curve:
    """Image under the dilation of factor s (an automorphism)."""
    if not s > 0:
        raise ValueError("dilation factor must be positive")
    weights = np.array([float(s) ** d for d in law.degrees])

    return Curve(domain=curve.domain, n=curve.n,
                 position=lambda t: curve.positions(t) * weights,
                 velocity=lambda t: curve.velocities(t) * weights,
                 name=f"{curve.name}+dilated" if curve.name else "dilated",
                 description=curve.description, breaks=curve.breaks)


def linear_image_curve(m: np.ndarray, curve: Curve) -> Curve:
    """Image under a linear coordinate map (meant for graded isometries)."""
    m = np.asarray(m, dtype=float)

    return Curve(domain=curve.domain, n=curve.n,
                 position=lambda t: curve.positions(t) @ m.T,
                 velocity=lambda t: curve.velocities(t) @ m.T,
                 name=f"{curve.name}+mapped" if curve.name else "mapped",
                 description=curve.description, breaks=curve.breaks)


def recentered_curve(law: GroupLaw, curve: Curve, t0: float,
                     rotation: np.ndarray | None = None) -> Curve:
    """The curve seen from gamma(t0): h -> R^T (gamma(t0)^-1 * gamma(t0+h)).

    This is the normal form used by the local estimates; the origin of the
    new parameter h is the old t0: translate, map by R^T, shift by t0.
    """
    moved = translate_curve(law, -curve.position_at(t0), curve)
    if rotation is not None:
        moved = linear_image_curve(np.asarray(rotation, dtype=float).T, moved)
    a, b = curve.domain
    return Curve(domain=(a - t0, b - t0), n=curve.n,
                 position=lambda h: moved.positions(np.add(h, t0)),
                 velocity=lambda h: moved.velocities(np.add(h, t0)),
                 name=f"{curve.name}@{t0}" if curve.name else "recentered",
                 description=curve.description, breaks=tuple(p - t0 for p in curve.breaks))


# -- little-o slope checks ------------------------------------------------------


@dataclass(frozen=True)
class SlopeRow:
    index: int          # 0-based coordinate
    degree: int
    target: float       # required power of |h|
    slope: float        # fitted log-log slope (inf when vacuous)
    points: int         # samples used in the fit
    vacuous: bool       # coordinate identically zero on the schedule
    excluded: bool      # the distinguished coordinate in max-degree mode
    passed: bool


@dataclass(frozen=True)
class LittleOReport:
    t0: float
    q: int
    mode: str           # "max-degree" or "low-degree"
    i0: int | None
    margin: float
    rows: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def little_o_check(law: GroupLaw, curve: Curve, t0: float, q: int,
                   basis: AdaptedBasis | None = None) -> LittleOReport:
    """Fit decay rates of the recentered coordinates against graded targets.

    With an adapted ``basis`` (max-degree mode) every coordinate except the
    distinguished one must decay strictly faster than |h|^(d_i / q); at a
    point of submaximal degree (``basis`` None, low-degree mode) every
    coordinate must beat |h|^(d_j / q) where q is the degree of the curve.
    The schedule is fixed: h = 0.1 * 2^-k for k = 0..20, on both sides of
    t0 where the domain allows, and each level keeps the larger |value| of
    its two sides.  A pass requires the fitted slope to exceed the target
    by the report's ``margin`` of 0.05.  Coordinates that vanish
    identically on the schedule pass vacuously with slope +inf.
    """
    deg_here = pointwise_degree(law, curve, t0)
    if basis is not None:
        mode = "max-degree"
        if deg_here != q:
            raise ValueError(f"t0 = {t0} has degree {deg_here}, not the full degree {q}")
        rot, i0 = basis.rotation, basis.i0
    else:
        mode = "low-degree"
        if deg_here >= q:
            raise ValueError(
                f"t0 = {t0} has full degree {deg_here}; the low-degree bound does not apply")
        rot, i0 = None, None

    local = recentered_curve(law, curve, t0, rotation=rot)
    hs = 0.1 * 0.5 ** np.arange(21)
    a, b = local.domain
    guard = 1e-9 * curve.span()
    right, left = hs < b - guard, -hs > a + guard

    vals = np.zeros((len(hs), curve.n))
    vals[right] = np.abs(local.positions(hs[right]))
    vals[left] = np.maximum(vals[left], np.abs(local.positions(-hs[left])))
    used = right | left
    margin = 0.05

    rows = []
    logh = np.log(hs[used])
    for i in range(curve.n):
        target = law.degrees[i] / q
        excluded = mode == "max-degree" and i == i0
        v = vals[used, i]
        keep = v > 1e-250
        pts = int(np.sum(keep))
        if pts < 3:
            # none or too few nonzero samples to fit; vacuous rather than a guess
            rows.append(SlopeRow(i, law.degrees[i], target, float("inf"), pts,
                                 True, excluded, True))
            continue
        slope = float(np.polyfit(logh[keep], np.log(v[keep]), 1)[0])
        passed = excluded or slope >= target + margin
        rows.append(SlopeRow(i, law.degrees[i], target, slope, pts,
                             False, excluded, passed))
    return LittleOReport(t0=t0, q=q, mode=mode, i0=i0, margin=margin, rows=tuple(rows))
