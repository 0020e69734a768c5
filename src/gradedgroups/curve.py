"""C1 curves in exponential coordinates and their degree theory.

A curve carries its open parameter domain and position/velocity
callables; every curve the package builds, fixture or sampled, comes
from a ``polynomial_curve`` coefficient table, which the curve keeps as
``pieces`` (so do its translations, dilations, linear images and
recenterings).  The pointwise degree at t is the largest layer the
velocity touches when written in the left-invariant frame; the degree
of the curve is the maximum over a parameter grid, and parameters
realizing a smaller degree form the low-degree set.  Near a point of
maximal degree one distinguished coordinate dominates; the adapted
basis rotates the top layer so that coordinate comes first, and the
little-o check fits log-log slopes of the translated coordinates
against the graded targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import roots
from .frame import FrameCoordinates, METRIC_LEFT, speed
from .group import DimensionMismatch, GroupLaw


class ZeroVelocityError(ValueError):
    pass


@dataclass(frozen=True)
class Curve:
    """Parametrized curve with explicit velocity.

    position/velocity are callables, generated by :func:`polynomial_curve`
    or written by hand, that take an ndarray of parameters of shape (...)
    and return an array of shape (..., n), one point per parameter.
    ``positions``/``velocities`` raise ValueError when a callable returns
    any other shape.  ``position_at``/``velocity_at`` read one parameter
    through them, as shape (), so a point of any shape but (n,) is refused
    too.  The domain is an open interval; operations clip slightly inside
    it.  ``breaks`` lists the parameters where the velocity may kink; the
    integrals split there.

    ``pieces`` is the coefficient table (coef, breaks, origins) of a
    :func:`polynomial_curve`, read-only arrays, and None for a curve built
    from callables alone (by hand, or by a transform of such a curve).  The
    covering walk solves its reaches on the table where there is one.
    """

    domain: tuple
    n: int
    position: Callable
    velocity: Callable
    name: str = ""
    description: str = ""
    breaks: tuple = ()
    pieces: tuple | None = field(default=None, compare=False, repr=False)

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


def _derivative(coef: np.ndarray) -> np.ndarray:
    """Coefficient table of the derivative: k c_k, one power lower."""
    with np.errstate(over="ignore", invalid="ignore"):
        return coef[1:] * np.arange(1.0, len(coef))[:, None, None]


def _evaluator(coef: np.ndarray, breaks: np.ndarray, origins: np.ndarray) -> Callable:
    """Generated ``f(t)`` of shape t.shape + (n,) for one coefficient table.

    Per coordinate the terms c_k s^k are summed in ascending k, the powers
    formed as z_k = z_(k-1) * s.  A term zero on every piece is dropped, a
    coefficient equal on every piece is a literal (1.0 is left out), and
    the others are read from a per-piece table, all by one gather per call.
    """
    rows, columns, top = [], [], 0
    for j in range(coef.shape[1]):
        parts = []
        for k, c in enumerate(coef[:, j]):
            if not c.any():
                continue
            lead = repr(float(c[0]))
            if (c != c[0]).any():
                lead = f"c[{len(rows)}]"
                rows.append(c)
            power = "s" if k == 1 else f"z{k}"
            parts.append(lead if k == 0 else power if lead == "1.0" else f"{lead} * {power}")
            top = max(top, k)
        columns.append(" + ".join(parts) or "0.0")

    shifted = (origins != origins[0]).any()
    lines = ["t = np.asarray(t, dtype=float)"]
    if rows or (shifted and top):
        lines.append('i = np.searchsorted(breaks, t, side="right")')
    if rows:
        lines.append("c = table.take(i, axis=1)")
    if top:
        lines.append("s = t - origins.take(i)" if shifted
                     else f"s = t - {float(origins[0])!r}" if origins[0] else "s = t")
    lines += [f"z{k} = {'s' if k == 2 else f'z{k - 1}'} * s" for k in range(2, top + 1)]
    lines.append("out = np.empty((n,) + t.shape)")
    lines += [f"out[{j}] = {col}" for j, col in enumerate(columns)]
    lines.append("return out.transpose((*range(1, t.ndim + 1), 0))")
    scope = {"np": np, "n": len(columns), "breaks": breaks, "origins": origins,
             "table": np.array(rows)}
    exec("def f(t):\n" + "".join(f"    {line}\n" for line in lines), scope)  # noqa: S102
    return scope["f"]


def polynomial_curve(coef, domain, breaks=(), origins=None, name: str = "",
                     description: str = "") -> Curve:
    """Piecewise-polynomial curve from its coefficient table.

    ``coef`` has shape (p+1, n, pieces): on piece m, coordinate j is the
    sum of coef[k, j, m] s^k in s = t - origins[m] (origins default to 0).
    The interior ``breaks`` choose the piece by ``searchsorted(...,
    side="right")``, so a break starts the piece after it, and the end
    pieces extend outward.  The velocity is the table's derivative k c_k.
    Malformed input raises ValueError.
    """
    coef = np.array(coef, dtype=float)
    if coef.ndim != 3 or 0 in coef.shape:
        raise ValueError(f"coefficient table must have shape (p+1, n, pieces), got {coef.shape}")
    dcoef = _derivative(coef)
    if not (np.isfinite(coef).all() and np.isfinite(dcoef).all()):
        raise ValueError("coefficient table or its derivative is not finite")
    pieces = coef.shape[2]
    origins = np.zeros(pieces) if origins is None else np.array(origins, dtype=float)
    if origins.shape != (pieces,) or not np.isfinite(origins).all():
        raise ValueError(f"need {pieces} finite origins, one per piece, got {origins.tolist()}")
    a, b = map(float, domain)
    breaks = np.array(breaks, dtype=float)
    if (breaks.shape != (pieces - 1,) or not np.isfinite([a, b]).all()
            or not np.all(np.diff([a, *breaks, b]) > 0)):
        raise ValueError(f"{pieces} pieces need {pieces - 1} breaks increasing strictly inside "
                         f"a finite domain a < b, got {breaks.tolist()} in ({a}, {b})")
    for table in (coef, breaks, origins):
        table.flags.writeable = False
    return Curve(domain=(a, b), n=coef.shape[1], position=_evaluator(coef, breaks, origins),
                 velocity=_evaluator(dcoef, breaks, origins), name=name,
                 description=description, breaks=tuple(breaks.tolist()),
                 pieces=(coef, breaks, origins))


def curve_from_samples(samples, n: int, name: str = "") -> Curve:
    """Cubic interpolation through (t, position, velocity) samples.

    The velocities are honored exactly at the nodes (piecewise cubic
    Hermite), which keeps the interpolant C1.  From node t_i on, the
    position is c0 + c1 s + c2 s^2 + c3 s^3 in s = t - t_i, one piece of a
    :func:`polynomial_curve`.  Non-finite samples, and spacings so small
    that the coefficients overflow, raise ValueError.
    """
    ts = np.asarray([s["t"] for s in samples], dtype=float)
    pos = np.asarray([s["position"] for s in samples], dtype=float)
    vel = np.asarray([s["velocity"] for s in samples], dtype=float)
    if ts.ndim != 1 or len(ts) < 2 or pos.shape != (len(ts), n) or vel.shape != pos.shape:
        raise ValueError("need two or more samples of matching dimension")
    for what, values in (("t", ts[:, None]), ("position", pos), ("velocity", vel)):
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if len(bad):
            raise ValueError(f"sample {bad[0]} (t = {ts[bad[0]]:g}) has a non-finite {what}")
    h = np.diff(ts)
    if not np.all(h > 0):
        raise ValueError("sample parameters must be strictly increasing")
    p, v = pos.T, vel.T         # one row per coordinate
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        slope = np.diff(p) / h
        cubic = (v[:, :-1] + v[:, 1:] - 2 * slope) / h
        coef = np.stack((p[:, :-1], v[:, :-1], (slope - v[:, :-1]) / h - cubic, cubic / h))
    if not (np.isfinite(coef).all() and np.isfinite(_derivative(coef)).all()):
        i = int(h.argmin())
        raise ValueError(f"sample spacing {h[i]:g} after t = {ts[i]:g} is too small: "
                         "the cubic interpolant's coefficients overflow")
    return polynomial_curve(coef, (ts[0], ts[-1]), ts[1:-1], ts[:-1], name=name,
                            description="cubic interpolant of sampled data")


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
    """Left translation t -> z * gamma(t), with the pushed-forward velocity.

    A coefficient table is translated row by row, z * y being (-z)^-1 * y
    (``law.divide_rows`` with constant rows -z), and built again by
    :func:`polynomial_curve`; callables are wrapped.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (curve.n,):
        raise DimensionMismatch(f"translation must have shape ({curve.n},), got {z.shape}")
    name = f"{curve.name}+translated" if curve.name else "translated"
    if curve.pieces is not None:
        coef, breaks, origins = curve.pieces
        rows = law.divide_rows([np.full((1, 1, coef.shape[2]), -c) for c in z],
                               [coef[None, :, j] for j in range(curve.n)])
        moved = np.zeros((max(r.shape[1] for r in rows),) + coef.shape[1:])
        for j, r in enumerate(rows):
            moved[:r.shape[1], j] = r[0]
        return polynomial_curve(moved, curve.domain, breaks, origins, name=name,
                                description=curve.description)

    def velocity(t):
        jac = law.left_jacobian(z, curve.positions(t))
        return np.einsum("...ij,...j->...i", jac, curve.velocities(t))

    return Curve(domain=curve.domain, n=curve.n,
                 position=lambda t: law.multiply(z, curve.positions(t)), velocity=velocity,
                 name=name, description=curve.description, breaks=curve.breaks)


def _anchor_rows(pieces: tuple, d: int) -> tuple:
    """Rows (x, y) of an anchor on each piece m and of the path along piece m + d.

    As polynomial rows in (u, s) (``GroupLaw.divide_rows``), one entry per
    piece m on the last axis: x[j] is coordinate j of the anchor u past the
    origin of piece m, and y[j] that of the path s past the anchor for
    d = 0 (coef[a + b] C(a + b, a) at u^a s^b), or s past the first
    parameter of piece m + d otherwise (a Taylor shift of that piece).
    """
    coef, breaks, origins = pieces
    top, n, count = coef.shape[0] - 1, coef.shape[1], coef.shape[2] - d
    if d == 0:
        ab = np.add.outer(np.arange(top + 1), np.arange(top + 1))
        binom = np.array([[math.comb(a + b, a) if a + b <= top else 0
                           for b in range(top + 1)] for a in range(top + 1)], dtype=float)
        y = binom[:, :, None, None] * coef[np.minimum(ab, top)]
    else:
        y = np.array(roots.taylor_shift(coef[:, :, d:].copy(), breaks[d - 1:] - origins[d:]))[None]
    return [coef[:, None, j, :count] for j in range(n)], [y[:, :, j] for j in range(n)]


def _mapped(curve: Curve, m: np.ndarray, suffix: str) -> Curve:
    """The curve's image under the coordinate map y -> m y.

    A coefficient table is mapped row by row and built again by
    :func:`polynomial_curve`; callables are wrapped.
    """
    name = f"{curve.name}+{suffix}" if curve.name else suffix
    if curve.pieces is not None:
        coef, breaks, origins = curve.pieces
        return polynomial_curve(np.einsum("ij,kjm->kim", m, coef), curve.domain, breaks,
                                origins, name=name, description=curve.description)
    return Curve(domain=curve.domain, n=curve.n,
                 position=lambda t: curve.positions(t) @ m.T,
                 velocity=lambda t: curve.velocities(t) @ m.T,
                 name=name, description=curve.description, breaks=curve.breaks)


def dilate_curve(law: GroupLaw, s: float, curve: Curve) -> Curve:
    """Image under the dilation of factor s (an automorphism)."""
    if not s > 0:
        raise ValueError("dilation factor must be positive")
    return _mapped(curve, np.diag([float(s) ** d for d in law.degrees]), "dilated")


def linear_image_curve(m: np.ndarray, curve: Curve) -> Curve:
    """Image under a linear coordinate map (meant for graded isometries)."""
    return _mapped(curve, np.asarray(m, dtype=float), "mapped")


def recentered_curve(law: GroupLaw, curve: Curve, t0: float,
                     rotation: np.ndarray | None = None) -> Curve:
    """The curve seen from gamma(t0): h -> R^T (gamma(t0)^-1 * gamma(t0+h)).

    This is the normal form used by the local estimates; the origin of the
    new parameter h is the old t0: translate, map by R^T, shift by t0.  A
    coefficient table is kept: the shift moves its domain, breaks and
    origins.
    """
    moved = translate_curve(law, -curve.position_at(t0), curve)
    if rotation is not None:
        moved = linear_image_curve(np.asarray(rotation, dtype=float).T, moved)
    a, b = curve.domain
    name = f"{curve.name}@{t0}" if curve.name else "recentered"
    if moved.pieces is not None:
        coef, breaks, origins = moved.pieces
        return polynomial_curve(coef, (a - t0, b - t0), breaks - t0, origins - t0, name=name,
                                description=curve.description)
    return Curve(domain=(a - t0, b - t0), n=curve.n,
                 position=lambda h: moved.positions(np.add(h, t0)),
                 velocity=lambda h: moved.velocities(np.add(h, t0)),
                 name=name, description=curve.description,
                 breaks=tuple(p - t0 for p in curve.breaks))


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
