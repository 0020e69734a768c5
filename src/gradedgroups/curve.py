"""C1 curves in exponential coordinates and their degree theory.

A curve is a piecewise-polynomial coefficient table (``pieces``) over an
open parameter domain, its positions and velocities evaluated on the
table with numpy (no generated evaluators); :func:`polynomial_curve`
builds every curve, fixture or sampled, and every translation,
dilation, linear image and recentering maps the table.  The pointwise
degree at t is the largest layer the velocity touches when written in
the left-invariant frame; the degree
of the curve is the maximum over a parameter grid, and parameters
realizing a smaller degree form the low-degree set, found as runs of
polynomial inequalities in the frame coordinates, which are polynomials
on each piece of the table.  Near a point of
maximal degree one distinguished coordinate dominates; the adapted
basis rotates the top layer so that coordinate comes first, and the
little-o check fits log-log slopes of the translated coordinates
against the graded targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import roots
from .frame import METRIC_LEFT, speed
from .group import DimensionMismatch, GroupLaw


class ZeroVelocityError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Curve:
    """Piecewise-polynomial curve: its coefficient table, evaluated with numpy.

    ``pieces`` is the table (coef, breaks, origins) of a
    :func:`polynomial_curve`, read-only arrays; build curves through that
    function, which validates the table.  The dimension ``n`` and the
    ``breaks`` (the parameters where the velocity may kink; the integrals
    split there) are derived from the table, as is the velocity's table
    and the powers each table uses, once.  ``positions`` and
    ``velocities`` take an array of parameters of shape (...) and return
    an array of shape (..., n); ``position_at`` and ``velocity_at`` read
    one parameter as shape (n,).  The domain is an
    open interval; operations clip slightly inside it.  Curves compare and
    hash by identity: two curves on the same nodes are still two curves.
    """

    domain: tuple
    pieces: tuple = field(repr=False)
    name: str = ""
    description: str = ""
    n: int = field(init=False)
    breaks: tuple = field(init=False)
    _tables: tuple = field(init=False, repr=False)

    def __post_init__(self):
        coef, breaks, _ = self.pieces
        object.__setattr__(self, "n", coef.shape[1])
        object.__setattr__(self, "breaks", tuple(breaks.tolist()))
        # the position's and the velocity's table, each with its terms (_evaluate)
        object.__setattr__(self, "_tables", tuple(
            (table, [np.flatnonzero(row).tolist() for row in table.any(axis=2).T])
            for table in (coef, _derivative(coef))))

    def position_at(self, t: float) -> np.ndarray:
        return self.positions(float(t))

    def velocity_at(self, t: float) -> np.ndarray:
        return self.velocities(float(t))

    def positions(self, ts) -> np.ndarray:
        return _evaluate(*self._tables[0], *self.pieces[1:], ts)

    def velocities(self, ts) -> np.ndarray:
        return _evaluate(*self._tables[1], *self.pieces[1:], ts)

    def span(self) -> float:
        return self.domain[1] - self.domain[0]


def _derivative(coef: np.ndarray) -> np.ndarray:
    """Coefficient table of the derivative: k c_k, one power lower."""
    with np.errstate(over="ignore", invalid="ignore"):
        return coef[1:] * np.arange(1.0, len(coef))[:, None, None]


def _evaluate(coef: np.ndarray, terms: list, breaks: np.ndarray, origins: np.ndarray,
              ts) -> np.ndarray:
    """Values of shape ts.shape + (n,) of one coefficient table at the parameters ts.

    ``terms[j]`` lists the powers k whose coefficient of coordinate j is
    nonzero on some piece.  Per coordinate the terms c_k s^k are summed
    in ascending k, the powers formed as s^k = s^(k-1) * s; the terms left
    out are zero, so a power that overflows never meets a zero coefficient.
    """
    t = np.asarray(ts, dtype=float)
    i = np.searchsorted(breaks, t, side="right")
    c, s = coef.take(i, axis=2), t - origins.take(i)
    powers = [None, s]
    for _ in range(2, max((row[-1] for row in terms if row), default=0) + 1):
        powers.append(powers[-1] * s)
    out = np.empty((len(terms),) + t.shape)
    for j, row in enumerate(terms):
        parts = [c[k, j] * powers[k] if k else c[0, j] for k in row]
        out[j] = sum(parts[1:], parts[0]) if parts else 0.0
    return out.transpose((*range(1, t.ndim + 1), 0))


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
    if not (np.isfinite(coef).all() and np.isfinite(_derivative(coef)).all()):
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
    return Curve(domain=(a, b), pieces=(coef, breaks, origins), name=name,
                 description=description)


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


def curve_degree(law: GroupLaw, curve: Curve, grid_points: int = 512) -> int:
    """The curve's degree, as :func:`degree_profile` reads it without the
    low-degree set; it raises where :func:`_degrees` does."""
    ts = np.linspace(*curve.domain, grid_points + 1)
    return int(_degrees(law, ts, curve.positions(ts), curve.velocities(ts))[1].max())


def degree_profile(law: GroupLaw, curve: Curve, grid_points: int = 512) -> DegreeProfile:
    """Degrees on a grid, and the low-degree set on the table.

    Pointwise degrees count frame components above ``TOL_REL`` of the
    velocity's frame norm; the curve's degree is their maximum over
    ``grid_points + 1`` even steps, domain ends included.  The low-degree
    set is the runs where lam_j^2 <= TOL_REL^2 |lam|^2 for every j of the
    layers >= the degree (``roots.table_runs``, ends to 1e-12 * span), lam
    the s^1 column of gamma(t)^-1 * gamma(t + s) folded on the anchor rows.
    """
    ts = np.linspace(*curve.domain, grid_points + 1)
    _, degs = _degrees(law, ts, curve.positions(ts), curve.velocities(ts))
    top = int(degs.max())

    lam = [z[:, 1] for z in law.divide_rows(*_anchor_rows(curve.pieces, 0))]
    # scaled per piece, which scales each inequality by a positive square,
    # so that the squares of a very slow or very fast curve stay in range
    size = np.max([np.abs(c).max(axis=0) for c in lam], axis=0)
    lam = [c / np.where(size > 0, size, 1.0) for c in lam]
    squares = _squares([[c] for c, d in zip(lam, law.degrees) if d >= top] + [lam])
    width = 1e-12 * curve.span()
    intervals = roots.table_runs(squares[:-1] - TOL_REL ** 2 * squares[-1], curve.domain,
                                 curve.breaks, curve.pieces[2], lambda t: width)
    return DegreeProfile(grid=ts, degrees=degs, degree=top,
                         exponents=tuple(d / top for d in law.degrees),
                         low_degree_intervals=tuple(intervals))


def _squares(groups: list) -> np.ndarray:
    """Sums of squares of polynomial tables (powers, pieces), one per group."""
    size = 2 * max(len(r) for g in groups for r in g) - 1
    out = np.zeros((len(groups), size, groups[0][0].shape[1]))
    for row, g in zip(out, groups):
        for r in g:
            for i, c in enumerate(r):
                row[i:i + len(r)] += c * r
    return out


# -- tangent projections ------------------------------------------------------


def tangent_projection(law: GroupLaw, curve: Curve, t: float, layer: int,
                       metric: str = METRIC_LEFT):
    """(proj, mag): the layer part of the unit tangent, in frame coordinates.

    The velocity is normalized by its length under the chosen ambient
    metric, and its frame coordinates outside the requested layer are set
    to 0: proj is that array of length n.  mag is the euclidean size of
    the layer's block.
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
    return proj, float(np.linalg.norm(proj[sl]))


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


# -- curve transforms ----------------------------------------------------------


def translate_curve(law: GroupLaw, z, curve: Curve) -> Curve:
    """Left translation t -> z * gamma(t), with the pushed-forward velocity.

    The coefficient table is translated row by row, z * y being (-z)^-1 * y
    (``law.divide_rows`` with constant rows -z), and built again by
    :func:`polynomial_curve`.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (curve.n,):
        raise DimensionMismatch(f"translation must have shape ({curve.n},), got {z.shape}")
    name = f"{curve.name}+translated" if curve.name else "translated"
    coef, breaks, origins = curve.pieces
    rows = law.divide_rows([np.full((1, 1, coef.shape[2]), -c) for c in z],
                           [coef[None, :, j] for j in range(curve.n)])
    moved = np.zeros((max(r.shape[1] for r in rows),) + coef.shape[1:])
    for j, r in enumerate(rows):
        moved[:r.shape[1], j] = r[0]
    return polynomial_curve(moved, curve.domain, breaks, origins, name=name,
                            description=curve.description)


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
        y = np.array(roots.taylor_shift(coef[:, :, d:], breaks[d - 1:] - origins[d:]))[None]
    return [coef[:, None, j, :count] for j in range(n)], [y[:, :, j] for j in range(n)]


def _mapped(curve: Curve, m: np.ndarray, suffix: str) -> Curve:
    """The curve's image under the coordinate map y -> m y.

    The coefficient table is mapped row by row and built again by
    :func:`polynomial_curve`.
    """
    name = f"{curve.name}+{suffix}" if curve.name else suffix
    coef, breaks, origins = curve.pieces
    return polynomial_curve(np.einsum("ij,kjm->kim", m, coef), curve.domain, breaks,
                            origins, name=name, description=curve.description)


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
    new parameter h is the old t0: translate, map by R^T, shift by t0.  The
    coefficient table is kept: the shift moves its domain, breaks and
    origins.
    """
    moved = translate_curve(law, -curve.position_at(t0), curve)
    if rotation is not None:
        moved = linear_image_curve(np.asarray(rotation, dtype=float).T, moved)
    a, b = curve.domain
    name = f"{curve.name}@{t0}" if curve.name else "recentered"
    coef, breaks, origins = moved.pieces
    return polynomial_curve(coef, (a - t0, b - t0), breaks - t0, origins - t0, name=name,
                            description=curve.description)


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
