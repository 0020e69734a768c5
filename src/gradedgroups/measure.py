"""Numerical measures of curves: lengths, ball intersections, blow-ups,
covering estimates and the resulting area-formula diagnostics.

Conventions.  The 1-d measure of a curve piece under an ambient metric
("left" for the metric that makes the frame orthonormal, "euclidean"
for the coordinate metric) is the integral of the corresponding speed.
Integrals go through :func:`quad`: Gauss-Legendre panels, split at the
curve's breaks, each round of them evaluated in one batched call; the
rules are built by the first integral and kept for the process.
Parameter sets cut out by balls are the maximal runs where the ball's
polynomials from the distance (``HomogeneousDistance.ball_around``) are
<= 0 on each piece of the curve's table (``roots.table_runs``): every
component is found, however narrow, and the one through the center is
kept even below the width its ends are solved to.

Spherical-measure upper bounds come from a greedy walk: at the first
uncovered parameter, a ball of the current radius is centered as far
ahead along the curve as possible while still covering that parameter,
and the walk jumps past the covered component.  The reported value is
sum(r^q) over the balls placed.  Along each piece of the curve's table
(``Curve.pieces``), the ball around the anchor is where a few polynomials
in the parameter are <= 0 (``HomogeneousDistance.membership``, read off
anchor tables by Horner in the anchor's offset), and a reach is their
first exit: predicted by Newton steps from the walk's last step, then
[anchor, exit] certified by the Bernstein coefficients of every
polynomial, or else searched for an earlier exit (``roots.first_exit``)
where the certificate is refused, in place.  So no excursion out of a
ball between its anchor and the exit goes unseen.  The walk over an
interval is one call of a function generated per anchor table, with
both reaches of a ball inline, and a reach with no exit on the anchor's
piece goes on with the generated reach of each later piece's table.

The two reaches of a ball place the parameters from the first uncovered
one t up to the center in the ball around gamma(t), and those from the
center to the edge in the center's ball.  That (t, center) lies in the
center's ball as well is assumed, not checked; it holds where the
distance from the center grows away from it along the curve, as on a
curve that does not double back within a ball.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import roots
from .curve import Curve, curve_degree, degree_profile, pointwise_degree, tangent_projection
from .frame import METRIC_EUCLIDEAN, METRIC_LEFT, _check_metric, speed
from .metric import HomogeneousDistance, _power, degree_constant, metric_factor
from .roots import NumericalResolutionError


# -- integrals and lengths ---------------------------------------------------------

# nodes, then weights, of the Gauss-Legendre rules of ``quad``, once it has built them
_RULES = []
# panels per initial panel: a kink left out of ``points`` takes about 40 to
# meet 1e-9, a non-integrable singularity is refused long before float spacing
QUAD_BUDGET = 100


def quad(f: Callable, a: float, b: float, epsabs: float, epsrel: float,
         points: Sequence[float] = ()) -> float:
    """Integral of the batched f over [a, b], split at the ``points`` inside it.

    Each round calls f once, on the nodes of a 10- and a 20-point Gauss-Legendre
    rule on every open panel.  A panel whose two rules differ by at most its
    length's share of max(epsabs, epsrel * |I|), I the current estimate of the
    whole, takes its 20-point value; the others are halved.  An empty interval
    gives 0.0.  Past ``QUAD_BUDGET`` panels per initial panel, or where f is not
    finite, raises NumericalResolutionError.
    """
    if not a < b:
        return 0.0
    if not _RULES:
        (x10, w10), (x20, w20) = (np.polynomial.legendre.leggauss(k) for k in (10, 20))
        _RULES.extend((np.concatenate((x10, x20)), w10, w20))
    nodes, w10, w20 = _RULES        # the 10-point rule checks the 20-point one
    lo = np.array([a, *sorted({p for p in points if a < p < b})], dtype=float)
    hi = np.append(lo[1:], b)
    budget, accepted = QUAD_BUDGET * lo.size, []
    while lo.size:
        budget -= lo.size
        if budget < 0:
            raise NumericalResolutionError(f"integral over [{a}, {b}] not resolved "
                                           f"within {QUAD_BUDGET} panels per piece")
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        ys = np.reshape(f((mid[:, None] + half[:, None] * nodes).ravel()), (lo.size, -1))
        if not np.isfinite(ys).all():
            raise NumericalResolutionError(f"integrand not finite on [{a}, {b}]")
        coarse, fine = half * (ys[:, :10] @ w10), half * (ys[:, 10:] @ w20)
        total = abs(math.fsum(accepted) + float(fine.sum()))
        ok = np.abs(fine - coarse) <= (hi - lo) / (b - a) * max(epsabs, epsrel * total)
        accepted.extend(fine[ok].tolist())
        lo, mid, hi = lo[~ok], mid[~ok], hi[~ok]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    return math.fsum(accepted)


def riemannian_length(law, curve: Curve, interval=None, metric: str = METRIC_LEFT) -> float:
    """Length of the curve over one parameter interval: :func:`quad` of the
    speed to 1e-9 absolute or relative, split at the curve's breaks."""
    _check_metric(metric)
    a, b = curve.domain if interval is None else interval
    frame = law.frame

    def integrand(t):
        return speed(frame, curve.positions(t), curve.velocities(t), metric)

    return quad(integrand, a, b, 1e-9, 1e-9, curve.breaks)


def _length_over_intervals(law, curve, intervals, metric) -> float:
    return sum(riemannian_length(law, curve, iv, metric) for iv in intervals)


# -- parameter sets cut out by balls --------------------------------------------


@dataclass(frozen=True)
class BallIntersection:
    measure: float
    intervals: tuple          # disjoint parameter intervals inside the ball
    truncated: bool           # the set touches a domain endpoint
    radius: float
    center_parameter: float


def ball_param_set(dist: HomogeneousDistance, curve: Curve, t0: float, r: float):
    """Parameter set {t : d(gamma(t0), gamma(t)) <= r} as closed intervals.

    The maximal runs where every membership polynomial of the ball around
    gamma(t0) (``HomogeneousDistance.ball_around``) is <= 0, found by
    ``roots.table_runs`` with ends solved to 1e-15 * max(1, |t|).  Every
    component is found, however narrow, save one narrower than that; the
    one through t0 is then the point (t0, t0).  Open and closed balls
    differ on a measure-zero boundary.  A radius whose weights overflow
    raises NumericalResolutionError.  Returns (intervals, truncated).
    """
    a, b = curve.domain
    if not a < t0 < b:
        raise ValueError(f"center parameter {t0} outside the open domain")
    if not r > 0:
        raise ValueError(f"radius {r} is not positive")
    polys, origins = dist.ball_around(curve, t0, r)
    found = roots.table_runs(polys, curve.domain, curve.breaks, origins,
                             lambda t: 1e-15 * max(1.0, abs(t)))
    if not any(lo <= t0 <= hi for lo, hi in found):
        bisect.insort(found, (t0, t0))
    truncated = found[0][0] <= a + 1e-12 * (b - a) or found[-1][1] >= b - 1e-12 * (b - a)
    return tuple(found), truncated


def ball_intersection_measure(dist: HomogeneousDistance, curve: Curve, t0: float,
                              r: float, metric: str = METRIC_EUCLIDEAN) -> BallIntersection:
    """Measure of the curve piece inside the ball around gamma(t0); a component
    through t0 of length 0 raises NumericalResolutionError, not a measure of 0."""
    intervals, truncated = ball_param_set(dist, curve, t0, r)
    if (t0, t0) in intervals:
        raise NumericalResolutionError(
            f"the ball of radius {r} around t = {t0} is below the parameter's resolution")
    total = _length_over_intervals(dist.law, curve, intervals, metric)
    return BallIntersection(measure=total, intervals=intervals, truncated=truncated,
                            radius=r, center_parameter=t0)


# -- blow-up and divergence ------------------------------------------------------


@dataclass(frozen=True)
class BlowupReport:
    """Blow-up ratios along a radius schedule.

    Ball measures are lengths to 1e-9 (:func:`riemannian_length`) between
    ball edges solved to 1e-15 in the parameter, so a ``diagnostic`` below
    about 2e-15 / (predicted * r^q) at the last radius r is resolution
    noise: about 1e-9 for the vertical line at r = 2^-10.  Ball sets have
    no self-distance floor (gamma(t0)^-1 * gamma(t0) is folded as exactly
    0), on step-3 groups too; a radius whose set around t0 is narrower
    than its ends' resolution raises NumericalResolutionError.
    """

    t0: float
    q: int
    radii: tuple
    ratios: tuple              # measure / r^q per radius
    predicted: float           # metric factor over the size of the top projection
    diagnostic: float          # relative gap of the last ratio to the prediction
    truncated: bool


def blowup_sequence(dist: HomogeneousDistance, curve: Curve, t0: float,
                    radii: Sequence[float], metric: str = METRIC_EUCLIDEAN) -> BlowupReport:
    """Ratios measure(ball r) / r^q against the predicted density.

    q is the degree of the curve.  Only defined where the curve realizes
    it; at other points the ratio diverges and :func:`density_divergence`
    applies.  An empty radius schedule raises ValueError, and a radius
    whose r^q overflows or underflows to 0 NumericalResolutionError.
    """
    radii = tuple(radii)
    if not radii:
        raise ValueError("cannot take blow-up ratios over an empty radius schedule")
    law = dist.law
    q = curve_degree(law, curve)
    if pointwise_degree(law, curve, t0) != q:
        raise ValueError(
            f"t0 = {t0} does not realize the curve degree {q}; blow-up undefined here")

    proj, mag = tangent_projection(law, curve, t0, q, metric)
    predicted = metric_factor(dist, proj) / mag

    balls = [ball_intersection_measure(dist, curve, t0, r, metric) for r in radii]
    ratios = tuple(bi.measure / _power(r, q, "r") for bi, r in zip(balls, radii))
    truncated = any(bi.truncated for bi in balls)
    diagnostic = abs(ratios[-1] - predicted) / predicted
    return BlowupReport(t0=t0, q=q, radii=tuple(float(r) for r in radii),
                        ratios=ratios, predicted=predicted,
                        diagnostic=diagnostic, truncated=truncated)


@dataclass(frozen=True)
class DivergenceReport:
    t0: float
    q: int
    radii: tuple
    ratios: tuple
    slope: float               # log-log slope of ratio against radius
    certified: bool            # slope at most -margin
    margin: float


def density_divergence(dist: HomogeneousDistance, curve: Curve, t0: float,
                       radii: Sequence[float], metric: str = METRIC_LEFT,
                       margin: float = 0.5) -> DivergenceReport:
    """Certify measure(ball r) / r^q blowing up at a low-degree point.

    q is the degree of the curve.  Fits the log-log slope of the ratio
    sequence; divergence is certified when the slope is at most -margin.
    Refuses fewer than two distinct radii, which fit no slope, and points
    of full degree, where the ratio converges instead (ValueError), and a
    radius whose r^q overflows or underflows to 0
    (NumericalResolutionError).
    """
    radii = tuple(radii)
    if len(set(radii)) < 2:
        raise ValueError(f"the slope fit needs at least two distinct radii, got {list(radii)}")
    law = dist.law
    q = curve_degree(law, curve)
    if pointwise_degree(law, curve, t0) >= q:
        raise ValueError(
            f"t0 = {t0} realizes the full degree {q}; the ratio does not diverge here")

    ratios = tuple(ball_intersection_measure(dist, curve, t0, r, metric).measure
                   / _power(r, q, "r") for r in radii)
    slope = float(np.polyfit(np.log(list(radii)), np.log(ratios), 1)[0])
    return DivergenceReport(t0=t0, q=q, radii=tuple(float(r) for r in radii),
                            ratios=ratios, slope=slope,
                            certified=slope <= -margin, margin=margin)


# -- greedy covering --------------------------------------------------------------


@dataclass(frozen=True)
class CoveringEstimate:
    q: int
    delta: float
    value: float               # sum of r^q over the balls placed
    ball_count: int
    centers: tuple             # center parameters (radii all equal delta)


# balls one covering may place before it is refused as unresolved
MAX_BALLS = 5_000_000


def spherical_measure_upper(dist: HomogeneousDistance, curve: Curve, q: float,
                            delta: float, intervals=None) -> CoveringEstimate:
    """Greedy covering value sum(r^q) at scale delta.

    Covers the given parameter intervals (the whole domain by default)
    with closed balls of radius delta centered on the curve.  Each ball is
    pushed as far forward as possible while still containing the first
    uncovered parameter, so a ball typically covers a full two-sided
    component of new parameters; that the parameters between the first
    uncovered one and the center lie in the center's ball is assumed (see
    the module docstring).  Each interval is one call of the walk that
    ``HomogeneousDistance.membership`` generates for the curve's table at
    radius delta; each of its reaches is the certified first exit of the
    membership polynomials, so no excursion past a reach is missed.
    Raises ValueError unless delta and q are positive and finite and every
    interval [lo, hi] has lo <= hi and lies inside the closed domain (lo
    == hi covers the single parameter), and NumericalResolutionError where
    delta ** q overflows or underflows to 0, the walk places more than
    ``MAX_BALLS`` balls or stalls short of hi, or the value overflows.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if not 0.0 < q < math.inf:
        raise ValueError(f"q must be positive and finite, got {q}")
    size = _power(delta, q, "delta")       # what each ball adds to the value
    a, b = curve.domain
    intervals = [(a, b)] if intervals is None else list(intervals)
    for lo, hi in intervals:
        if not a <= lo <= b or not a <= hi <= b:
            raise ValueError(f"interval [{lo}, {hi}] is not inside the curve's "
                             f"domain [{a}, {b}]")
        if hi < lo:
            raise ValueError(f"interval [{lo}, {hi}] ends before it starts")
    guard = 1e-12 * curve.span()
    centers = []
    if intervals:          # nothing to cover needs no membership, however small delta is
        _, walk = dist.membership(curve.pieces, delta)
        for lo, hi in intervals:
            # (t, edge) of the last ball: short of hi and b, it did not advance past t
            t, edge = walk(lo, hi, guard, b, centers, MAX_BALLS)
            if len(centers) > MAX_BALLS:
                raise NumericalResolutionError(
                    f"covering at delta = {delta} exceeded {MAX_BALLS} balls")
            if edge < hi - guard and edge < b:
                raise NumericalResolutionError(
                    f"covering walk stalled at t = {t} (delta = {delta})")
    value = 0.0
    for _ in centers:          # ball by ball, as the value has always been summed
        value += size
    if value == math.inf:
        raise NumericalResolutionError(f"covering value of {len(centers)} balls overflows")
    return CoveringEstimate(q=q, delta=delta, value=value,
                            ball_count=len(centers), centers=tuple(centers))


def richardson_extrapolate(values: Sequence[float]) -> float:
    """Limit estimate for a sequence sampled at geometrically shrinking delta.

    Assumes v_k ~ v + C * rho^k for some 0 < rho < 1 and eliminates the
    leading term from the last three entries.  Falls back to the final
    value when the differences are not shrinking with one sign: covering
    values approach their limit monotonically, so alternating differences
    are quantization noise that extrapolation would amplify.  One or two
    entries give the last one back; an empty sequence raises ValueError.
    """
    v = [float(x) for x in values]
    if not v:
        raise ValueError("cannot extrapolate an empty sequence of values")
    if len(v) < 3:
        return v[-1]
    d1 = v[-1] - v[-2]
    d0 = v[-2] - v[-3]
    if abs(d1) < 1e-12 * max(1.0, abs(v[-1])):
        return v[-1]
    rho = d0 / d1
    if rho < 1.2:
        return v[-1]
    return v[-1] + d1 / (rho - 1.0)


@dataclass(frozen=True)
class CoveringSchedule:
    q: float
    deltas: tuple
    values: tuple
    extrapolated: float
    ball_counts: tuple


def covering_values(dist: HomogeneousDistance, curve: Curve, q: float,
                    deltas: Sequence[float], intervals=None) -> CoveringSchedule:
    deltas = tuple(deltas)
    intervals = None if intervals is None else list(intervals)
    ests = [spherical_measure_upper(dist, curve, q, d, intervals) for d in deltas]
    values = tuple(e.value for e in ests)
    return CoveringSchedule(q=q, deltas=tuple(float(d) for d in deltas),
                            values=values,
                            extrapolated=richardson_extrapolate(values),
                            ball_counts=tuple(e.ball_count for e in ests))


# -- area formula, negligibility, density lemma ------------------------------------


@dataclass(frozen=True)
class AreaFormulaReport:
    q: int
    c_q: float
    covering: CoveringSchedule
    lhs: float                 # c_q times the extrapolated covering value
    rhs: float                 # integral of the top tangent projection size
    residual: float            # |lhs - rhs| / rhs
    low_degree_warning: bool


def area_formula_residual(dist: HomogeneousDistance, curve: Curve,
                          deltas: Sequence[float] | None = None,
                          interval=None) -> AreaFormulaReport:
    """Compare c_q * (covering estimate) with the tangent-projection integral.

    q is the degree of the curve.  The right-hand side integrates the size
    of the top-layer part of the unit tangent against the curve measure.
    Under any ambient metric, the unit tangent divides the frame
    coordinates lam = Frame.coordinates(gamma(t), gamma'(t)) by the speed
    and the measure multiplies the speed back, so the integrand is the
    euclidean size of the layer-q block of lam.  :func:`quad` integrates
    it to 1e-10 absolute or 1e-9 relative, split at the curve's breaks and
    at the ends of the low-degree intervals.  ``interval`` must lie inside
    the closed domain; the covering raises ValueError otherwise.
    """
    law = dist.law
    profile = degree_profile(law, curve)
    q = profile.degree
    if deltas is None:
        deltas = [2.0 ** -k for k in range(2, 9)]
    a, b = curve.domain if interval is None else interval

    cq = degree_constant(dist, q)
    cov = covering_values(dist, curve, q, deltas, intervals=[(a, b)])
    lhs = cq * cov.extrapolated

    frame, top = law.frame, law.algebra.layer_slice(q)

    def integrand(t):
        lam = frame.coordinates(curve.positions(t), curve.velocities(t))[..., top]
        return np.sqrt((lam * lam).sum(axis=-1))

    # integrable kinks sit where the degree drops; help the quadrature there
    breaks = {p for iv in profile.low_degree_intervals for p in iv}.union(curve.breaks)
    rhs = quad(integrand, a, b, 1e-10, 1e-9, breaks)
    if rhs == 0.0:
        raise ValueError(f"the tangent integral over [{a}, {b}] is 0: the interval lies "
                         f"in the low-degree set {list(profile.low_degree_intervals)}")

    step = profile.grid[1] - profile.grid[0]
    low_warning = any(hi - lo > 2.0 * step for lo, hi in profile.low_degree_intervals)
    residual = abs(lhs - rhs) / abs(rhs)
    return AreaFormulaReport(q=q, c_q=cq, covering=cov, lhs=lhs, rhs=rhs,
                             residual=residual, low_degree_warning=low_warning)


@dataclass(frozen=True)
class NegligibilityReport:
    q: int
    deltas: tuple
    values: tuple              # covering value of the low-degree set per delta
    intervals: tuple
    ball_counts: tuple


def negligibility_estimate(dist: HomogeneousDistance, curve: Curve,
                           deltas: Sequence[float],
                           grid_points: int = 512) -> NegligibilityReport:
    """Covering values of the low-degree parameter set along a delta schedule.

    q is the degree of the curve.  Shrinking values certify that the set
    is null for the q-dimensional spherical measure.  An empty low-degree
    set covers to zeros: values 0.0 and ball counts 0.  An empty delta
    schedule raises ValueError (:func:`richardson_extrapolate`).
    """
    profile = degree_profile(dist.law, curve, grid_points)
    cov = covering_values(dist, curve, profile.degree, deltas, profile.low_degree_intervals)
    return NegligibilityReport(q=profile.degree, deltas=cov.deltas, values=cov.values,
                               intervals=profile.low_degree_intervals,
                               ball_counts=cov.ball_counts)
