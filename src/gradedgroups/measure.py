"""Numerical measures of curves: lengths, ball intersections, blow-ups,
covering estimates and the resulting area-formula diagnostics.

Conventions.  The 1-d measure of a curve piece under an ambient metric
("left" for the metric that makes the frame orthonormal, "euclidean"
for the coordinate metric) is the integral of the corresponding speed.
Parameter sets cut out by balls are located by a grid scan refined with
bisection at every boundary crossing (``roots.intervals``), so
disconnected intersections are handled.  The center is a grid point, so
the component through it is found even when it is far narrower than a
grid cell.

Spherical-measure upper bounds come from a greedy walk: at the first
uncovered parameter, a ball of the current radius is centered as far
ahead along the curve as possible while still covering that parameter,
and the walk jumps past the covered component.  Each of these two reaches
predicts, then certifies.  One batched probe of the distance tests a
geometric ladder of parameter offsets together with a cluster on the
step the walk took last, and its first point outside the ball brackets
the exit.  Where that step is the exit, as along a left-translated
one-parameter subgroup, this probe already settles the reach.  Otherwise
batched rounds (``roots.refine``) shrink the bracket, each also testing
a cluster where inverse interpolation of the distances already computed
puts the exit.  The reported value is sum(r^q) over the balls placed.  It is an upper
estimate when the distance from each center grows along the curve up to
the exit; an excursion that leaves the ball between two probed points
goes unseen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from . import roots
from .curve import Curve, degree_profile, pointwise_degree, tangent_projection
from .frame import METRIC_EUCLIDEAN, METRIC_LEFT, _check_metric, speed
from .metric import HomogeneousDistance, degree_constant


class NumericalResolutionError(RuntimeError):
    """A scan or walk could not make progress at the requested resolution."""


# -- lengths -------------------------------------------------------------------


def riemannian_length(law, curve: Curve, interval=None, metric: str = METRIC_LEFT) -> float:
    """Adaptive-quadrature length of the curve over one parameter interval."""
    _check_metric(metric)
    a, b = curve.domain if interval is None else interval
    if b <= a:
        return 0.0
    frame = law.frame

    def integrand(t: float) -> float:
        return speed(frame, curve.position_at(t), curve.velocity_at(t), metric)

    val, _ = quad(integrand, a, b, epsabs=1e-9, epsrel=1e-9, limit=200)
    return float(val)


def _length_over_intervals(law, curve, intervals, metric) -> float:
    return sum(riemannian_length(law, curve, iv, metric) for iv in intervals)


# -- parameter sets cut out by balls --------------------------------------------

# scan grid density of ball_param_set, in points per unit of parameter
GRID_PER_UNIT = 4096


@dataclass(frozen=True)
class BallIntersection:
    measure: float
    intervals: tuple          # disjoint parameter intervals inside the ball
    truncated: bool           # the set touches a domain endpoint
    radius: float
    center_parameter: float


def ball_param_set(dist: HomogeneousDistance, curve: Curve, t0: float, r: float):
    """Parameter set {t : d(gamma(t0), gamma(t)) < r} as intervals.

    The domain is scanned on a grid that includes t0, and every crossing
    is refined to 1e-15 by ``roots.intervals``.  The component through t0
    is found however narrow it is; any other component narrower than a
    grid cell can be missed.  Open versus closed balls only differ on a
    measure-zero boundary, so a single scanner serves both.  Returns
    (intervals, truncated).
    """
    a, b = curve.domain
    if not a < t0 < b:
        raise ValueError(f"center parameter {t0} outside the open domain")
    dfun = dist.distance_from(curve.position_at(t0))

    m = max(257, int(GRID_PER_UNIT * (b - a)) + 1)
    ts = np.unique(np.concatenate([np.linspace(a, b, m), [t0]]))

    def in_ball(t):
        return dfun(curve.positions(t)) < r

    ins = in_ball(ts)
    # d = 0 at the center, though the gauge of a rounded x^-1 * x is not:
    # on engel it reads about 1e-5 at |x| ~ 1
    ins[np.searchsorted(ts, t0)] = True
    found = roots.intervals(in_ball, ts, ins,
                            lambda p, q: 1e-15 * max(1.0, abs(min(p, q))), 8)
    truncated = found[0][0] <= a + 1e-12 * (b - a) or found[-1][1] >= b - 1e-12 * (b - a)
    return found, truncated


def ball_intersection_measure(dist: HomogeneousDistance, curve: Curve, t0: float,
                              r: float, metric: str = METRIC_EUCLIDEAN) -> BallIntersection:
    """Measure of the curve piece inside the ball around gamma(t0)."""
    intervals, truncated = ball_param_set(dist, curve, t0, r)
    total = _length_over_intervals(dist.law, curve, intervals, metric)
    return BallIntersection(measure=total, intervals=intervals, truncated=truncated,
                            radius=r, center_parameter=t0)


# -- blow-up and divergence ------------------------------------------------------


@dataclass(frozen=True)
class BlowupReport:
    """Blow-up ratios along a radius schedule.

    Ball edges are located to 1e-15 in the parameter, so a ``diagnostic``
    below about 2e-15 / (predicted * r^q) at the last radius r is resolution
    noise: about 1e-9 for the vertical line at r = 2^-10.  On step-3 groups
    the distance itself has a rounding floor (up to 9.6e-6 on engel at
    |gamma(t0)| ~ 1, see ``HomogeneousDistance.distance_from``); ball sets
    and ratios at radii near that floor are rounding too.
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
    applies.
    """
    law = dist.law
    q = degree_profile(law, curve).degree
    if pointwise_degree(law, curve, t0) != q:
        raise ValueError(
            f"t0 = {t0} does not realize the curve degree {q}; blow-up undefined here")

    from .metric import metric_factor

    proj, mag = tangent_projection(law, curve, t0, q, metric)
    predicted = metric_factor(dist, proj) / mag

    balls = [ball_intersection_measure(dist, curve, t0, r, metric) for r in radii]
    ratios = tuple(bi.measure / r ** q for bi, r in zip(balls, radii))
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
    of full degree, where the ratio converges instead.
    """
    if len(set(radii)) < 2:
        raise ValueError(f"the slope fit needs at least two distinct radii, got {list(radii)}")
    law = dist.law
    q = degree_profile(law, curve).degree
    if pointwise_degree(law, curve, t0) >= q:
        raise ValueError(
            f"t0 = {t0} realizes the full degree {q}; the ratio does not diverge here")

    ratios = tuple(ball_intersection_measure(dist, curve, t0, r, metric).measure / r ** q
                   for r in radii)
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


# The predicting round of a reach tests the ladder h * 2^k, k != 0, and
# between h / 2 and 2 h a cluster on the guess h: the pair h -+ tol(h) / 4
# settles an exact guess, and points at spacing h / 4096 across h (1 -+ 1/64)
# bracket a near one tightly enough for the next round's prediction.
_POW2 = np.ldexp(1.0, np.arange(-1074, 1024))      # 2^k at index k + 1074
_SPREAD = np.arange(1, 65) / 4096.0
_BELOW, _ABOVE = 1.0 - _SPREAD[::-1], 1.0 + _SPREAD


def _forward_reach(dfun: Callable, curve: Curve, start: float, cap: float,
                   r: float, guess: float | None) -> float:
    """Largest parameter s in [start, cap] found with d(s) <= r.

    d = dfun(curve position) is the distance to a fixed anchor, zero at
    start.  Predict, then certify: one batched probe tests the geometric
    ladder guess * 2^k from a floor of 1e-18 relative to start up to the
    cap, together with a cluster on the guess itself, and its first point
    outside the ball and the one before it bracket the exit.  When the
    guess is the exit, that one probe already meets the tolerance.
    Otherwise batched rounds (``roots.refine``) shrink the bracket, each
    also testing a cluster where the distances already computed put the
    exit.  The inside end is returned, so coverage claims stay
    conservative.
    """
    if cap <= start:
        return start
    width = cap - start
    h = guess if guess and guess > 0 else width * 1e-3
    h = min(h, width)

    def probe(s):
        g = dfun(curve.positions(start + s)) - r
        return g <= 0.0, g

    # tight tolerance: the per-ball shortfall accumulates over the whole walk.
    # A ladder bracket [lo, hi] has hi <= 2 lo, so it meets the tolerance
    # within 5 rounds of 257-fold shrinking; 8 is never reached.  The probe
    # evaluates the curve at start + s, so the floor of four float spacings
    # there keeps the exact-guess pair below on distinct parameters.
    def tol(lo: float, hi: float) -> float:
        return max(1e-12 * lo + 1e-16, 4.0 * math.ulp(start + lo))

    floor = 1e-18 * max(1.0, abs(start)) + 1e-300
    k0 = max(math.floor(math.log2(floor / h)), -1074) + 1074
    k1 = min(math.ceil(math.log2(width / h)), 1023) + 1075
    pair = min(0.25 * tol(h, h) / h, 2.0 ** -13)     # within the cluster's spacing
    pts = h * np.concatenate((_POW2[k0:1074], _BELOW, (1.0 - pair, 1.0, 1.0 + pair),
                              _ABOVE, _POW2[1075:k1]))
    pts = np.concatenate((pts[(pts >= floor) & (pts < width)], (width,)))
    # the predicting round, then at most 8 more
    lo, _ = roots.refine(probe, 0.0, width, pts, tol, 9)
    return cap if lo == width else start + lo


def spherical_measure_upper(dist: HomogeneousDistance, curve: Curve, q: float,
                            delta: float, intervals=None,
                            max_balls: int = 5_000_000) -> CoveringEstimate:
    """Greedy covering value sum(r^q) at scale delta.

    Covers the given parameter intervals (the whole domain by default)
    with closed balls of radius delta centered on the curve.  Each ball is
    pushed as far forward as possible while still containing the first
    uncovered parameter, so a ball typically covers a full two-sided
    component of new parameters.  Raises ValueError unless delta and q
    are positive and every interval lies inside the closed domain.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not q > 0:
        raise ValueError("q must be positive")
    a, b = curve.domain
    if intervals is None:
        intervals = [(a, b)]
    for lo, hi in intervals:
        if not a <= lo <= b or not a <= hi <= b:
            raise ValueError(f"interval [{lo}, {hi}] is not inside the curve's "
                             f"domain [{a}, {b}]")
    guard = 1e-12 * curve.span()
    value = 0.0
    centers = []

    for lo, hi in intervals:
        if hi < lo:
            continue
        t = lo
        prev_step = None
        while True:
            d_anchor = dist.distance_from(curve.position_at(t))
            center = _forward_reach(d_anchor, curve, t, b, delta, prev_step)
            centers.append(center)
            value += delta ** q
            if len(centers) > max_balls:
                raise NumericalResolutionError(
                    f"covering at delta = {delta} exceeded {max_balls} balls")
            # a ball centered at t itself reaches no further than the probe
            # from t just found, so only a center ahead of t can advance
            edge = center
            if center > t:
                d_center = dist.distance_from(curve.position_at(center))
                edge = _forward_reach(d_center, curve, center, b, delta, center - t)
            if edge <= t + guard:
                raise NumericalResolutionError(
                    f"covering walk stalled at t = {t} (delta = {delta})")
            prev_step = max(edge - center, guard)
            t = edge
            if t >= hi - guard:
                break

    return CoveringEstimate(q=q, delta=delta, value=value,
                            ball_count=len(centers), centers=tuple(centers))


def richardson_extrapolate(values: Sequence[float]) -> float:
    """Limit estimate for a sequence sampled at geometrically shrinking delta.

    Assumes v_k ~ v + C * rho^k for some 0 < rho < 1 and eliminates the
    leading term from the last three entries.  Falls back to the final
    value when the differences are not shrinking with one sign: covering
    values approach their limit monotonically, so alternating differences
    are quantization noise that extrapolation would amplify.
    """
    v = [float(x) for x in values]
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
    euclidean size of the layer-q block of lam.  ``interval`` must lie
    inside the closed domain; the covering raises ValueError otherwise.
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

    def integrand(t: float) -> float:
        lam = frame.coordinates(curve.position_at(t), curve.velocity_at(t))
        return float(np.linalg.norm(lam[top]))

    # integrable kinks sit where the degree drops; help the quadrature there
    breaks = sorted({p for iv in profile.low_degree_intervals for p in iv if a < p < b})
    rhs, _ = quad(integrand, a, b, epsabs=1e-10, epsrel=1e-9, limit=400,
                  points=breaks or None)
    rhs = float(rhs)

    step = profile.grid[1] - profile.grid[0]
    low_warning = any(hi - lo > 2.0 * step for lo, hi in profile.low_degree_intervals)
    residual = abs(lhs - rhs) / abs(rhs) if rhs != 0 else float("inf")
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
    set reports all zeros.
    """
    profile = degree_profile(dist.law, curve, grid_points)
    q = profile.degree
    intervals = profile.low_degree_intervals
    if not intervals:
        return NegligibilityReport(q=q, deltas=tuple(map(float, deltas)), intervals=(),
                                   values=(0.0,) * len(deltas), ball_counts=(0,) * len(deltas))
    cov = covering_values(dist, curve, q, deltas, intervals)
    return NegligibilityReport(q=q, deltas=cov.deltas, values=cov.values,
                               intervals=intervals, ball_counts=cov.ball_counts)


@dataclass(frozen=True)
class FedererReport:
    a: float
    kappa: float
    sample_parameters: tuple
    ratios: tuple              # per sample: tuple of measure / r^a over radii
    all_dense: bool            # every sampled ratio exceeded kappa
    mu: float                  # measure of the set
    covering_upper: float      # extrapolated covering value at exponent a
    inequality_ok: bool        # mu >= kappa * covering_upper (within tolerance)
    vacuous: bool


def federer_density_check(dist: HomogeneousDistance, curve: Curve, intervals,
                          a: float, kappa: float,
                          radii: Sequence[float] | None = None,
                          deltas: Sequence[float] | None = None,
                          metric: str = METRIC_LEFT) -> FedererReport:
    """Sample the density hypothesis of the comparison lemma and test its
    conclusion: if measure(ball r)/r^a stays above kappa on the set, then the
    measure of the set dominates kappa times its covering value.

    The density is sampled at 3 points of each interval, and the
    inequality is granted 2% of slack for the covering estimate.
    """
    if radii is None:
        radii = [2.0 ** -k for k in range(4, 11)]
    if deltas is None:
        deltas = [2.0 ** -k for k in range(2, 9)]
    intervals = [tuple(iv) for iv in intervals]
    if not intervals:
        return FedererReport(a=a, kappa=kappa, sample_parameters=(), ratios=(),
                             all_dense=True, mu=0.0, covering_upper=0.0,
                             inequality_ok=True, vacuous=True)

    samples = []
    for lo, hi in intervals:
        if hi <= lo:
            samples.append(lo)
        else:
            offs = np.linspace(0.2, 0.8, 3)
            samples.extend(lo + (hi - lo) * o for o in offs)

    ratios = []
    for t in samples:
        row = tuple(
            ball_intersection_measure(dist, curve, t, r, metric).measure / r ** a
            for r in radii)
        ratios.append(row)
    all_dense = all(min(row) > kappa for row in ratios)

    mu = _length_over_intervals(dist.law, curve, intervals, metric)
    cov = covering_values(dist, curve, a, deltas, intervals=intervals)
    inequality_ok = mu >= kappa * cov.extrapolated * 0.98
    return FedererReport(a=a, kappa=kappa,
                         sample_parameters=tuple(float(t) for t in samples),
                         ratios=tuple(ratios), all_dense=all_dense, mu=mu,
                         covering_upper=cov.extrapolated,
                         inequality_ok=inequality_ok, vacuous=False)
