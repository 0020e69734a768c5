import ast
import bisect
import hashlib
import importlib.util
import math
import random
import re
import struct
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cover_oracle
from gradedgroups import fixtures, measure, metric, roots
from gradedgroups.curve import (_anchor_rows, curve_from_samples, degree_profile,
                                dilate_curve, polynomial_curve, translate_curve)
from gradedgroups.measure import (NumericalResolutionError, area_formula_residual, ball_param_set,
                                  ball_intersection_measure, blowup_sequence,
                                  covering_values, density_divergence,
                                  negligibility_estimate, quad,
                                  richardson_extrapolate, riemannian_length,
                                  spherical_measure_upper)
from gradedgroups.metric import (HomogeneousDistance, _ball_fold, _layout, _membership_source,
                                 _onward)


@pytest.fixture(scope="module")
def heis():
    return fixtures.group_law("heisenberg")


@pytest.fixture(scope="module")
def dist():
    return fixtures.distance("heisenberg")


# -- lengths -------------------------------------------------------------------


def test_lengths_of_straight_fixtures(heis):
    vert = fixtures.curve("vertical")
    assert riemannian_length(heis, vert, (0.0, 1.0), "euclidean") == pytest.approx(1.0)
    assert riemannian_length(heis, vert, (0.0, 1.0), "left") == pytest.approx(1.0)
    assert riemannian_length(heis, vert, (0.5, 0.5)) == 0.0
    hor = fixtures.curve("horizontal")
    assert riemannian_length(heis, hor, (-1.0, 1.0), "left") == pytest.approx(2.0)


def test_length_of_parabola(heis):
    par = fixtures.curve("parabola_lift")
    expected = math.sqrt(2.0) + math.asinh(1.0)  # 2 * int_0^1 sqrt(1 + t^2)
    assert riemannian_length(heis, par, metric="left") == pytest.approx(expected, rel=1e-9)
    assert riemannian_length(heis, par, metric="euclidean") == pytest.approx(expected,
                                                                             abs=1e-12)


# -- quadrature ------------------------------------------------------------------------


def test_quad_kink_with_and_without_its_point():
    kink = 0.3
    exact = (kink ** 2 + (1.0 - kink) ** 2) / 2.0

    def f(t):
        return np.abs(t - kink)

    assert quad(f, 0.0, 1.0, 1e-12, 1e-12, (kink,)) == pytest.approx(exact, abs=1e-15)
    assert quad(f, 0.0, 1.0, 1e-12, 1e-12) == pytest.approx(exact, abs=1e-12)
    # points outside the interval, and its ends, are ignored
    assert quad(f, 0.0, 1.0, 1e-12, 1e-12, (-1.0, 0.0, 1.0, 2.0)) == pytest.approx(
        exact, abs=1e-12)


def test_quad_evaluates_each_round_in_one_batch():
    shapes = []

    def f(t):
        shapes.append(t.shape)
        return np.exp(t)

    assert quad(f, 0.0, 1.0, 1e-14, 1e-14) == pytest.approx(math.e - 1.0, abs=1e-15)
    assert shapes == [(30,)]
    assert quad(f, 1.0, 1.0, 1e-9, 1e-9) == 0.0


def test_quad_refuses_a_non_integrable_integrand():
    with pytest.raises(NumericalResolutionError, match="not resolved"):
        quad(lambda t: 1.0 / np.abs(t - 1.0 / 3.0), 0.0, 1.0, 1e-9, 1e-9)
    with pytest.raises(NumericalResolutionError, match="not finite"):
        quad(lambda t: np.where(t > 0.5, np.inf, 1.0), 0.0, 1.0, 1e-9, 1e-9)


# -- ball intersections -----------------------------------------------------------


def test_ball_set_on_center_line(dist):
    vert = fixtures.curve("vertical")
    for r in (0.1, 0.25, 0.5):
        bi = ball_intersection_measure(dist, vert, 0.0, r)
        assert len(bi.intervals) == 1
        lo, hi = bi.intervals[0]
        assert lo == pytest.approx(-r * r, abs=1e-10)
        assert hi == pytest.approx(r * r, abs=1e-10)
        assert bi.measure == pytest.approx(2 * r * r, rel=1e-8)
        assert not bi.truncated


def test_ball_set_truncated_at_domain_edge(dist):
    bi = ball_intersection_measure(dist, fixtures.curve("vertical"), 0.0, 1.2)
    assert bi.truncated
    assert bi.measure == pytest.approx(2.0, rel=1e-9)


def test_ball_set_catches_tiny_central_component(dist):
    # far below the scan grid spacing; t0 is put into the grid, so the scan
    # finds the component around it even off the uniform grid points (0.3)
    for t0 in (0.0, 0.3):
        bi = ball_intersection_measure(dist, fixtures.curve("vertical"), t0, 1e-4)
        assert bi.measure == pytest.approx(2e-8, rel=1e-6)
        ((lo, hi),) = bi.intervals
        assert lo < t0 < hi and hi - lo == pytest.approx(2e-8, rel=1e-6)


def test_ball_set_keeps_a_center_whose_gauge_rounds_above_r():
    # on engel the gauge of a rounded x^-1 * x reads 4.8e-6 at this point
    law = fixtures.group_law("engel")
    dist = fixtures.distance("engel")
    curve = translate_curve(law, np.array([1.3, 2.1, -0.4, 0.2]),
                            fixtures.curve("engel_vertical"))
    x = curve.position_at(0.3)
    assert dist.distance_from(x)(x) > 1e-7
    intervals, truncated = ball_param_set(dist, curve, 0.3, 1e-7)
    ((lo, hi),) = intervals                  # offsets from 0.3
    assert lo <= 0.0 <= hi and not truncated


def test_ball_set_disconnected_components(heis, dist):
    # x3 = sin(3 pi t), a cubic Hermite interpolant through 2001 nodes: its
    # error, about (3 pi)^4 h^4 / 384, is far below the tolerances here.
    # At r = 0.01 each component is about 1e-5 wide, far below a grid cell
    # of a scan at 4096 points per unit
    wave = curve_from_samples(
        [{"t": t, "position": [0.0, 0.0, math.sin(3 * math.pi * t)],
          "velocity": [0.0, 0.0, 3 * math.pi * math.cos(3 * math.pi * t)]}
         for t in np.linspace(-1.0, 1.0, 2001)], 3)
    ts = np.linspace(-1.0, 1.0, 400001)
    x0 = wave.position_at(0.0)
    for r in (0.25, 0.01):
        intervals, truncated = ball_param_set(dist, wave, 0.0, r)
        assert truncated                      # half-windows at both domain ends
        assert len(intervals) == 7            # zeros of sin(3 pi t) in [-1, 1]
        bi = ball_intersection_measure(dist, wave, 0.0, r)
        # |z| sweeps out r^2 twice per interior window, once per boundary half
        assert bi.measure == pytest.approx(5 * 2 * r ** 2 + 2 * r ** 2, rel=1e-6)

        # independent check: dense Riemann sum of the indicator times the speed
        inside = dist.norm(heis.multiply(-x0, wave.positions(ts))) < r
        speeds = np.linalg.norm(wave.velocities(ts), axis=-1)
        riemann = float(np.trapezoid(inside * speeds, ts))
        assert bi.measure == pytest.approx(riemann, abs=2e-4)


def test_ball_set_resolves_a_center_narrower_than_the_float_spacing(dist):
    # the set around 0.3 is 2 r^2 = 2e-18 wide, below the float spacing at
    # 0.3 (5.6e-17): solved in offsets from 0.3, it keeps its width
    vert = fixtures.curve("vertical")
    ((lo, hi),), truncated = ball_param_set(dist, vert, 0.3, 1e-9)
    assert not truncated and -lo == hi == pytest.approx(1e-18, rel=1e-14)
    bi = ball_intersection_measure(dist, vert, 0.3, 1e-9)
    assert bi.measure == pytest.approx(2e-18, rel=1e-14)


def test_ball_set_on_an_ill_conditioned_table_ends(heis, dist):
    # x3 = 1e9 t (t - 0.6)^2: near 0.6 the expanded membership polynomial has
    # coefficients near 1e22 and a rounding bound near 1e7, so no interval
    # there is certified; the search either finds the component or gives up
    coef = np.zeros((4, 3, 1))
    coef[1:, 2, 0] = np.array([0.36, -1.2, 1.0]) * 1e9
    curve = polynomial_curve(coef, (-1.0, 1.0))
    start = time.perf_counter()
    try:
        intervals, _ = ball_param_set(dist, curve, 0.0, 0.1)
    except NumericalResolutionError:
        pass
    else:
        assert any(lo <= 0.6 <= hi for lo, hi in intervals)
    assert time.perf_counter() - start < 1.0


def test_curves_on_the_same_nodes_keep_their_own_ball_sets(dist):
    # the last center's fold is cached per curve: two curves with the same
    # domain, breaks, name and description are still two curves
    def sampled(lift):
        return curve_from_samples([{"t": t, "position": [t, 0.0, lift * t * t],
                                    "velocity": [1.0, 0.0, 2.0 * lift * t]}
                                   for t in (-1.0, 0.0, 1.0)], 3, name="same")
    flat, lifted = sampled(0.0), sampled(3.0)
    got = [ball_param_set(dist, curve, 0.2, 0.3) for curve in (flat, lifted)]
    assert got[0] != got[1]
    for curve, sets in zip((flat, lifted), got):
        _ball_fold.cache_clear()
        assert ball_param_set(dist, curve, 0.2, 0.3) == sets


def test_ball_center_must_be_interior(dist):
    with pytest.raises(ValueError):
        ball_param_set(dist, fixtures.curve("vertical"), 1.0, 0.1)


# -- blow-up ratios ---------------------------------------------------------------


def test_blowup_constant_on_center_line(heis, dist):
    radii = [2.0 ** -k for k in range(1, 8)]
    rep = blowup_sequence(dist, fixtures.curve("vertical"), 0.0, radii)
    assert rep.q == 2
    assert rep.predicted == pytest.approx(2.0)
    assert np.allclose(rep.ratios, 2.0, rtol=1e-8)
    assert rep.diagnostic < 1e-8

    half = HomogeneousDistance(heis, (1.0, 2.0))
    rep2 = blowup_sequence(half, fixtures.curve("vertical"), 0.0, radii)
    assert rep2.predicted == pytest.approx(0.5)
    assert np.allclose(rep2.ratios, 0.5, rtol=1e-8)


def test_blowup_converges_far_below_the_float_spacing_at_t0():
    # engel_vertical's ball around 0.3 is 2 r^3 wide: 7.1e-15 at 2^-16, below
    # the 5.6e-17 spacing of the floats near 0.3 from 2^-19 on, 1.5e-36 at
    # 2^-40; solved in offsets from 0.3, every ratio is the density 2
    rep = blowup_sequence(fixtures.distance("engel"), fixtures.curve("engel_vertical"), 0.3,
                          [2.0 ** -k for k in range(16, 41)])
    assert rep.predicted == 2.0 and all(abs(ratio - 2.0) <= 1e-12 for ratio in rep.ratios)


@pytest.mark.parametrize("group, name, t0, last", [
    ("engel", "engel_vertical", 0.3, 170),      # (1 / r)^6 overflows from 2^-171 on
    ("heisenberg", "glued_hv", 0.3, 255),       # (1 / r)^4 from 2^-256 on
    ("heisenberg", "glued_hv", -0.5, 255),
])
def test_center_component_keeps_its_width_until_the_weights_overflow(group, name, t0, last):
    dist, curve = fixtures.distance(group), fixtures.curve(name)
    for k in range(1, last + 1):
        runs, _ = ball_param_set(dist, curve, t0, 2.0 ** -k)
        assert any(lo < 0.0 < hi for lo, hi in runs), k
    with pytest.raises(NumericalResolutionError, match="below float resolution"):
        ball_param_set(dist, curve, t0, 2.0 ** -(last + 1))


def test_blowup_rejects_low_degree_point(dist):
    with pytest.raises(ValueError, match="does not realize"):
        blowup_sequence(dist, fixtures.curve("parabola_lift"), 0.0, [0.25, 0.125])


def test_divergence_at_low_degree_point(dist):
    radii = [2.0 ** -k for k in range(4, 13)]
    rep = density_divergence(dist, fixtures.curve("parabola_lift"), 0.0, radii)
    assert rep.certified
    assert rep.slope == pytest.approx(-1.0, abs=0.02)


def test_divergence_rejects_full_degree_point(dist):
    with pytest.raises(ValueError, match="full degree"):
        density_divergence(dist, fixtures.curve("vertical"), 0.3, [0.25, 0.125])


# -- greedy covering ----------------------------------------------------------------


def test_covering_unit_center_segment(dist):
    est = spherical_measure_upper(dist, fixtures.curve("vertical"), 2, 2.0 ** -4,
                                  intervals=[(0.0, 1.0)])
    assert est.ball_count == 128
    assert est.value == pytest.approx(0.5, rel=1e-9)


def test_covering_unit_horizontal_segment(dist):
    est = spherical_measure_upper(dist, fixtures.curve("horizontal"), 1, 2.0 ** -4,
                                  intervals=[(0.0, 1.0)])
    assert est.ball_count == 8
    assert est.value == pytest.approx(0.5, rel=1e-9)


def test_covering_scales_with_top_eps(heis):
    # with eps2 = 2 a radius-delta ball only reaches delta^2 / 4 along the
    # center, so the covering value quadruples
    dist2 = HomogeneousDistance(heis, (1.0, 2.0))
    est = spherical_measure_upper(dist2, fixtures.curve("vertical"), 2, 2.0 ** -4,
                                  intervals=[(0.0, 1.0)])
    assert est.value == pytest.approx(2.0, rel=1e-9)


def _sampled_curve():
    ts = np.linspace(-1.0, 1.0, 17)
    w = math.pi
    return curve_from_samples(
        [{"t": t,
          "position": [0.1 * math.sin(w * t), 0.05 * math.cos(w * t), t + 0.05 * math.sin(2 * w * t)],
          "velocity": [0.1 * w * math.cos(w * t), -0.05 * w * math.sin(w * t),
                       1.0 + 0.1 * w * math.cos(2 * w * t)]} for t in ts], 3)


# curve, start, radius, and the breaks between the start and the exit
_REACHES = [("parabola_lift", 0.1, 0.2, 0), ("engel_vertical", -0.3, 0.3, 0),
            ("sampled", 0.2, 0.15, 0), ("glued_hv", -0.05, 0.2, 1), ("sampled", -0.6, 0.5, 2)]


@pytest.mark.parametrize("name, start, r, crossed", [
    pytest.param(*case, id="polynomial-" + "-".join(map(str, case[:3]))) for case in _REACHES])
def test_forward_reach_matches_a_scalar_bisection(name, start, r, crossed):
    curve = _sampled_curve() if name == "sampled" else fixtures.curve(name)
    dist = fixtures.distance("engel" if name == "engel_vertical" else "heisenberg")
    dfun = dist.distance_from(curve.position_at(start))
    cap = curve.domain[1]
    reach = _table_reach(dist, curve, r)

    # the first exit, independently: a dense scan, then halving to float resolution
    grid = np.linspace(start, cap, 4001)
    hi = float(grid[int(np.argmax(dfun(curve.positions(grid)) > r))])
    lo = start
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if dfun(curve.position_at(mid)) <= r:
            lo = mid
        else:
            hi = mid
    exit_ = lo - start
    assert 0.01 < exit_ < 0.5 * (cap - start)
    assert len([p for p in curve.breaks if start < p < lo]) == crossed

    for guess in (None, exit_, exit_ * (1 + 1e-3), exit_ * (1 - 1e-3), 0.5 * exit_,
                  3.0 * exit_, 10.0 * (cap - start)):
        found = reach(start, guess)
        assert dfun(curve.position_at(found)) <= r, guess
        assert abs(found - lo) <= 1e-12 * exit_ + 1e-16, (guess, found - lo)


def _bump_curve():
    """Heisenberg's horizontal line with a narrow excursion, sampled as a curve file.

    x2 = 0.6 exp(-((t - 0.37) / 0.004)^2) rises above 0.25 only on about
    [0.366, 0.374]; 201 uniform nodes on [-1, 1] and 401 on [0.35, 0.39]
    keep it in the cubic interpolant.
    """
    coarse = np.linspace(-1.0, 1.0, 201)
    nodes = np.concatenate((coarse[(coarse < 0.35 - 1e-9) | (coarse > 0.39 + 1e-9)],
                            np.linspace(0.35, 0.39, 401)))
    samples = []
    for t in np.sort(nodes):
        u = (t - 0.37) / 0.004
        bump = 0.6 * math.exp(-u * u)
        samples.append({"t": t, "position": [t, bump, 0.0],
                        "velocity": [1.0, -2.0 * u / 0.004 * bump, 0.0]})
    return curve_from_samples(samples, 3)


def test_covering_follows_a_narrow_excursion(heis, dist):
    # a reach that samples distances steps over the bump: the ball from the
    # line before it seems to reach past it.  Every parameter of the bump
    # must lie within delta of a center; 6 balls is also what a greedy walk
    # on 2,000,001 grid points places
    curve = _bump_curve()
    est = spherical_measure_upper(dist, curve, 1, 0.25)
    ts = np.linspace(0.366, 0.374, 200_001)
    pts = curve.positions(ts)
    nearest = np.full(len(ts), np.inf)
    for c in curve.positions(np.array(est.centers)):
        nearest = np.minimum(nearest, dist.norm(heis.multiply(-c, pts)))
    assert int(np.sum(nearest > 0.25 * (1 + 1e-9))) == 0
    assert est.ball_count == 6


def _rough_curve():
    """201 nodes on [-1, 1]: positions random walks of step 0.02, velocities normal."""
    rng = np.random.default_rng(1)
    ts = np.linspace(-1.0, 1.0, 201)
    pos = np.cumsum(0.02 * rng.normal(size=(201, 3)), axis=0)
    vel = rng.normal(size=(201, 3))
    return curve_from_samples([{"t": t, "position": p, "velocity": v}
                               for t, p, v in zip(ts, pos.tolist(), vel.tolist())], 3)


def _wavy_curve():
    """x2 = 0.1 sin(15 t) through 9 nodes: a reach from the last step can
    jump a wave that leaves the ball."""
    return curve_from_samples(
        [{"t": t, "position": [t, 0.1 * math.sin(15 * t), 0.1 * t],
          "velocity": [1.0, 1.5 * math.cos(15 * t), 0.1]} for t in np.linspace(-1.0, 1.0, 9)], 3)


def _cubic_curve():
    """x2 = 2 t^3 - t on one piece: at delta 0.3 a reach from the last step
    jumps a turn out of the ball, inside the anchor's piece."""
    coef = np.zeros((4, 3, 1))
    coef[1, 0, 0], coef[1, 1, 0], coef[3, 1, 0] = 1.0, -1.0, 2.0
    return polynomial_curve(coef, (-1.0, 1.0))


def _table_reach(dist, curve, r):
    """reach(start, guess): the first parameter after ``start`` where the
    curve leaves the closed r-ball around gamma(start), or the domain's end
    where it stays inside: the tables' compiled reaches piece after piece
    from the anchor's own (metric._onward from d = 0), Newton steps from
    ``guess``."""
    pieces = curve.pieces
    breaks, origins = pieces[1].tolist(), pieces[2].tolist()
    bracket, _ = dist.membership(pieces, r)

    def reach(start, guess):
        m = bisect.bisect_right(breaks, start)
        return _onward(bracket, breaks, curve.domain[1], m, start - origins[m], guess, start, 0,
                       start)

    return reach


def _reach_by_reach(dist, curve, delta, lo, hi):
    """(centers, seams): the greedy walk, each reach taken by the general
    path, piece by piece with each table's compiled reach and, where its
    certificate refuses, the search of roots.first_exit; none by the
    generated loop.  Its seams are (t, center, edge) per ball: the ball
    around gamma(center) claims [t, edge], and the next ball's t is edge."""
    reach = _table_reach(dist, curve, delta)
    b, guard = curve.domain[1], 1e-12 * curve.span()
    t, step, centers, seams = lo, None, [], []
    while True:
        center = reach(t, step)
        centers.append(center)
        edge = reach(center, center - t) if center > t else center
        seams.append((t, center, edge))
        if edge >= hi - guard or edge >= b:
            return tuple(centers), tuple(seams)
        if edge <= t + guard:
            raise NumericalResolutionError(f"covering walk stalled at t = {t} (delta = {delta})")
        step, t = max(edge - center, guard), edge


# walks whose reaches cross a break in the generated loop (glued_hv from
# -0.5, the benchmark's curve file), whose certificates refuse (the rough
# and wavy curves, and the cubic, where one refuses on the anchor's piece),
# and that meet the domain's end (parabola_lift up to 1)
_WALKS = {"glued_hv": (lambda: fixtures.curve("glued_hv"), 2.0 ** -6, (-0.5, 0.5)),
          "bench": (lambda: _bench_walk_curve(), 2.0 ** -4, (-1.0, 1.0)),
          "rough": (lambda: _rough_curve(), 0.1, (-1.0, 1.0)),
          "wavy": (lambda: _wavy_curve(), 0.1, (-1.0, 1.0)),
          "cubic": (lambda: _cubic_curve(), 0.3, (-1.0, 1.0)),
          "end": (lambda: fixtures.curve("parabola_lift"), 0.25, (0.0, 1.0))}


@st.composite
def _walk_tables(draw):
    """(group, curve, delta, lo, hi): a table of one to three pieces of degree
    1 to 3 on (-1, 1), coefficients dyadic or any float in [-1, 1], in
    powers of t or of each piece's own parameter, and a radius and interval."""
    group = draw(st.sampled_from(["heisenberg", "engel"]))
    n, pieces, degree = (3 if group == "heisenberg" else 4), draw(st.integers(1, 3)), \
        draw(st.integers(1, 3))
    size = (degree + 1) * n * pieces
    coef = np.reshape(draw(st.lists(st.one_of(st.integers(-8, 8).map(lambda k: k / 8.0),
                                              st.floats(-1.0, 1.0)), min_size=size, max_size=size)),
                      (degree + 1, n, pieces))
    breaks = sorted(draw(st.sets(st.sampled_from([-0.5, -0.25, 0.0, 0.3, 0.6]),
                                 min_size=pieces - 1, max_size=pieces - 1)))
    origins = [-1.0, *breaks] if draw(st.booleans()) else None
    curve = polynomial_curve(coef, (-1.0, 1.0), breaks, origins)
    delta = draw(st.floats(0.15, 0.6))
    lo = draw(st.one_of(st.just(-1.0), st.floats(-1.0, 1.0)))
    hi = draw(st.one_of(st.just(1.0), st.just(lo), st.floats(lo, 1.0)))
    return group, curve, delta, lo, hi


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(sorted(_WALKS)), _walk_tables()))
@example("glued_hv")
@example("bench")
@example("rough")
@example("wavy")
@example("cubic")
@example("end")
def test_generated_walk_is_the_reach_by_reach_walk(case):
    # the generated loop of each anchor table takes every reach of a walk:
    # its centers are those of the walk that takes each reach by itself,
    # bit for bit, and so is a stall
    if isinstance(case, str):
        curve, delta, (lo, hi) = _WALKS[case]
        group, curve = "heisenberg", curve()
    else:
        group, curve, delta, lo, hi = case
    dist = fixtures.distance(group)
    try:
        want, _ = _reach_by_reach(dist, curve, delta, lo, hi)
    except NumericalResolutionError as exc:
        with pytest.raises(NumericalResolutionError, match=re.escape(str(exc))):
            spherical_measure_upper(dist, curve, 1, delta, intervals=[(lo, hi)])
        return
    centers = spherical_measure_upper(dist, curve, 1, delta, intervals=[(lo, hi)]).centers
    assert centers == want
    # the reaches these walks are here for: across a break (a break lies
    # between two centers), or to the domain's end
    breaks, b = curve.pieces[1].tolist(), curve.domain[1]
    if case in ("glued_hv", "bench"):
        assert any(c0 < p < c1 for c0, c1 in zip(centers, centers[1:]) for p in breaks)
    if case == "end":
        assert centers[-1] == b


def test_walk_refuses_uncertified_brackets(dist, monkeypatch):
    # each reach certifies its Newton bracket, in the walk's generated loop
    # and in the tables' reach alike (roots._bracket_source).  Where that
    # certificate of [0, a] refuses, the reach searches [0, a] in place for
    # an earlier exit (roots.first_exit): a search whose hi falls short of
    # its piece.  The walk's centers are those of the reach-by-reach walk,
    # and a bracket is refused on the curves that double back or wave out
    # of a ball only
    refused, ends = [], []
    search, certificate = roots.first_exit, roots._certificate_source

    def counted_search(polys, hi, start, offset):
        breaks, cap = ends
        # the search's piece: the anchor's (offset 0.0) or one entered at a break
        t0 = start if offset == 0.0 else min(breaks, key=lambda p: abs(p - (start + offset)))
        j = bisect.bisect_right(breaks, t0)
        if hi < (min(cap, breaks[j]) if j < len(breaks) else cap) - t0:
            refused.append(hi)           # a Newton bracket's, not its whole piece's
        return search(polys, hi, start, offset)

    monkeypatch.setattr(roots, "first_exit", counted_search)
    # curve, delta, interval, whether a bracket is refused on the way
    cases = [(_bump_curve(), 0.25, None, False),
             (fixtures.curve("glued_hv"), 2.0 ** -6, (-0.5, 0.5), False),
             (_rough_curve(), 0.1, None, True), (_wavy_curve(), 0.1, None, True),
             (_cubic_curve(), 0.3, None, True)]
    for curve, delta, iv, refuses in cases:
        fresh = HomogeneousDistance(dist.law, dist.eps)     # its tables compile with the count
        refused.clear()
        ends[:] = curve.pieces[1].tolist(), curve.domain[1]
        lo, hi = iv or curve.domain
        est = spherical_measure_upper(fresh, curve, 1, delta, intervals=[(lo, hi)])
        assert bool(refused) == refuses
        assert est.centers == _reach_by_reach(fresh, curve, delta, lo, hi)[0]
    # on the wavy curve the certificate matters: generated without it for a
    # Newton bracket (a < hi), in the loop and the tables' reach, the walk
    # would step over a wave.  The certificate of a piece where Newton
    # found no bracket (a = hi) stays, as the search of it begins with it
    monkeypatch.setattr(roots, "first_exit", search)
    monkeypatch.setattr(roots, "_certificate_source",
                        lambda names, refuse: certificate(names, f"if a == hi: {refuse}"))
    fresh = HomogeneousDistance(dist.law, dist.eps)     # its tables compile without it
    assert spherical_measure_upper(fresh, _wavy_curve(), 1, 0.1).ball_count == 22
    monkeypatch.undo()
    fresh = HomogeneousDistance(dist.law, dist.eps)
    assert len(_reach_by_reach(fresh, _wavy_curve(), 0.1, -1.0, 1.0)[0]) == 23


def test_walk_runs_in_one_call_per_interval(dist, monkeypatch):
    # a refused certificate is searched where it is refused, so the
    # generated loop never hands a reach back: on the curves whose
    # certificates refuse, each covered interval is one call of the walk
    calls, searches = [], []
    membership, search = HomogeneousDistance.membership, roots.first_exit

    def counted_membership(self, pieces, r):
        bracket, walk = membership(self, pieces, r)

        def counted(*state):
            calls.append(state[0])
            return walk(*state)

        return bracket, counted

    def counted_search(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(HomogeneousDistance, "membership", counted_membership)
    monkeypatch.setattr(roots, "first_exit", counted_search)
    intervals = [(-1.0, 0.25), (0.5, 1.0)]
    for curve, delta in ((_rough_curve(), 0.1), (_wavy_curve(), 0.1), (_cubic_curve(), 0.3)):
        calls.clear()
        searches.clear()
        fresh = HomogeneousDistance(dist.law, dist.eps)     # its tables compile with the count
        est = spherical_measure_upper(fresh, curve, 1, delta, intervals=intervals)
        assert searches and est.ball_count > len(intervals)
        assert calls == [lo for lo, _ in intervals]


def test_bench_walk_curve_keeps_its_ball_counts(dist):
    # the curve file of the benchmark's walk at seed 11, covered over
    # 2^-2..2^-5 as the benchmark covers it
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    doc = workloads.curve_doc(random.Random("walk:11"))
    curve = curve_from_samples(doc["samples"], 3)
    sched = covering_values(dist, curve, 2, [2.0 ** -k for k in range(2, 6)])
    assert sched.ball_counts == (17, 65, 257, 1026)


def _bench_walk_curve():
    """The curve file of the benchmark's walk at seed 11."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return curve_from_samples(workloads.curve_doc(random.Random("walk:11"))["samples"], 3)


# -- the exact cover referee (tests/cover_oracle.py) -----------------------------


def _refereed(curve, delta, interval):
    """(referee of the walk's balls, its verdict, its seams): the walk of
    ``spherical_measure_upper`` over the interval on heisenberg, its seams
    from the reach-by-reach walk, whose centers it has bit for bit."""
    dist = fixtures.distance("heisenberg")
    centers, seams = _reach_by_reach(dist, curve, delta, *interval)
    assert spherical_measure_upper(dist, curve, 1, delta, intervals=[interval]).centers == centers
    return (cover_oracle.Referee(dist, curve, delta, centers),
            cover_oracle.referee(dist, curve, delta, seams, interval), seams)


def _outside_every_ball(ref, t):
    return not any(ref.holds(j, t) for j in range(len(ref.centers)))


@pytest.mark.parametrize("case, delta, backward, gaps", [
    ("rough", 0.1, 31, [3, 5, 9, 30, 33, 34, 44, 62, 63, 79, 94, 100]),
    ("wavy", 0.1, 2, [0, 19]),
    ("wavy", 0.05, 1, [76])])
def test_referee_proves_the_walks_gaps(case, delta, backward, gaps):
    # pinned: the walk certifies (t, c) against the ball around gamma(t) and
    # never against the center's own (ROADMAP item 2), so on the curves that
    # double back or wave these balls leave proven gaps, each in its
    # backward claim, at a rational point no ball of radius delta (1 + 2^-40)
    # holds.  Every forward claim is proven
    curve = {"rough": _rough_curve, "wavy": _wavy_curve}[case]()
    ref, verdict, seams = _refereed(curve, delta, (-1.0, 1.0))
    assert (len(verdict.backward), verdict.forward, sorted(verdict.gaps), verdict.undecided) \
        == (backward, [], gaps, [])
    for i, t in verdict.gaps.items():
        assert seams[i][0] <= t <= seams[i][1] and _outside_every_ball(ref, t)


@pytest.mark.parametrize("case, delta", [("cubic", 0.3), ("parabola_lift", 2.0 ** -4),
                                         ("bench", 2.0 ** -3)])
def test_referee_proves_the_walks_covers(case, delta):
    # every claim of every ball proven alone
    curve = {"cubic": _cubic_curve, "bench": _bench_walk_curve,
             "parabola_lift": lambda: fixtures.curve("parabola_lift")}[case]()
    _, verdict, _ = _refereed(curve, delta, tuple(float(p) for p in curve.domain))
    assert verdict == cover_oracle.Verdict() and verdict.covered


def test_referee_finds_gaps_between_smaller_balls():
    # the cubic's centers at delta 0.3 judged as balls of radius 0.15: gaps,
    # each at a point that no ball of the smaller radius holds
    dist, curve = fixtures.distance("heisenberg"), _cubic_curve()
    centers, seams = _reach_by_reach(dist, curve, 0.3, -1.0, 1.0)
    verdict = cover_oracle.referee(dist, curve, 0.15, seams, (-1.0, 1.0))
    assert verdict.gaps and not verdict.covered and not verdict.undecided
    ref = cover_oracle.Referee(dist, curve, 0.15, centers)
    assert all(_outside_every_ball(ref, t) for t in verdict.gaps.values())


def test_referee_halves_are_the_bernstein_coefficients_of_each_half():
    # de Casteljau's integer sums give each half's coefficients up to one
    # positive factor: those of p(tau / 2) and of p((1 + tau) / 2)
    rng = random.Random(21)
    for degree in range(7):
        p = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(degree + 1)]
        whole = cover_oracle._bernstein(cover_oracle._poly(p))
        for half, shift in zip(cover_oracle._halves(whole), (0, 1)):
            q = [Fraction(0)] * (degree + 1)      # p((shift + tau) / 2)
            for k, c in enumerate(p):
                for j in range(k + 1):
                    q[j] += c * math.comb(k, j) * Fraction(shift) ** (k - j) / 2 ** k
            want = cover_oracle._bernstein(cover_oracle._poly(q))
            assert all(a * want[0] == b * half[0] for a, b in zip(half, want)) or \
                all(a * want[-1] == b * half[-1] for a, b in zip(half, want))
            assert all((a > 0) == (b > 0) and (a < 0) == (b < 0) for a, b in zip(half, want))


def test_bench_walk_generates_each_text_once(monkeypatch):
    # the curve file of the benchmark's walk at seed 1, covered as the benchmark
    # covers it: its d = 2 table has the layout of its d = 1 table, so it takes
    # that table's compiled reach, and only a text that is compiled is generated
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    curve = curve_from_samples(workloads.curve_doc(random.Random("walk:1"))["samples"], 3)
    calls = []
    monkeypatch.setattr(metric, "_membership_source",
                        lambda *args: calls.append(args) or _membership_source(*args))
    dist = fixtures.distance("heisenberg")
    covering_values(dist, curve, 2, [2.0 ** -k for k in range(2, 6)])
    (_, tables, compiled), = dist._tables.values()
    assert len(calls) == len(compiled) < len(tables)


def _zero_operands(source):
    """The arithmetic of ``source`` with a literal zero operand, as text."""
    def zero(node):
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return isinstance(node, ast.Constant) and node.value == 0
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and (zero(node.left) or zero(node.right))
            or isinstance(node, ast.AugAssign) and zero(node.value)]


def test_bench_walk_saves_every_operation_on_a_literal_zero(dist):
    # the loop generated for the d = 0 anchor table of the benchmark's curve
    # file, whose P_k(0) = -1 and P_k'(0) = 0 are written in as literals,
    # neither adds nor multiplies a literal zero: no 0.0 *, * 0.0 or + 0.0;
    # nor does the reach of its d = 0 and d = 1 tables
    pieces = _bench_walk_curve().pieces
    count = len(pieces[2])
    layout, _ = _layout(dist.law.divide_rows(*_anchor_rows(pieces, range(count), range(count))),
                        True)
    source = _membership_source(layout, dist._slices, "walk")
    assert "def walk(" in source and "-1.0" in source
    assert _zero_operands(source) == []
    for d in (0, 1):
        rows = _anchor_rows(pieces, range(count - d), range(d, count))
        layout, _ = _layout(dist.law.divide_rows(*rows), d == 0)
        source = _membership_source(layout, dist._slices, "reach")
        assert "def reach(" in source and _zero_operands(source) == []
    assert sorted(_zero_operands("v = (0.0) * g + c; d = 1 * -0.0; x -= 0.0")) == [
        "0.0 * g", "1 * -0.0", "x -= 0.0"]


def test_walk_centers_keep_their_bits(dist):
    # sha256 of the packed centers of walks on every kind of piece the
    # reaches meet; a center that moves by one bit changes its digest
    heis = dict(dist=dist, q=2)
    glued = fixtures.curve("glued_hv")
    low = degree_profile(dist.law, glued).low_degree_intervals
    cases = [
        (dict(heis, curve=fixtures.curve("vertical"), delta=2.0 ** -6), 4096,
         "5fb05a733cb5f3ef8de90f1fcfd76304aec5bf2c60e326830eac9528f8aced3f"),
        (dict(heis, curve=fixtures.curve("parabola_lift"), delta=2.0 ** -6), 2049,
         "c32feea75dd298c365838c0fd45ed4498a2c7e3598c1ca45402ff0d9bb85923f"),
        # a ball on either vertical line spans 2 delta^q = 2^-11 of it: the same centers
        (dict(dist=fixtures.distance("engel"), curve=fixtures.curve("engel_vertical"), q=3,
              delta=2.0 ** -4), 4096,
         "5fb05a733cb5f3ef8de90f1fcfd76304aec5bf2c60e326830eac9528f8aced3f"),
        (dict(heis, curve=_bench_walk_curve(), delta=2.0 ** -5), 1026,
         "3596f12da8c71c24401844941a706457f8ffe7297daa7e766bc8604704f01399"),
        # the negligibility walk, over the low-degree set of glued_hv (about [-1, 0])
        (dict(heis, curve=glued, delta=2.0 ** -10, intervals=low), 513,
         "5e7331aa0627e15da78762a84b1971ccc2abf7406eadc10e47018be109d18637"),
    ]
    for kwargs, balls, digest in cases:
        centers = spherical_measure_upper(**kwargs).centers
        assert len(centers) == balls
        assert hashlib.sha256(struct.pack(f"<{balls}d", *centers)).hexdigest() == digest
    assert negligibility_estimate(dist, glued, [2.0 ** -10]).ball_counts == (513,)


def test_covering_ends_at_the_domain_end(dist):
    # a walk whose first ball reaches the end of the domain places one ball,
    # also on an interval shorter than the walk's guard and on the end point
    par = fixtures.curve("parabola_lift")
    for iv in ((0.9999999999999, 1.0), (1.0, 1.0)):
        est = spherical_measure_upper(dist, par, 2, 0.25, intervals=[iv])
        assert est.ball_count == 1, iv


def test_covering_below_float_resolution_is_a_resolution_error():
    # on layer 3, (1 / delta)^6 overflows
    with pytest.raises(NumericalResolutionError, match="below float resolution"):
        spherical_measure_upper(fixtures.distance("engel"), fixtures.curve("engel_vertical"),
                                3, 1e-60)
    # with nothing to cover, no ball's polynomials are built: the value is 0
    est = spherical_measure_upper(fixtures.distance("engel"), fixtures.curve("engel_vertical"),
                                  3, 1e-60, intervals=[])
    assert (est.value, est.ball_count) == (0.0, 0)


def test_covering_rejects_bad_exponents_and_intervals(dist):
    par = fixtures.curve("parabola_lift")
    for q in (0.0, -1.0):
        with pytest.raises(ValueError, match="q must be positive"):
            spherical_measure_upper(dist, par, q, 0.25)
    # the domain is (-1, 1): nothing may be clipped or extrapolated
    for iv in ((2.0, 3.0), (0.5, 3.0), (-1.5, 0.0)):
        with pytest.raises(ValueError, match=r"domain \[-1.0, 1.0\]"):
            spherical_measure_upper(dist, par, 2, 0.25, intervals=[iv])
        with pytest.raises(ValueError, match=r"domain \[-1.0, 1.0\]"):
            area_formula_residual(dist, par, deltas=[0.25, 0.125], interval=iv)
    # an interval that ends before it starts covers nothing: refused, not 0
    with pytest.raises(ValueError, match="ends before it starts"):
        spherical_measure_upper(dist, par, 2, 0.25, intervals=[(0.5, 0.2)])
    with pytest.raises(ValueError, match="ends before it starts"):
        area_formula_residual(dist, par, deltas=[0.25, 0.125], interval=(0.5, 0.2))
    # the closed domain itself is accepted
    assert spherical_measure_upper(dist, par, 2, 0.25, intervals=[(-1.0, 1.0)]).ball_count == 9
    # a nan delta passed delta <= 0 and spun through the halving budget
    for delta in (math.nan, math.inf, 0.0, -0.25):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            spherical_measure_upper(dist, par, 2, delta)
    for q in (math.nan, math.inf):
        with pytest.raises(ValueError, match="q must be positive and finite"):
            spherical_measure_upper(dist, par, q, 0.25)
    # delta ** q, or the sum over the balls, past the largest float: an
    # OverflowError traceback before
    with pytest.raises(NumericalResolutionError, match=r"delta \*\* q overflows"):
        spherical_measure_upper(dist, par, 2, 1e308)
    with pytest.raises(NumericalResolutionError, match="covering value of 2 balls"):
        spherical_measure_upper(dist, par, 1, 1.5e308, intervals=[(-1.0, -0.5), (0.5, 1.0)])
    assert spherical_measure_upper(dist, par, 1, 1.5e308).value == 1.5e308
    # delta ** q below the smallest float: a covering value of 0 for a
    # non-empty set before
    with pytest.raises(NumericalResolutionError, match=r"delta \*\* q underflows"):
        spherical_measure_upper(dist, par, 5, 1e-70, intervals=[(0.5, 0.5)])
    assert spherical_measure_upper(dist, par, 5, 1e-64, intervals=[(0.5, 0.5)]).value == 1e-320


def test_covering_of_a_constant_curve_is_one_ball(dist):
    # z = x^-1 * y vanishes on every piece: no layer has a polynomial, and
    # the one ball reaches the end of the domain
    still = polynomial_curve(np.array([[[0.1], [0.2], [0.3]], [[0.0], [0.0], [0.0]]]),
                             (-1.0, 1.0), ())
    est = spherical_measure_upper(dist, still, 1, 0.25)
    assert (est.ball_count, est.centers) == (1, (1.0,))


def test_covering_ball_limit(dist, monkeypatch):
    monkeypatch.setattr(measure, "MAX_BALLS", 10)
    with pytest.raises(NumericalResolutionError, match="exceeded 10 balls"):
        spherical_measure_upper(dist, fixtures.curve("vertical"), 2, 2.0 ** -6,
                                intervals=[(0.0, 1.0)])


def test_schedules_and_intervals_may_be_iterators(dist):
    # each entry reads its schedule and its interval list once: given iter(x)
    # it reports what it reports given x.  Before, a cover's validation used
    # up its intervals (0 balls, value 0.0), a schedule reported deltas=(),
    # and blow-up and divergence ended in IndexError and numpy's TypeError
    hor, par, vert = (fixtures.curve(name) for name in ("horizontal", "parabola_lift",
                                                         "vertical"))
    cases = [(spherical_measure_upper, (dist, hor, 1, 0.25), "intervals", [(-1.0, 1.0)]),
             (covering_values, (dist, par, 2), "deltas", [0.5, 0.25]),
             (covering_values, (dist, par, 2, [0.5, 0.25]), "intervals",
              [(-1.0, -0.5), (0.0, 1.0)]),
             (area_formula_residual, (dist, par), "deltas", [0.5, 0.25]),
             (negligibility_estimate, (dist, fixtures.curve("glued_hv")), "deltas", [0.5, 0.25]),
             (blowup_sequence, (dist, vert, 0.0), "radii", [0.5, 0.25]),
             (density_divergence, (dist, par, 0.0), "radii", [0.5, 0.25])]
    for call, args, name, x in cases:
        want = call(*args, **{name: x})
        assert call(*args, **{name: iter(x)}) == want, (call.__name__, name)
    assert spherical_measure_upper(dist, hor, 1, 0.25, intervals=[(-1.0, 1.0)]).ball_count == 4


def test_covering_values_and_extrapolation(dist):
    sched = covering_values(dist, fixtures.curve("parabola_lift"), 2,
                            [2.0 ** -k for k in range(2, 7)])
    vals = sched.values
    assert all(b >= a for a, b in zip(vals[1:], vals))   # decreasing toward the limit
    assert sched.ball_counts == (9, 33, 129, 513, 2049)
    # the benchmark's cover of the same curve on [0, 1]
    half = covering_values(dist, fixtures.curve("parabola_lift"), 2,
                           [2.0 ** -k for k in range(2, 6)], intervals=[(0.0, 1.0)])
    assert half.ball_counts == (5, 17, 65, 257)
    assert sched.extrapolated == pytest.approx(0.5, abs=2e-4)


def test_richardson_on_synthetic_sequences():
    geom = [1.0 + 2.0 ** -k for k in range(8)]
    assert richardson_extrapolate(geom) == pytest.approx(1.0, abs=1e-9)
    flat = [0.5, 0.5, 0.5]
    assert richardson_extrapolate(flat) == 0.5
    short = [0.7, 0.6]
    assert richardson_extrapolate(short) == 0.6
    with pytest.raises(ValueError, match="empty"):
        richardson_extrapolate([])


def test_blowup_refuses_an_empty_radius_schedule(dist):
    with pytest.raises(ValueError, match="empty"):
        blowup_sequence(dist, fixtures.curve("vertical"), 0.0, [])


# -- area formula ---------------------------------------------------------------------


def test_area_residual_straight_segments(dist):
    for name, interval in (("horizontal", (0.0, 1.0)), ("vertical", (0.0, 1.0))):
        rep = area_formula_residual(dist, fixtures.curve(name), interval=interval,
                                    deltas=[2.0 ** -k for k in range(2, 6)])
        assert rep.residual < 1e-6, name
        assert not rep.low_degree_warning


def test_area_residual_parabola(dist):
    rep = area_formula_residual(dist, fixtures.curve("parabola_lift"),
                                deltas=[2.0 ** -k for k in range(2, 7)])
    assert rep.rhs == pytest.approx(1.0, rel=1e-8)
    assert rep.residual < 5e-3


def test_area_residual_engel_vertical():
    edist = fixtures.distance("engel")
    rep = area_formula_residual(edist, fixtures.curve("engel_vertical"),
                                interval=(0.0, 1.0),
                                deltas=[2.0 ** -k for k in range(2, 5)])
    assert rep.q == 3
    assert rep.c_q == pytest.approx(2.0)
    assert rep.residual < 1e-6
    assert rep.covering.ball_counts == (32, 256, 2048)


def test_area_flags_fat_low_degree_set(dist):
    rep = area_formula_residual(dist, fixtures.curve("glued_hv"),
                                deltas=[2.0 ** -k for k in range(2, 5)])
    assert rep.low_degree_warning


# -- negligibility and the density lemma ------------------------------------------------


def test_negligibility_glued(dist):
    deltas = [2.0 ** -k for k in range(2, 9)]
    rep = negligibility_estimate(dist, fixtures.curve("glued_hv"), deltas)
    assert rep.q == 2
    vals = rep.values
    assert all(v > 0 for v in vals)
    for a, b in zip(vals, vals[1:]):
        assert b / a <= 0.6
    assert rep.ball_counts == (3, 5, 9, 17, 33, 65, 129)


def test_negligibility_empty_set_is_zero(dist):
    rep = negligibility_estimate(dist, fixtures.curve("vertical"), [0.25, 0.125])
    assert rep.values == (0.0, 0.0)
    assert rep.intervals == ()
    assert rep.ball_counts == (0, 0)
    assert all(type(c) is int for c in rep.ball_counts)
    # an empty schedule is refused, whether or not the set is empty
    for name in ("vertical", "glued_hv"):
        with pytest.raises(ValueError, match="empty"):
            negligibility_estimate(dist, fixtures.curve(name), [])
    with pytest.raises(ValueError, match="empty"):
        covering_values(dist, fixtures.curve("vertical"), 2, [])


# -- invariance ----------------------------------------------------------------------


def test_ball_measure_left_invariant(heis, dist):
    glued = fixtures.curve("glued_hv")
    moved = translate_curve(heis, np.array([0.4, -0.3, 0.7]), glued)
    for t0, r in ((0.5, 0.2), (-0.4, 0.3)):
        a = ball_intersection_measure(dist, glued, t0, r, metric="left").measure
        b = ball_intersection_measure(dist, moved, t0, r, metric="left").measure
        assert b == pytest.approx(a, rel=1e-6)


def test_covering_value_dilation_covariance(heis, dist):
    vert = fixtures.curve("vertical")
    sched = covering_values(dist, vert, 2, [2.0 ** -k for k in range(2, 6)],
                            intervals=[(0.0, 1.0)])
    assert sched.ball_counts == (8, 32, 128, 512)
    base = sched.extrapolated
    for s in (0.5, 2.0):
        scaled = covering_values(dist, dilate_curve(heis, s, vert), 2,
                                 [2.0 ** -k for k in range(2, 6)],
                                 intervals=[(0.0, 1.0)]).extrapolated
        assert scaled == pytest.approx(s ** 2 * base, rel=1e-3)
