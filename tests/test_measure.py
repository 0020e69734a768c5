import math

import numpy as np
import pytest

from gradedgroups import fixtures
from gradedgroups.curve import Curve, curve_from_samples, dilate_curve, translate_curve
from gradedgroups.measure import (NumericalResolutionError, _forward_reach,
                                  area_formula_residual, ball_param_set,
                                  ball_intersection_measure, blowup_sequence,
                                  covering_values, density_divergence,
                                  federer_density_check,
                                  negligibility_estimate,
                                  richardson_extrapolate, riemannian_length,
                                  spherical_measure_upper)
from gradedgroups.metric import HomogeneousDistance


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
    ((lo, hi),) = intervals
    assert lo <= 0.3 <= hi and not truncated


def test_ball_set_disconnected_components(heis, dist):
    def pos(t):
        t = np.asarray(t, dtype=float)
        z = np.zeros_like(t)
        return np.stack([z, z, np.sin(3 * np.pi * t)], axis=-1)

    def vel(t):
        t = np.asarray(t, dtype=float)
        z = np.zeros_like(t)
        return np.stack([z, z, 3 * np.pi * np.cos(3 * np.pi * t)], axis=-1)

    wave = Curve(domain=(-1.0, 1.0), n=3, position=pos, velocity=vel)
    r = 0.25
    intervals, truncated = ball_param_set(dist, wave, 0.0, r)
    assert truncated                      # half-windows at both domain ends
    assert len(intervals) == 7            # zeros of sin(3 pi t) in [-1, 1]
    bi = ball_intersection_measure(dist, wave, 0.0, r)
    # |z| sweeps out r^2 twice per interior window, once per boundary half
    assert bi.measure == pytest.approx(5 * 2 * r ** 2 + 2 * r ** 2, rel=1e-6)

    # independent check: dense Riemann sum of the indicator times the speed
    ts = np.linspace(-1.0, 1.0, 400001)
    x0 = wave.position_at(0.0)
    inside = dist.norm(heis.multiply(-x0, wave.positions(ts))) < r
    speeds = np.linalg.norm(wave.velocities(ts), axis=-1)
    riemann = float(np.trapezoid(inside * speeds, ts))
    assert bi.measure == pytest.approx(riemann, abs=2e-4)


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


def test_forward_reach_brackets_the_first_exit(dist):
    # on the vertical line d(0, t) = sqrt(t); with guess 0.3 the ladder
    # probes ..., 0.15, 0.3, 0.6 and then the cap 1, so an exit at t = 0.8
    # lies between the last ladder point and the cap
    vert = fixtures.curve("vertical")
    d0 = dist.distance_from(vert.position_at(0.0))
    reach = _forward_reach(d0, vert, 0.0, 1.0, math.sqrt(0.8), 0.3)
    assert 0.8 * (1 - 1e-12) <= reach <= 0.8 * (1 + 1e-15)
    assert _forward_reach(d0, vert, 0.0, 1.0, 2.0, 0.3) == 1.0        # all inside
    assert _forward_reach(d0, vert, 0.0, 1.0, 1e-10, 0.3) == 0.0      # below the floor


def test_forward_reach_exact_guess_takes_one_probe(dist):
    # d(0, t) = sqrt(t) on the vertical line, so r = 0.5 leaves the ball at
    # t = 0.25: a guess on the exit settles the reach in the predicting probe
    vert = fixtures.curve("vertical")
    d0 = dist.distance_from(vert.position_at(0.0))
    calls = []

    def counted(y):
        calls.append(len(y))
        return d0(y)

    assert _forward_reach(counted, vert, 0.0, 1.0, 0.5, 0.25) == 0.25
    assert len(calls) == 1
    # from t = 0.75 with r = 2^-7 the exit is 2^-14 ahead; the guess pair
    # stays a float spacing of 0.75 + 2^-14 apart, so one probe settles it too
    d0 = dist.distance_from(vert.position_at(0.75))
    calls.clear()
    assert _forward_reach(counted, vert, 0.75, 1.0, 2.0 ** -7, 2.0 ** -14) == 0.75 + 2.0 ** -14
    assert len(calls) == 1


def _sampled_curve():
    ts = np.linspace(-1.0, 1.0, 17)
    w = math.pi
    return curve_from_samples(
        [{"t": t,
          "position": [0.1 * math.sin(w * t), 0.05 * math.cos(w * t), t + 0.05 * math.sin(2 * w * t)],
          "velocity": [0.1 * w * math.cos(w * t), -0.05 * w * math.sin(w * t),
                       1.0 + 0.1 * w * math.cos(2 * w * t)]} for t in ts], 3)


@pytest.mark.parametrize("name, start, r", [
    ("parabola_lift", 0.1, 0.2), ("engel_vertical", -0.3, 0.3), ("sampled", 0.2, 0.15)])
def test_forward_reach_matches_a_scalar_bisection(name, start, r):
    curve = _sampled_curve() if name == "sampled" else fixtures.curve(name)
    group = "engel" if name == "engel_vertical" else "heisenberg"
    dfun = fixtures.distance(group).distance_from(curve.position_at(start))
    cap = curve.domain[1]

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

    for guess in (None, exit_, exit_ * (1 + 1e-3), exit_ * (1 - 1e-3), 0.5 * exit_,
                  3.0 * exit_, 10.0 * (cap - start)):
        reach = _forward_reach(dfun, curve, start, cap, r, guess)
        assert dfun(curve.position_at(reach)) <= r, guess
        assert abs(reach - lo) <= 1e-12 * exit_ + 1e-16, (guess, reach - lo)


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
    # the closed domain itself is accepted
    assert spherical_measure_upper(dist, par, 2, 0.25, intervals=[(-1.0, 1.0)]).ball_count == 9


def test_covering_ball_limit(dist):
    with pytest.raises(NumericalResolutionError):
        spherical_measure_upper(dist, fixtures.curve("vertical"), 2, 2.0 ** -6,
                                intervals=[(0.0, 1.0)], max_balls=10)


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


def test_federer_check_on_straight_piece(dist):
    rep = federer_density_check(dist, fixtures.curve("glued_hv"), [(-1.0, 0.0)],
                                a=1.0, kappa=0.9,
                                radii=[2.0 ** -k for k in range(4, 9)],
                                deltas=[2.0 ** -k for k in range(2, 7)])
    assert not rep.vacuous
    assert rep.all_dense                  # interior density is 2 > kappa
    assert rep.mu == pytest.approx(1.0, rel=1e-9)
    assert rep.covering_upper == pytest.approx(0.5, rel=1e-6)
    assert rep.inequality_ok


def test_federer_check_vacuous_without_intervals(dist):
    rep = federer_density_check(dist, fixtures.curve("vertical"), [],
                                a=2.0, kappa=0.5)
    assert rep.vacuous
    assert rep.inequality_ok


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
