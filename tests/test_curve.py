import importlib.util
import math
import random
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from gradedgroups import fixtures
from gradedgroups.curve import (TOL_REL, Curve, ZeroVelocityError, adapted_basis,
                                curve_degree, curve_from_samples,
                                degree_profile, dilate_curve,
                                linear_image_curve, little_o_check,
                                pointwise_degree, polynomial_curve,
                                recentered_curve,
                                tangent_projection, translate_curve)


@pytest.fixture(scope="module")
def heis():
    return fixtures.group_law("heisenberg")


@pytest.fixture(scope="module")
def engel():
    return fixtures.group_law("engel")


# -- degrees -----------------------------------------------------------------


def test_pointwise_degrees(heis):
    assert pointwise_degree(heis, fixtures.curve("vertical"), 0.3) == 2
    assert pointwise_degree(heis, fixtures.curve("horizontal"), 0.3) == 1
    assert pointwise_degree(heis, fixtures.curve("parabola_lift"), 0.5) == 2
    assert pointwise_degree(heis, fixtures.curve("parabola_lift"), 0.0) == 1
    assert pointwise_degree(heis, fixtures.curve("glued_hv"), -0.5) == 1
    assert pointwise_degree(heis, fixtures.curve("glued_hv"), 0.5) == 2


def test_engel_vertical_degree(engel):
    assert pointwise_degree(engel, fixtures.curve("engel_vertical"), 0.1) == 3


def test_zero_velocity_rejected(heis):
    still = polynomial_curve(np.zeros((1, 3, 1)), (-1, 1))
    with pytest.raises(ZeroVelocityError):
        pointwise_degree(heis, still, 0.0)
    with pytest.raises(ZeroVelocityError, match="velocity vanishes"):
        degree_profile(heis, still, 8)
    # a velocity whose square underflows is still a velocity
    slow = dilate_curve(heis, 1e-85, fixtures.curve("vertical"))
    assert degree_profile(heis, slow, 8).degree == 2


def test_curve_takes_no_callables():
    # positions and velocities are evaluated on the table, so no callable can be handed in
    vert = fixtures.curve("vertical")
    with pytest.raises(TypeError):
        Curve(domain=vert.domain, pieces=vert.pieces, position=vert.positions,
              velocity=vert.velocities)
    ts = np.linspace(-0.5, 0.5, 4)
    assert vert.positions(ts).shape == (4, 3) and vert.velocity_at(0.0).shape == (3,)


def test_degree_profile_vertical(heis):
    prof = degree_profile(heis, fixtures.curve("vertical"), 128)
    assert prof.degree == 2
    assert prof.low_degree_intervals == ()
    assert np.all(prof.degrees == 2)


def test_degree_profile_glued(heis):
    prof = degree_profile(heis, fixtures.curve("glued_hv"), 512)
    assert prof.degree == 2
    assert len(prof.low_degree_intervals) == 1
    lo, hi = prof.low_degree_intervals[0]
    assert lo == pytest.approx(-1.0, abs=1e-6)
    assert hi == pytest.approx(0.0, abs=1e-6)
    # the horizontal piece lies in the set whole, up to the domain's end
    assert lo == -1.0
    # past the break lam_3 = t, so the set ends where t = TOL_REL |lam|, to
    # the 1e-12 * span to which ends are solved
    assert TOL_REL - 2e-12 <= hi <= TOL_REL


def test_curve_degree_is_the_profile_degree():
    # on every builtin curve and the benchmark walk's curve files, at a few
    # grid sizes: the grid maximum alone, without the low-degree search
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cases = [(fixtures.curve_fixture(name).group, fixtures.curve(name))
             for name in fixtures.curve_names()]
    cases += [("heisenberg", curve_from_samples(
        workloads.curve_doc(random.Random(f"walk:{seed}"))["samples"], 3)) for seed in (1, 11)]
    for group, curve in cases:
        law = fixtures.group_law(group)
        for grid in (64, 511, 512):
            assert curve_degree(law, curve, grid) == degree_profile(law, curve, grid).degree, \
                (curve.name, grid)
        assert type(curve_degree(law, curve)) is int


def test_degree_profile_parabola_pinpoints_origin(heis):
    # 511 cells put no grid point at t = 0, where parabola_lift drops degree
    for grid in (256, 511):
        prof = degree_profile(heis, fixtures.curve("parabola_lift"), grid)
        assert prof.degree == 2
        assert len(prof.low_degree_intervals) == 1
        lo, hi = prof.low_degree_intervals[0]
        # the degree drops only at t = 0; with the relative threshold the
        # detected interval is a tol-sized sliver around it
        assert lo < 0.0 < hi
        assert hi - lo < 1e-6
        assert prof.exponents == (0.5, 0.5, 1.0)
    assert not (prof.grid == 0.0).any() and (prof.degrees == 2).all()


# -- sampled curves ----------------------------------------------------------


def test_curve_from_samples_honors_nodes():
    samples = [
        {"t": 0.0, "position": [0.0, 0.0, 0.0], "velocity": [1.0, 0.0, 0.0]},
        {"t": 1.0, "position": [1.0, 0.2, 0.1], "velocity": [1.0, 0.4, 0.3]},
        {"t": 2.0, "position": [2.0, 1.0, 0.5], "velocity": [1.0, 1.2, 0.5]},
    ]
    cv = curve_from_samples(samples, 3)
    assert cv.domain == (0.0, 2.0)
    for s in samples:
        assert np.allclose(cv.position_at(s["t"]), s["position"], atol=1e-12)
        assert np.allclose(cv.velocity_at(s["t"]), s["velocity"], atol=1e-12)


def test_curve_from_samples_reproduces_a_cubic():
    def pos(t):
        return np.stack([t, 0.5 * t * t - t, t ** 3 / 3.0 - 0.25 * t], axis=-1)

    def vel(t):
        return np.stack([np.ones_like(t), t - 1.0, t * t - 0.25], axis=-1)

    nodes = np.array([-1.0, -0.6, -0.05, 0.3, 0.35, 1.0])
    cv = curve_from_samples([{"t": t, "position": pos(t).tolist(), "velocity": vel(t).tolist()}
                             for t in nodes], 3)
    assert cv.breaks == tuple(nodes[1:-1])     # the interior nodes choose the piece
    ts = np.linspace(-1.0, 1.0, 401)
    assert np.allclose(cv.positions(ts), pos(ts), rtol=0.0, atol=1e-14)
    assert np.allclose(cv.velocities(ts), vel(ts), rtol=0.0, atol=1e-14)
    # every node but the last starts a piece, which reads its sample exactly
    for t in nodes[:-1]:
        assert np.array_equal(cv.position_at(t), pos(t))
        assert np.array_equal(cv.velocity_at(t), vel(t))
    assert np.allclose(cv.position_at(1.0), pos(1.0), rtol=0.0, atol=1e-15)


def test_curve_from_samples_validation():
    good = {"t": 0.0, "position": [0.0, 0.0, 0.0], "velocity": [1.0, 0.0, 0.0]}
    with pytest.raises(ValueError):
        curve_from_samples([good], 3)
    bad_order = [good, {"t": 0.0, "position": [1, 0, 0], "velocity": [1, 0, 0]}]
    with pytest.raises(ValueError, match="strictly increasing"):
        curve_from_samples(bad_order, 3)
    with pytest.raises(ValueError):
        curve_from_samples([good, {"t": 1.0, "position": [1, 0], "velocity": [1, 0]}], 3)


def test_curve_from_samples_refuses_non_finite_samples():
    good = [{"t": float(t), "position": [t, 0.0, 0.0], "velocity": [1.0, 0.0, 0.0]}
            for t in (0.0, 1.0, 2.0)]
    for key, value, what in (("t", math.inf, "t"),
                             ("position", [1.0, math.nan, 0.0], "position"),
                             ("velocity", [1.0, 0.0, -math.inf], "velocity")):
        samples = [dict(s) for s in good]
        samples[1][key] = value
        with pytest.raises(ValueError, match=f"sample 1 .*non-finite {what}"):
            curve_from_samples(samples, 3)


# -- piecewise-polynomial curves ------------------------------------------------


def _three_pieces():
    """Table (4, 2, 3) with constant, varying and zero coefficients, breaks, origins."""
    coef = np.random.default_rng(5).normal(size=(4, 2, 3))
    coef[0, 0] = 1.5            # constant on every piece
    coef[2, 0] = 0.0            # zero on every piece
    coef[1, 1] = -0.25
    return coef, (-0.2, 0.4), (-1.0, -0.2, 0.4)


def test_polynomial_curve_matches_polyval():
    coef, breaks, origins = _three_pieces()
    cv = polynomial_curve(coef, (-1.0, 1.0), breaks, origins)
    assert cv.breaks == breaks and cv.n == 2

    def expected(ts, table):
        m = np.searchsorted(breaks, ts, side="right")
        s = ts - np.take(origins, m)
        return np.stack([P.polyval(s, table[:, j, m], tensor=False) for j in range(2)], axis=-1)

    dcoef = P.polyder(coef, axis=0)
    grid = np.linspace(-1.5, 1.5, 31)            # outside the domain too
    on_breaks = np.array([[-1.3, -0.2], [0.4, 1.2]])
    for ts in (np.asarray(0.1), grid, on_breaks, grid[:30].reshape(5, 6)):
        assert cv.positions(ts).shape == ts.shape + (2,)
        assert np.allclose(cv.positions(ts), expected(ts, coef), rtol=1e-13, atol=1e-13)
        assert np.allclose(cv.velocities(ts), expected(ts, dcoef), rtol=1e-13, atol=1e-13)
    # a break starts the piece after it, which reads its constant term exactly
    for t, m in zip(breaks, (1, 2)):
        assert np.array_equal(cv.position_at(t), coef[0, :, m])
        assert np.array_equal(cv.velocity_at(t), coef[1, :, m])

    def power_sum(ts, table):
        # ascending sum of c_k s^k, s^k = s^(k-1) * s, the terms zero on every piece left out
        m = np.searchsorted(breaks, ts, side="right")
        s = ts - np.take(origins, m)
        powers = [None, s]
        while len(powers) < len(table):
            powers.append(powers[-1] * s)
        out = []
        for j in range(table.shape[1]):
            v = None
            for k in np.flatnonzero(table[:, j].any(axis=1)):
                term = table[k, j, m] if k == 0 else table[k, j, m] * powers[k]
                v = term if v is None else v + term
            out.append(np.zeros_like(s) if v is None else v)
        return np.stack(out, axis=-1)

    for ts in (np.asarray(0.1), grid, on_breaks):
        assert np.array_equal(cv.positions(ts), power_sum(ts, coef))
        assert np.array_equal(cv.velocities(ts), power_sum(ts, dcoef))

    # where s^2 overflows, a coordinate without an s^2 term stays c0 + c1 s
    wide = polynomial_curve([[[1.0], [2.0]], [[3.0], [1e-200]], [[0.0], [1e-300]]], (0.0, 1e200))
    with np.errstate(over="ignore"):
        at = wide.positions(np.array([1e199]))
    assert at[0, 0] == 1.0 + 3.0 * 1e199 and np.isinf(at[0, 1])
    assert np.array_equal(wide.velocities(np.array([1e199])), [[3.0, 1e-200 + 2e-300 * 1e199]])


@pytest.mark.parametrize("change, match", [
    ({"coef": np.zeros((4, 2))}, "shape"),
    ({"coef": np.full((4, 2, 3), np.nan)}, "not finite"),
    ({"origins": (-1.0, 0.4)}, "origins"),
    ({"breaks": (0.4, -0.2)}, "strictly"),
    ({"breaks": (-0.2, 1.0)}, "strictly"),
    ({"domain": (1.0, -1.0)}, "strictly"),
    ({"domain": (-1.0, math.inf)}, "finite domain"),
])
def test_polynomial_curve_refuses_malformed_input(change, match):
    coef, breaks, origins = _three_pieces()
    args = {"coef": coef, "domain": (-1.0, 1.0), "breaks": breaks, "origins": origins, **change}
    with pytest.raises(ValueError, match=match):
        polynomial_curve(**args)


def test_builtin_velocities_are_derivatives_of_positions():
    h = 1e-6
    for name in fixtures.curve_names():
        fx = fixtures.curve_fixture(name)
        cv = fx.curve
        assert cv.n == fixtures.group_law(fx.group).n
        ts = np.linspace(-0.95, 0.95, 39)
        ts = ts[np.all(np.abs(ts[:, None] - np.array([*cv.breaks, 2.0])) > 1e-3, axis=1)]
        central = (cv.positions(ts + h) - cv.positions(ts - h)) / (2 * h)
        assert np.allclose(cv.velocities(ts), central, rtol=0.0, atol=1e-8), name


# -- tangent projections and adapted bases ------------------------------------


def test_tangent_projection_parabola(heis):
    par = fixtures.curve("parabola_lift")
    proj, mag = tangent_projection(heis, par, 1.0, 2)
    assert mag == pytest.approx(1.0 / math.sqrt(2.0))
    assert np.allclose(proj, [0.0, 0.0, 1.0 / math.sqrt(2.0)])
    proj1, mag1 = tangent_projection(heis, par, 1.0, 1)
    assert mag1 == pytest.approx(1.0 / math.sqrt(2.0))
    assert np.allclose(proj1, [1.0 / math.sqrt(2.0), 0.0, 0.0])


def test_tangent_projection_vertical_is_whole_tangent(heis):
    proj, mag = tangent_projection(heis, fixtures.curve("vertical"), 0.2, 2)
    assert mag == pytest.approx(1.0)
    assert np.allclose(proj, [0.0, 0.0, 1.0])
    for layer in (0, -1, 3):        # no such layer, not an empty projection
        with pytest.raises(ValueError, match="out of range"):
            tangent_projection(heis, fixtures.curve("vertical"), 0.2, layer)


def test_adapted_basis_vertical(heis):
    basis = adapted_basis(heis, fixtures.curve("vertical"), 0.2, 2)
    assert basis.i0 == 2
    assert np.allclose(basis.rotation, np.eye(3))


def test_adapted_basis_downward_vertical(heis):
    down = linear_image_curve(np.diag([1, 1, -1]), fixtures.curve("vertical"))
    basis = adapted_basis(heis, down, 0.2, 2)
    assert basis.rotation[2, 2] == pytest.approx(-1.0)


def test_adapted_basis_rotated_horizontal(heis):
    basis = adapted_basis(heis, fixtures.curve("rotated_horizontal"), 0.3, 1)
    s = 1.0 / math.sqrt(2.0)
    assert basis.i0 == 0
    assert np.allclose(basis.rotation[:2, 0], [s, s])
    assert np.allclose(basis.rotation.T @ basis.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(basis.rotation[2, :2], 0.0)


def test_adapted_basis_requires_matching_degree(heis):
    with pytest.raises(ValueError):
        adapted_basis(heis, fixtures.curve("horizontal"), 0.3, 2)


# -- curve transforms ----------------------------------------------------------


def test_translate_curve_positions_and_velocities(heis):
    par = fixtures.curve("parabola_lift")
    z = np.array([0.3, -0.4, 0.2])
    moved = translate_curve(heis, z, par)
    ts = np.linspace(-0.9, 0.9, 7)
    assert np.allclose(moved.positions(ts),
                       heis.multiply(z, par.positions(ts)))
    h = 1e-6
    for t in (-0.5, 0.2, 0.8):
        fd = (moved.position_at(t + h) - moved.position_at(t - h)) / (2 * h)
        assert np.allclose(moved.velocity_at(t), fd, atol=1e-8)
    vels = moved.velocities(ts)
    for i, t in enumerate(ts):
        assert np.array_equal(vels[i], moved.velocity_at(t))


def test_dilate_curve(heis):
    vert = fixtures.curve("vertical")
    big = dilate_curve(heis, 2.0, vert)
    assert np.allclose(big.position_at(0.5), [0.0, 0.0, 2.0])
    assert np.allclose(big.velocity_at(0.5), [0.0, 0.0, 4.0])


def test_linear_image_curve(heis):
    m = np.diag([2.0, 3.0, 6.0])
    im = linear_image_curve(m, fixtures.curve("parabola_lift"))
    assert np.allclose(im.position_at(1.0), [2.0, 0.0, 3.0])
    assert np.allclose(im.velocity_at(1.0), [2.0, 0.0, 6.0])


def test_dilations_and_linear_images_keep_the_table(heis):
    # the images are built from mapped tables, and read what mapping the
    # points of the curve gives
    m = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    ts = np.linspace(-1.0, 1.0, 401)
    sampled = curve_from_samples(
        [{"t": t, "position": [np.sin(3 * t), t * t, np.cos(t)],
          "velocity": [3 * np.cos(3 * t), 2 * t, -np.sin(t)]} for t in np.linspace(-1, 1, 9)], 3)
    for curve in (*(fixtures.curve(name) for name in fixtures.curve_names()
                    if fixtures.curve_fixture(name).group == "heisenberg"), sampled):
        weights = np.array([0.5 ** d for d in heis.degrees])
        for image, expect in ((dilate_curve(heis, 0.5, curve), lambda x: x * weights),
                              (linear_image_curve(m, curve), lambda x: x @ m.T)):
            assert image.pieces is not None and image.breaks == curve.breaks
            for read in ("positions", "velocities"):
                want = expect(getattr(curve, read)(ts))
                np.testing.assert_allclose(getattr(image, read)(ts), want, rtol=1e-15,
                                           atol=1e-15 * np.abs(want).max())


def test_translations_and_recenterings_keep_the_table(heis, engel):
    # the translated table reads law.multiply(z, gamma(t)) and the
    # recentered one gamma(t0)^-1 * gamma(t0 + h), on every builtin curve
    # and a sampled one; the velocities are the pushed-forward ones
    sampled = curve_from_samples(
        [{"t": t, "position": [np.sin(3 * t), t * t, np.cos(t)],
          "velocity": [3 * np.cos(3 * t), 2 * t, -np.sin(t)]} for t in np.linspace(-1, 1, 9)], 3)
    curves = [(fixtures.group_law(fixtures.curve_fixture(name).group), fixtures.curve(name))
              for name in fixtures.curve_names()] + [(heis, sampled)]
    ts = np.linspace(-0.999, 0.999, 401)
    rng = np.random.default_rng(3)
    for law, curve in curves:
        z = rng.normal(size=curve.n)
        moved = translate_curve(law, z, curve)
        assert moved.pieces is not None and moved.breaks == curve.breaks
        want = law.multiply(z, curve.positions(ts))
        np.testing.assert_allclose(moved.positions(ts), want, rtol=1e-15,
                                   atol=1e-15 * np.abs(want).max())
        pushed = np.einsum("...ij,...j->...i", law.left_jacobian(z, curve.positions(ts)),
                           curve.velocities(ts))
        np.testing.assert_allclose(moved.velocities(ts), pushed, rtol=1e-14,
                                   atol=1e-14 * np.abs(pushed).max())
        t0 = 0.3
        rec = recentered_curve(law, curve, t0)
        assert rec.pieces is not None and rec.domain == (-1.0 - t0, 1.0 - t0)
        hs = ts[np.abs(ts + t0) < 0.999]
        want = law.multiply(-curve.position_at(t0), curve.positions(t0 + hs))
        np.testing.assert_allclose(rec.positions(hs), want, rtol=1e-15,
                                   atol=1e-15 * np.abs(want).max())


def test_recentered_curve_origin_and_consistency(heis):
    par = fixtures.curve("parabola_lift")
    rec = recentered_curve(heis, par, 0.5)
    assert np.allclose(rec.position_at(0.0), np.zeros(3), atol=1e-14)
    g0 = par.position_at(0.5)
    for h in (-0.3, 0.1, 0.4):
        direct = heis.multiply(heis.inverse(g0), par.position_at(0.5 + h))
        assert np.allclose(rec.position_at(h), direct, atol=1e-12)
    basis = adapted_basis(heis, fixtures.curve("rotated_horizontal"), 0.3, 1)
    hs = np.linspace(-0.4, 0.4, 5)
    for rot in (None, basis.rotation):
        rec = recentered_curve(heis, par, 0.5, rotation=rot)
        vels = rec.velocities(hs)
        for i, h in enumerate(hs):
            assert np.array_equal(vels[i], rec.velocity_at(h))


def test_transforms_carry_the_breaks(heis):
    glued = fixtures.curve("glued_hv")
    assert glued.breaks == (0.0,)
    for moved in (translate_curve(heis, [0.3, -0.4, 0.2], glued),
                  dilate_curve(heis, 2.0, glued), linear_image_curve(np.eye(3), glued)):
        assert moved.breaks == (0.0,)
    assert recentered_curve(heis, glued, 0.25).breaks == (-0.25,)


# -- first-order decay of the non-tangent coordinates ----------------------------


def test_little_o_vertical_all_vacuous_or_excluded(heis):
    vert = fixtures.curve("vertical")
    basis = adapted_basis(heis, vert, 0.2, 2)
    rep = little_o_check(heis, vert, 0.2, 2, basis=basis)
    assert rep.all_passed
    assert [row.vacuous for row in rep.rows] == [True, True, False]
    assert [row.excluded for row in rep.rows] == [False, False, True]


def test_little_o_parabola_max_degree_point(heis):
    par = fixtures.curve("parabola_lift")
    basis = adapted_basis(heis, par, 0.5, 2)
    rep = little_o_check(heis, par, 0.5, 2, basis=basis)
    assert rep.all_passed
    row0 = rep.rows[0]
    assert not row0.vacuous
    assert row0.slope >= row0.target + rep.margin


def test_little_o_low_degree_point(heis):
    glued = fixtures.curve("glued_hv")
    rep = little_o_check(heis, glued, -0.5, 2)
    assert rep.mode == "low-degree"
    assert rep.all_passed
    # along the straight piece only the first coordinate moves
    assert not rep.rows[0].vacuous
    assert rep.rows[1].vacuous and rep.rows[2].vacuous


def test_little_o_mode_validation(heis):
    par = fixtures.curve("parabola_lift")
    basis = adapted_basis(heis, par, 0.5, 2)
    with pytest.raises(ValueError):
        little_o_check(heis, par, 0.5, 2)              # max degree needs a basis
    with pytest.raises(ValueError):
        little_o_check(heis, par, 0.0, 2, basis=basis)  # degree drops at 0


def test_little_o_batched_schedule_matches_scalar_reference(heis):
    # at t0 = 0.95 the domain cuts off the right side of the first two levels
    par = fixtures.curve("parabola_lift")
    basis = adapted_basis(heis, par, 0.95, 2)
    rep = little_o_check(heis, par, 0.95, 2, basis=basis)
    local = recentered_curve(heis, par, 0.95, rotation=basis.rotation)
    a, b = local.domain
    guard = 1e-9 * par.span()
    hs, vals = [], []
    for h in 0.1 * 0.5 ** np.arange(21):
        sides = [local.position_at(s) for s in (h, -h) if a + guard < s < b - guard]
        assert len(sides) == (1 if h > 0.05 - 2 * guard else 2)
        hs.append(h)
        vals.append(np.max(np.abs(sides), axis=0))
    hs, vals = np.log(hs), np.array(vals)
    for row in rep.rows:
        keep = vals[:, row.index] > 1e-250
        assert row.points == keep.sum()
        if not row.vacuous:
            assert row.slope == np.polyfit(hs[keep], np.log(vals[keep, row.index]), 1)[0]
