"""Acceptance gate: ten end-to-end criteria with pinned tolerances, numbered
1-9 and 11 (10 is kept for the area formula beyond heisenberg).

Each test prints one line, ACCEPTANCE <n> <name>: PASS or FAIL, straight
to the terminal (bypassing capture) so a scan of the pytest output shows
the gate at a glance.  Tolerances and runtime budgets are fixed here and
are not tuning knobs; loosening them is a change of contract.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from bch_oracle import bch_numeric
from gradedgroups import fixtures
from gradedgroups.algebra import spec_from_dict, validate_algebra
from gradedgroups.curve import (adapted_basis, degree_profile, dilate_curve,
                                linear_image_curve, little_o_check,
                                polynomial_curve, translate_curve)
from gradedgroups.group import bch_group_law
from gradedgroups.measure import (area_formula_residual, blowup_sequence,
                                  covering_values, density_divergence,
                                  negligibility_estimate)
from gradedgroups.metric import (HomogeneousDistance, _line_gauge_interval_length,
                                 metric_factor)

GROUPS = ("abelian_w12", "heisenberg", "engel")


def _finish(capsys, number, name, checks, started, budget):
    passed = all(ok for _, ok in checks)
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'}")
    failed = [desc for desc, ok in checks if not ok]
    assert passed, f"failed checks: {failed}"
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"


def test_acceptance_1_exact_group_law(capsys):
    started = time.monotonic()
    checks = []
    rng = random.Random(101)
    for name in GROUPS:
        alg = validate_algebra(fixtures.algebra_spec(name))
        law = fixtures.group_law(name)

        def point():
            return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(alg.n))

        oracle_ok = all(law.multiply_exact(x, y) == bch_numeric(alg, x, y)
                        for x, y in (((point(), point())) for _ in range(100)))
        checks.append((f"{name}: series oracle agreement", oracle_ok))

        assoc_ok = True
        for _ in range(40):
            x, y, z = point(), point(), point()
            if law.multiply_exact(law.multiply_exact(x, y), z) \
                    != law.multiply_exact(x, law.multiply_exact(y, z)):
                assoc_ok = False
                break
        checks.append((f"{name}: exact associativity", assoc_ok))

        fr = np.random.default_rng(7)
        xs, ys, zs = fr.uniform(-1.0, 1.0, (3, 1000, alg.n))
        gap = law.multiply(law.multiply(xs, ys), zs) \
            - law.multiply(xs, law.multiply(ys, zs))
        checks.append((f"{name}: float associativity within 1e-12",
                       float(np.max(np.abs(gap))) <= 1e-12))
    _finish(capsys, 1, "exact-group-law", checks, started, budget=10.0)


def test_acceptance_2_left_frame(capsys):
    started = time.monotonic()
    checks = []
    rng = np.random.default_rng(23)
    for name in ("heisenberg", "engel"):
        law = fixtures.group_law(name)
        frame = law.frame
        degs = law.degrees
        tri_ok, hom_ok = True, True
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, law.n)
            a = frame.matrix(x)
            if not (np.allclose(np.diag(a), 1.0, atol=1e-14)
                    and np.max(np.abs(np.triu(a, 1))) == 0.0):
                tri_ok = False
            for r in (0.5, 2.0):
                ar = frame.matrix(law.dilate(r, x))
                for (l, j) in frame.entries:
                    scale = r ** (degs[l] - degs[j])
                    if abs(ar[l, j] - scale * a[l, j]) > 1e-10 * max(1.0, abs(scale * a[l, j])):
                        hom_ok = False
        checks.append((f"{name}: unit lower triangular at 100 samples", tri_ok))
        checks.append((f"{name}: entries homogeneous within 1e-10", hom_ok))
    _finish(capsys, 2, "left-frame", checks, started, budget=5.0)


def test_acceptance_3_metric_factor(capsys):
    started = time.monotonic()
    checks = []
    law = fixtures.group_law("heisenberg")
    direction = np.array([0.0, 0.0, 1.0])
    for eps2 in (0.5, 1.0, 2.0):
        dist = HomogeneousDistance(law, (1.0, eps2))
        closed = metric_factor(dist, direction)
        measured = float(np.linalg.norm(direction)) * _line_gauge_interval_length(dist, direction)
        checks.append((f"eps2={eps2}: closed form equals 2/eps2^2",
                       abs(closed - 2.0 / eps2 ** 2) <= 1e-12))
        checks.append((f"eps2={eps2}: measured within 1e-4 of closed",
                       abs(measured - closed) <= 1e-4 * closed))
    _finish(capsys, 3, "metric-factor", checks, started, budget=5.0)


def test_acceptance_4_blowup_density(capsys):
    started = time.monotonic()
    checks = []
    law = fixtures.group_law("heisenberg")
    dist = fixtures.distance("heisenberg")
    vert = fixtures.curve("vertical")
    radii = [2.0 ** -k for k in range(1, 11)]

    base = blowup_sequence(dist, vert, 0.0, radii)
    checks.append(("vertical: ratio at 2^-10 within 2% of the predicted density",
                   abs(base.ratios[-1] - base.predicted) <= 0.02 * base.predicted))

    moved = translate_curve(law, np.array([0.3, -0.2, 0.15]), vert)
    trans = blowup_sequence(dist, moved, 0.0, radii)
    checks.append(("translated copy: ratios agree within 1e-6 relative",
                   max(abs(a - b) / a for a, b in zip(base.ratios, trans.ratios)) <= 1e-6))

    phi = 0.7
    rot = np.array([[math.cos(phi), -math.sin(phi), 0.0],
                    [math.sin(phi), math.cos(phi), 0.0],
                    [0.0, 0.0, 1.0]])
    turned = blowup_sequence(dist, linear_image_curve(rot, vert), 0.0, radii)
    checks.append(("rotated copy: ratios agree within 1e-6 relative",
                   max(abs(a - b) / a for a, b in zip(base.ratios, turned.ratios)) <= 1e-6))
    _finish(capsys, 4, "blowup-density", checks, started, budget=30.0)


def test_acceptance_5_density_divergence(capsys):
    started = time.monotonic()
    checks = []
    dist = fixtures.distance("heisenberg")
    radii = [2.0 ** -k for k in range(4, 13)]
    rep = density_divergence(dist, fixtures.curve("parabola_lift"), 0.0, radii)
    checks.append(("parabola at t0=0: log-log slope at most -0.9", rep.slope <= -0.9))
    checks.append(("parabola at t0=0: divergence certified", rep.certified))
    _finish(capsys, 5, "density-divergence", checks, started, budget=30.0)


def test_acceptance_6_area_formula(capsys):
    started = time.monotonic()
    checks = []
    dist = fixtures.distance("heisenberg")
    deltas = [2.0 ** -k for k in range(2, 8)]
    for name in ("horizontal", "vertical"):
        rep = area_formula_residual(dist, fixtures.curve(name),
                                    interval=(0.0, 1.0), deltas=deltas)
        checks.append((f"{name} segment: residual below 2%", rep.residual < 0.02))
    par = area_formula_residual(dist, fixtures.curve("parabola_lift"), deltas=deltas)
    checks.append(("parabola: residual below 5%", par.residual < 0.05))
    _finish(capsys, 6, "area-formula", checks, started, budget=120.0)


def test_acceptance_7_negligibility(capsys):
    started = time.monotonic()
    checks = []
    dist = fixtures.distance("heisenberg")
    deltas = [2.0 ** -k for k in range(2, 11)]
    rep = negligibility_estimate(dist, fixtures.curve("glued_hv"), deltas)
    vals = rep.values
    checks.append(("low-degree set detected", len(rep.intervals) == 1))
    checks.append(("covering value shrinks by at least 0.6 per halving",
                   all(b <= 0.6 * a for a, b in zip(vals, vals[1:]))))
    checks.append(("value at delta=2^-10 below 1e-2", vals[-1] < 1e-2))
    _finish(capsys, 7, "negligibility", checks, started, budget=120.0)


def test_acceptance_8_tangent_approximation(capsys):
    started = time.monotonic()
    checks = []
    heis = fixtures.group_law("heisenberg")
    engel = fixtures.group_law("engel")

    vert = fixtures.curve("vertical")
    rep = little_o_check(heis, vert, 0.2, 2, basis=adapted_basis(heis, vert, 0.2, 2))
    checks.append(("vertical at 0.2: slopes clear target+0.05 (vacuous rows allowed)",
                   rep.all_passed))
    checks.append(("vertical at 0.2: off-tangent rows are identically zero",
                   rep.rows[0].vacuous and rep.rows[1].vacuous))

    par = fixtures.curve("parabola_lift")
    rep = little_o_check(heis, par, 0.5, 2, basis=adapted_basis(heis, par, 0.5, 2))
    checks.append(("parabola at 0.5: slopes clear target+0.05", rep.all_passed))

    glued = fixtures.curve("glued_hv")
    rep = little_o_check(heis, glued, -0.5, 2)
    checks.append(("glued curve at -0.5 (low degree): slopes clear target+0.05",
                   rep.all_passed))

    ev = fixtures.curve("engel_vertical")
    rep = little_o_check(engel, ev, 0.1, 3, basis=adapted_basis(engel, ev, 0.1, 3))
    checks.append(("step-3 line at 0.1: slopes clear target+0.05", rep.all_passed))
    _finish(capsys, 8, "tangent-approximation", checks, started, budget=30.0)


def _profiles_match(a, b):
    if a.degree != b.degree or not np.array_equal(a.degrees, b.degrees):
        return False
    if len(a.low_degree_intervals) != len(b.low_degree_intervals):
        return False
    # boundaries of numerically detected slivers may move at the 1e-8 scale
    return all(abs(x0 - y0) <= 1e-6 and abs(x1 - y1) <= 1e-6
               for (x0, x1), (y0, y1)
               in zip(a.low_degree_intervals, b.low_degree_intervals))


def test_acceptance_9_dilation_covariance(capsys):
    started = time.monotonic()
    checks = []
    heis = fixtures.group_law("heisenberg")
    dist = fixtures.distance("heisenberg")
    deltas = [2.0 ** -k for k in range(2, 7)]
    for name in ("vertical", "parabola_lift"):
        cur = fixtures.curve(name)
        base = covering_values(dist, cur, 2, deltas, intervals=[(0.0, 1.0)]).extrapolated
        base_profile = degree_profile(heis, cur, 128)
        for s in (0.5, 2.0):
            scaled_curve = dilate_curve(heis, s, cur)
            scaled = covering_values(dist, scaled_curve, 2, deltas,
                                     intervals=[(0.0, 1.0)]).extrapolated
            checks.append((f"{name}, s={s}: covering value scales by s^2 within 1e-3",
                           abs(scaled - s ** 2 * base) <= 1e-3 * s ** 2 * base))
            checks.append((f"{name}, s={s}: degree profile unchanged",
                           _profiles_match(degree_profile(heis, scaled_curve, 128),
                                           base_profile)))
    _finish(capsys, 9, "dilation-covariance", checks, started, budget=120.0)


def _group(layers, brackets):
    """Law and unit-weight distance of the algebra document with these layers
    and brackets [e_i, e_j] = e_k."""
    law = bch_group_law(validate_algebra(spec_from_dict({"layers": layers, "brackets": [
        {"i": i, "j": j, "k": k, "c": "1"} for i, j, k in brackets]})))
    return law, HomogeneousDistance(law, (1.0,) * law.step)


def _quadratic(*coords):
    """The one-piece curve on (-1, 1) whose coordinate j has ascending coefficients coords[j]."""
    coef = np.zeros((3, len(coords), 1))
    for j, c in enumerate(coords):
        coef[:len(c), j, 0] = c
    return polynomial_curve(coef, (-1.0, 1.0))


def test_acceptance_11_density_on_every_graded_group(capsys):
    started = time.monotonic()
    checks = []
    engel = _group([2, 1, 1], [(1, 2, 3), (1, 3, 4)])
    filiform = _group([2, 1, 1, 1], [(1, 2, 3), (1, 3, 4), (1, 4, 5)])
    free = _group([3, 3], [(1, 2, 4), (1, 3, 5), (2, 3, 6)])
    parabola = ([0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.5])
    cases = {"engel": (engel, _quadratic(*parabola, [0.0])),
             "filiform [2, 1, 1, 1]": (filiform, _quadratic(*parabola, [0.0], [0.0])),
             "free rank 3": (free, _quadratic([0.0, 1.0], [0.0, 0.0, 1.0], [0.0],
                                              [0.0, 0.3], [0.0, 0.4], [0.0]))}
    for name, ((_, dist), curve) in cases.items():
        rep = blowup_sequence(dist, curve, 0.3, [2.0 ** -20])
        checks.append((f"{name}: ratio at 2^-20 within 1e-9 of the predicted density",
                       rep.diagnostic <= 1e-9))

    (law, dist), curve = cases["engel"]
    radii = [2.0 ** -k for k in range(4, 21, 4)]
    moved = translate_curve(law, np.array([0.3, -0.2, 0.15, 0.4]), curve)
    base, trans = (blowup_sequence(dist, c, 0.3, radii, metric="left") for c in (curve, moved))
    checks.append(("engel, translated copy: left ratios agree within 1e-9 relative",
                   max(abs(a - b) / a for a, b in zip(base.ratios, trans.ratios)) <= 1e-9))

    for name, slope in (("engel", -1.0), ("filiform [2, 1, 1, 1]", -2.0)):
        (_, dist), curve = cases[name]
        rep = density_divergence(dist, curve, 0.0, [2.0 ** -k for k in range(4, 13)])
        checks.append((f"{name} at t0=0: divergence certified, slope within 0.05 of {slope}",
                       rep.certified and abs(rep.slope - slope) <= 0.05))
    _finish(capsys, 11, "density-on-every-graded-group", checks, started, budget=10.0)
