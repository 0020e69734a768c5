import math

import numpy as np
import pytest

from gradedgroups import (DimensionMismatch, bch_group_law, fixtures, spec_from_dict,
                          validate_algebra)
from gradedgroups.metric import (HomogeneousDistance, ball_box_constants,
                                 degree_constant, metric_factor,
                                 triangle_audit)


@pytest.fixture(scope="module")
def heis():
    return fixtures.group_law("heisenberg")


def test_eps_validation(heis):
    with pytest.raises(ValueError):
        HomogeneousDistance(heis, (1.0,))
    with pytest.raises(ValueError):
        HomogeneousDistance(heis, (1.0, 0.0))
    with pytest.raises(ValueError):
        HomogeneousDistance(heis, (1.0, -2.0))


@pytest.mark.parametrize("eps2", [0.5, 1.0, 2.0])
def test_center_distance_scaling(heis, eps2):
    dist = HomogeneousDistance(heis, (1.0, eps2))
    for t in (0.04, 0.25, 1.0, 2.5):
        assert dist.distance([0, 0, 0], [0, 0, t]) \
            == pytest.approx(eps2 * math.sqrt(t), rel=1e-12)


def test_norm_batch_matches_scalar(heis):
    rng = np.random.default_rng(0)
    for law in (heis, fixtures.group_law("engel")):
        for eps in ([1.0] * law.step, [0.5 + 0.4 * k for k in range(law.step)]):
            dist = HomogeneousDistance(law, eps)
            pts = rng.uniform(-2, 2, (64, law.n))
            batch = dist.norm(pts)
            # the layer-max formula, one layer at a time
            layers = [e * np.linalg.norm(pts[:, sl], axis=1) ** (1.0 / k)
                      for k, (e, sl) in enumerate(zip(eps, dist._slices), start=1)]
            np.testing.assert_allclose(batch, np.max(layers, axis=0), rtol=1e-14, atol=0)
            from_zero = dist.distance_from(np.zeros(law.n))
            for i in range(64):
                assert batch[i] == pytest.approx(dist.norm(pts[i]), rel=1e-15)
                assert batch[i] == pytest.approx(from_zero(pts[i]), rel=1e-15)


def filiform_law(step):
    """Model filiform algebra [e1, e_i] = c_i e_(i+1) with assorted rationals."""
    coeffs = ["1", "-2/3", "5/2", "-1/7", "3"]
    spec = spec_from_dict({"layers": [2] + [1] * (step - 1),
                           "brackets": [{"i": 1, "j": i, "k": i + 1, "c": coeffs[i - 2]}
                                        for i in range(2, step + 1)]})
    return bch_group_law(validate_algebra(spec))


def test_distance_from_closure():
    rng = np.random.default_rng(1)
    for law in (fixtures.group_law("heisenberg"), fixtures.group_law("engel"),
                filiform_law(5)):
        for eps in ([1.0] * law.step, [0.5 + 0.4 * k for k in range(law.step)]):
            dist = HomogeneousDistance(law, eps)
            x0 = rng.uniform(-1, 1, law.n)
            f = dist.distance_from(x0)
            assert isinstance(f(rng.uniform(-1, 1, law.n)), float)
            for bad in (f, dist.norm, dist.distance_from):
                with pytest.raises(DimensionMismatch):
                    bad(np.zeros((2, law.n + 1)))
            for shape in [(law.n,), (7, law.n), (3, 5, law.n)]:
                ys = rng.uniform(-1, 1, shape)
                want = dist.norm(law.multiply(-x0, ys))
                got = f(ys)
                assert np.shape(got) == np.shape(want)
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
                if ys.ndim > 1:
                    # a sub-batch gives the entries of the whole batch
                    np.testing.assert_array_equal(f(ys[..., :1, :]), got[..., :1])


def test_homogeneity_under_dilation(heis):
    dist = fixtures.distance("heisenberg")
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-1, 1, (2, 3))
    base = dist.distance(x, y)
    for r in (0.25, 3.0):
        assert dist.distance(heis.dilate(r, x), heis.dilate(r, y)) \
            == pytest.approx(r * base, rel=1e-12)


@pytest.mark.parametrize("name", ["abelian_w12", "heisenberg", "engel"])
def test_triangle_audit_passes_with_unit_scales(name):
    audit = triangle_audit(fixtures.distance(name), samples=20000, seed=0)
    assert audit.passed, f"max ratio {audit.max_ratio}"


def test_triangle_audit_fails_with_inflated_top_scale(heis):
    dist = HomogeneousDistance(heis, (1.0, 1000.0))
    audit = triangle_audit(dist, samples=20000, seed=0)
    assert not audit.passed
    assert audit.max_ratio > 1.5
    x, y, z = (np.array(p) for p in audit.witness)
    lhs = dist.distance(x, z)
    rhs = dist.distance(x, y) + dist.distance(y, z)
    assert lhs > rhs  # the witness is a genuine violation, not a sampling artifact


def test_audit_deterministic_across_workers(heis):
    dist = fixtures.distance("heisenberg")
    a = triangle_audit(dist, samples=30000, seed=3)
    b = triangle_audit(dist, samples=30000, seed=3)
    assert a.max_ratio == b.max_ratio
    assert a.witness == b.witness


@pytest.mark.parametrize("eps2", [0.5, 1.0, 2.0])
def test_metric_factor_closed_vs_measured(heis, eps2):
    dist = HomogeneousDistance(heis, (1.0, eps2))
    lam = np.array([0.0, 0.0, 3.0])   # any scale; the factor only sees the direction
    closed = metric_factor(dist, lam, method="closed")
    measured = metric_factor(dist, lam, method="measure")
    assert closed == pytest.approx(2.0 / eps2 ** 2, rel=1e-12)
    assert measured == pytest.approx(closed, rel=1e-4)


def test_metric_factor_first_layer(heis):
    dist = fixtures.distance("heisenberg")
    lam = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    assert metric_factor(dist, lam) == pytest.approx(2.0, rel=1e-12)


def test_metric_factor_mixed_layer_direction(heis):
    # for (1, 0, 1) with unit scales the gauge on the line is sqrt(t) up to
    # t = 1, so the interval is (-1, 1) and the factor is sqrt(2) * 2
    dist = fixtures.distance("heisenberg")
    val = metric_factor(dist, np.array([1.0, 0.0, 1.0]))
    assert val == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-5)


def test_metric_factor_rejects_zero_direction(heis):
    dist = fixtures.distance("heisenberg")
    with pytest.raises(ValueError):
        metric_factor(dist, np.zeros(3))
    with pytest.raises(ValueError):
        metric_factor(dist, np.array([1.0, 0.0, 1.0]), method="closed")


def test_degree_constant(heis):
    dist = HomogeneousDistance(heis, (1.0, 0.5))
    assert degree_constant(dist, 1) == pytest.approx(2.0)
    assert degree_constant(dist, 2) == pytest.approx(8.0)
    engel = HomogeneousDistance(fixtures.group_law("engel"), (1.0, 0.5, 0.25))
    assert [degree_constant(engel, q) for q in (1, 2, 3)] == [2.0, 8.0, 128.0]
    for q in (0, -1, 4):            # no layer: not layer 3's constant, no IndexError
        with pytest.raises(ValueError, match="out of range"):
            degree_constant(engel, q)


def test_ball_box_constants_abelian():
    rep = ball_box_constants(fixtures.distance("abelian_w12"), samples=4000, seed=3)
    assert rep.lam == pytest.approx(1.0, abs=1e-9)
    assert rep.recheck_violations == 0


def test_ball_box_constants_heisenberg():
    rep = ball_box_constants(fixtures.distance("heisenberg"), samples=4000, seed=3)
    assert rep.lam == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    assert rep.sup_gauge_on_unit_box == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert rep.recheck_violations == 0
