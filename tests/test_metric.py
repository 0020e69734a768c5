import math

import numpy as np
import pytest

from gradedgroups import fixtures
from gradedgroups.metric import (Box, HomogeneousDistance, ball_box_constants,
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
    dist = fixtures.distance("heisenberg")
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, (64, 3))
    batch = dist.norm(pts)
    for i in range(64):
        assert batch[i] == pytest.approx(dist.norm(pts[i]))
        assert batch[i] == pytest.approx(dist._norm_scalar(tuple(pts[i])))


def test_distance_from_closure(heis):
    dist = fixtures.distance("heisenberg")
    x0 = np.array([0.3, -0.5, 0.2])
    f = dist.distance_from(x0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        y = rng.uniform(-1, 1, 3)
        assert f(y) == pytest.approx(dist.distance(x0, y), rel=1e-12)


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


def test_box_contains():
    box = Box((1, 1, 2), 0.5)
    assert box.contains([0.4, -0.5, 0.25])
    assert not box.contains([0.6, 0.0, 0.0])
    assert not box.contains([0.0, 0.0, 0.3])


def test_ball_box_constants_abelian():
    rep = ball_box_constants(fixtures.distance("abelian_w12"), samples=4000, seed=3)
    assert rep.lam == pytest.approx(1.0, abs=1e-9)
    assert rep.recheck_violations == 0


def test_ball_box_constants_heisenberg():
    rep = ball_box_constants(fixtures.distance("heisenberg"), samples=4000, seed=3)
    assert rep.lam == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    assert rep.sup_gauge_on_unit_box == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert rep.recheck_violations == 0
