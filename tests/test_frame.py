import numpy as np
import pytest
from fractions import Fraction

from gradedgroups import fixtures
from gradedgroups.frame import compute_frame, speed
from gradedgroups.poly import RationalPoly

HALF = Fraction(1, 2)
TWELFTH = Fraction(1, 12)


@pytest.fixture(scope="module")
def heis():
    return fixtures.group_law("heisenberg")


@pytest.fixture(scope="module")
def engel():
    return fixtures.group_law("engel")


def test_heisenberg_entries(heis):
    fr = heis.frame
    x1 = RationalPoly.variable(3, 0)
    x2 = RationalPoly.variable(3, 1)
    assert fr.entry(2, 0) == -HALF * x2
    assert fr.entry(2, 1) == HALF * x1


def test_engel_entries(engel):
    fr = engel.frame
    x1 = RationalPoly.variable(4, 0)
    x2 = RationalPoly.variable(4, 1)
    x3 = RationalPoly.variable(4, 2)
    assert fr.entry(3, 0) == -HALF * x3 - TWELFTH * x1 * x2
    assert fr.entry(3, 1) == TWELFTH * x1 * x1
    assert fr.entry(3, 2) == HALF * x1


def test_entries_are_weight_homogeneous(engel):
    fr = engel.frame
    degs = engel.degrees
    for (l, j), p in fr.entries.items():
        assert p.weighted_degree(degs) == degs[l] - degs[j]


def test_matrix_is_unit_lower_triangular(engel):
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = engel.frame.matrix(rng.uniform(-2, 2, 4))
        assert np.allclose(np.diag(a), 1.0)
        assert np.allclose(np.triu(a, 1), 0.0)


def test_coordinates_solve_example(heis):
    lam = heis.frame.coordinates(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]))
    assert np.allclose(lam, [0.0, 1.0, 0.5])


def test_coordinates_reconstruct_roundtrip(engel):
    fr = engel.frame
    rng = np.random.default_rng(8)
    xs = rng.uniform(-1.5, 1.5, (2, 5, 4))
    vs = rng.uniform(-2, 2, (2, 5, 4))
    batch = fr.coordinates(xs, vs)
    assert batch.shape == (2, 5, 4)
    for idx in np.ndindex(2, 5):
        lam = fr.coordinates(xs[idx], vs[idx])
        assert np.array_equal(batch[idx], lam)   # one kernel, bit for bit
        assert np.allclose(fr.matrix(xs[idx]) @ lam, vs[idx], atol=1e-12)


def test_frame_twists_at_a_translated_point(heis):
    # the frame vector X_1 at (0, 1, 0) picks up heisenberg's twist
    assert np.allclose(heis.frame.matrix(np.array([0.0, 1.0, 0.0])) @ np.array([1.0, 0.0, 0.0]),
                       [1.0, 0.0, -0.5])


def test_frame_agrees_with_the_left_translation_pushforward(engel):
    # frame coordinates are left invariant: pushing lam's ambient vector at y
    # forward through the jacobian of y -> x * y gives lam again at x * y
    frame = engel.frame
    rng = np.random.default_rng(12)
    for _ in range(5):
        y = rng.uniform(-1, 1, 4)
        lam = rng.uniform(-1, 1, 4)
        x = rng.uniform(-1, 1, 4)
        pushed = engel.left_jacobian(x, y) @ frame.matrix(y) @ lam
        err = np.max(np.abs(frame.coordinates(engel.multiply(x, y), pushed) - lam))
        assert err <= 1e-9 * (1.0 + np.max(np.abs(lam)))


def test_speed_left_vs_euclidean(heis):
    x = np.array([0.0, 1.0, 0.0])
    v = heis.frame.matrix(x) @ np.array([1.0, 0.0, 0.0])
    assert speed(heis.frame, x, v, "left") == pytest.approx(1.0)
    assert speed(heis.frame, x, v, "euclidean") == pytest.approx(np.sqrt(1.25))
    for bad in ("taxicab", "frame"):
        with pytest.raises(ValueError):
            speed(heis.frame, x, v, bad)


def test_compute_frame_matches_lazy_property(heis):
    fresh = compute_frame(heis)
    assert fresh.entries == heis.frame.entries


def test_describe_layout(engel):
    d = engel.frame.describe()
    assert d["a[4,3]"] == "1/2*x1"
    assert set(d) == {"a[3,1]", "a[3,2]", "a[4,1]", "a[4,2]", "a[4,3]"}
