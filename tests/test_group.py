import itertools
import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bch_oracle import _block_sequences, bch_numeric
from gradedgroups import fixtures
from gradedgroups.algebra import spec_from_dict, validate_algebra
from gradedgroups.group import (DimensionMismatch, _dynkin_word_coefficients,
                                bch_group_law)
from gradedgroups.poly import RationalPoly

HALF = Fraction(1, 2)
TWELFTH = Fraction(1, 12)


def var(n, i):
    return RationalPoly.variable(n, i)


@pytest.fixture(scope="module")
def heis():
    return fixtures.group_law("heisenberg")


@pytest.fixture(scope="module")
def engel():
    return fixtures.group_law("engel")


def test_abelian_law_is_addition():
    law = fixtures.group_law("abelian_w12")
    assert all(q.is_zero() for q in law.q_polys)
    assert law.multiply_exact((1, 2), (3, 4)) == (4, 6)


def test_heisenberg_correction_closed_form(heis):
    # q3 = (x1 y2 - x2 y1) / 2 in the 6 variables x1..x3, y1..y3
    x1, x2 = var(6, 0), var(6, 1)
    y1, y2 = var(6, 3), var(6, 4)
    assert heis.q_polys[0].is_zero()
    assert heis.q_polys[1].is_zero()
    assert heis.q_polys[2] == HALF * (x1 * y2 - x2 * y1)


def test_engel_correction_closed_form(engel):
    x1, x2, x3 = var(8, 0), var(8, 1), var(8, 2)
    y1, y2, y3 = var(8, 4), var(8, 5), var(8, 6)
    assert engel.q_polys[2] == HALF * (x1 * y2 - x2 * y1)
    expected = HALF * (x1 * y3 - x3 * y1) \
        + TWELFTH * (x1 - y1) * (x1 * y2 - x2 * y1)
    assert engel.q_polys[3] == expected


@pytest.mark.parametrize("name", ["abelian_w12", "heisenberg", "engel"])
def test_law_matches_series_oracle_exactly(name):
    alg = validate_algebra(fixtures.algebra_spec(name))
    law = fixtures.group_law(name)
    rng = random.Random(17)

    def point():
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(alg.n))

    for _ in range(100):
        x, y = point(), point()
        assert law.multiply_exact(x, y) == bch_numeric(alg, x, y)


@pytest.mark.parametrize("name", ["heisenberg", "engel"])
def test_exact_associativity_on_rational_triples(name):
    law = fixtures.group_law(name)
    rng = random.Random(3)
    for _ in range(40):
        x, y, z = ([Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                    for _ in range(law.n)] for _ in range(3))
        assert law.multiply_exact(law.multiply_exact(x, y), z) \
            == law.multiply_exact(x, law.multiply_exact(y, z))


@pytest.mark.parametrize("name", ["heisenberg", "engel"])
def test_float_associativity_defect(name):
    law = fixtures.group_law(name)
    rng = np.random.default_rng(5)
    x, y, z = rng.uniform(-1.0, 1.0, (3, 1000, law.n))
    gap = law.multiply(law.multiply(x, y), z) - law.multiply(x, law.multiply(y, z))
    assert float(np.max(np.abs(gap))) <= 1e-12


def test_identity_and_inverse(engel):
    e = engel.identity()
    assert np.allclose(engel.multiply(e, [1.0, 2.0, 3.0, 4.0]), [1, 2, 3, 4])
    x = (Fraction(2, 3), Fraction(-1, 5), Fraction(4), Fraction(-7, 2))
    assert engel.multiply_exact(x, engel.inverse_exact(x)) == (0, 0, 0, 0)
    assert engel.multiply_exact(engel.inverse_exact(x), x) == (0, 0, 0, 0)


def test_correction_is_homogeneous(engel):
    # q_i(dil_r x, dil_r y) = r^(d_i) q_i(x, y), checked exactly
    r = Fraction(3, 2)
    x = (Fraction(1, 2), Fraction(-2), Fraction(1, 3), Fraction(5, 7))
    y = (Fraction(-1), Fraction(1, 4), Fraction(2), Fraction(-3, 5))
    lhs = engel.multiply_exact(engel.dilate_exact(r, x), engel.dilate_exact(r, y))
    rhs = engel.dilate_exact(r, engel.multiply_exact(x, y))
    assert lhs == rhs


def test_first_layer_multiplies_additively(heis):
    x = np.array([0.3, -0.7, 0.2])
    y = np.array([1.1, 0.4, -0.9])
    z = heis.multiply(x, y)
    assert np.allclose(z[:2], x[:2] + y[:2])


def test_dimension_mismatch(heis):
    with pytest.raises(DimensionMismatch):
        heis.multiply([1.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        heis.multiply_exact((1, 2, 3), (1, 2))


@pytest.mark.parametrize("bad", [0.1, True, np.float64(0.5), np.int64(1)])
def test_multiply_exact_rejects_non_exact_coordinates(heis, bad):
    with pytest.raises(TypeError, match="int or Fraction"):
        heis.multiply_exact((bad, 2, 3), (4, 5, 6))
    with pytest.raises(TypeError, match="int or Fraction"):
        heis.multiply_exact((1, 2, 3), (4, 5, bad))
    with pytest.raises(TypeError, match="int or Fraction"):
        fixtures.group_law("abelian_w12").multiply_exact((bad, 2), (3, 4))
    with pytest.raises(TypeError, match="int or Fraction"):
        heis.inverse_exact((1, bad, 3))
    with pytest.raises(TypeError, match="int or Fraction"):
        heis.dilate_exact(bad, (1, 2, 3))
    with pytest.raises(TypeError, match="int or Fraction"):
        heis.dilate_exact(2, (1, 2, bad))


@pytest.mark.parametrize("depth", range(1, 9))
def test_dynkin_coefficients_match_block_sequence_sum(depth):
    expected = {}
    for blocks in _block_sequences(depth):
        m = len(blocks)
        denom = m * sum(p + q for p, q in blocks)
        for p, q in blocks:
            denom *= factorial(p) * factorial(q)
        word = tuple(l for p, q in blocks for l in (0,) * p + (1,) * q)
        expected[word] = expected.get(word, Fraction(0)) + Fraction((-1) ** (m - 1), denom)
    assert _dynkin_word_coefficients(depth) == {w: c for w, c in expected.items() if c}


def test_dilate_rejects_nonpositive(heis):
    with pytest.raises(ValueError):
        heis.dilate(0.0, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        heis.dilate(-2.0, [1.0, 0.0, 0.0])


def _generated_laws():
    """Filiform laws of step 2-8 and free step-2 laws of rank 3-5, rational brackets."""
    rng = random.Random(5)

    def coeff():
        return str(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))

    docs = [{"layers": [2] + [1] * (step - 1),
             "brackets": [{"i": 1, "j": i, "k": i + 1, "c": coeff()}
                          for i in range(2, step + 1)]}
            for step in range(2, 9)]
    for rank in range(3, 6):
        pairs = list(itertools.combinations(range(1, rank + 1), 2))
        docs.append({"layers": [rank, len(pairs)],
                     "brackets": [{"i": i, "j": j, "k": rank + m + 1, "c": coeff()}
                                  for m, (i, j) in enumerate(pairs)]})
    return [bch_group_law(validate_algebra(spec_from_dict(doc))) for doc in docs]


def test_left_jacobian_matches_finite_differences(engel):
    rng = np.random.default_rng(9)
    for law in [engel, *_generated_laws()]:
        n = law.n
        x = rng.uniform(-1, 1, n)
        y = rng.uniform(-1, 1, n)
        jac = law.left_jacobian(x, y)
        h = 1e-6
        for b in range(n):
            dy = np.zeros(n)
            dy[b] = h
            col = (law.multiply(x, y + dy) - law.multiply(x, y - dy)) / (2 * h)
            assert np.allclose(jac[:, b], col, atol=1e-8), (law, b)

        xs = rng.uniform(-1, 1, (2, 3, n))
        ys = rng.uniform(-1, 1, (2, 3, n))
        batch = law.left_jacobian(xs, ys)
        assert batch.shape == (2, 3, n, n)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(batch[idx], law.left_jacobian(xs[idx], ys[idx]))
        assert np.array_equal(law.left_jacobian(x, ys)[1, 2], law.left_jacobian(x, ys[1, 2]))

        # the frame is the jacobian at y = 0, read off the same partials
        for point in rng.uniform(-1, 1, (50, n)):
            assert np.array_equal(law.frame.matrix(point), law.left_jacobian(point, np.zeros(n)))


def test_batched_multiply_matches_scalar(heis):
    rng = np.random.default_rng(2)
    xs = rng.uniform(-1, 1, (32, 3))
    ys = rng.uniform(-1, 1, (32, 3))
    batch = heis.multiply(xs, ys)
    for i in range(32):
        assert np.allclose(batch[i], heis.multiply(xs[i], ys[i]))


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def vectors(n):
    return st.tuples(*([RATIONALS] * n))


@settings(max_examples=60, deadline=None)
@given(x=vectors(4), y=vectors(4), z=vectors(4))
def test_property_associative(x, y, z):
    law = fixtures.group_law("engel")
    assert law.multiply_exact(law.multiply_exact(x, y), z) \
        == law.multiply_exact(x, law.multiply_exact(y, z))


@settings(max_examples=60, deadline=None)
@given(x=vectors(3), y=vectors(3))
def test_property_inverse_antihomomorphism(x, y):
    law = fixtures.group_law("heisenberg")
    lhs = law.inverse_exact(law.multiply_exact(x, y))
    rhs = law.multiply_exact(law.inverse_exact(y), law.inverse_exact(x))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(x=vectors(4), y=vectors(4),
       r=st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8))
def test_property_dilation_is_homomorphism(x, y, r):
    law = fixtures.group_law("engel")
    lhs = law.multiply_exact(law.dilate_exact(r, x), law.dilate_exact(r, y))
    assert lhs == law.dilate_exact(r, law.multiply_exact(x, y))


def test_structure_checks_catch_a_broken_law():
    law = fixtures.group_law("heisenberg")
    from gradedgroups.group import _check_law_structure
    bad = (law.q_polys[0], law.q_polys[1], law.q_polys[2] + var(6, 2))
    with pytest.raises(AssertionError):
        _check_law_structure(law.algebra, bad)
