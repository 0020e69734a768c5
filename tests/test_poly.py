from fractions import Fraction

import pytest

from gradedgroups.poly import RationalPoly


def test_arithmetic_and_equality():
    x = RationalPoly.variable(3, 0)
    y = RationalPoly.variable(3, 1)
    p = x * y + RationalPoly.constant(3, Fraction(1, 2)) * x
    q = x * (y + RationalPoly.constant(3, Fraction(1, 2)))
    assert p == q
    assert (p - q).is_zero()
    assert not p.is_zero()


def test_scalar_multiplication_both_sides():
    x = RationalPoly.variable(2, 0)
    assert Fraction(2, 3) * x == x * Fraction(2, 3)
    assert 2 * x == x + x
    for bad in (True, 0.5):
        with pytest.raises(TypeError):
            bad * x
        with pytest.raises(TypeError):
            RationalPoly.constant(2, bad)


def test_diff_product_rule():
    x = RationalPoly.variable(2, 0)
    y = RationalPoly.variable(2, 1)
    p = x * x * y
    assert p.diff(0) == 2 * (x * y)
    assert p.diff(1) == x * x
    assert p.diff(0).diff(1) == 2 * x


def test_subs_zero_and_drop_vars():
    x = RationalPoly.variable(4, 0)
    u = RationalPoly.variable(4, 2)
    p = x * u + u
    q = p.subs_zero([0])
    assert q == u.subs_zero([0])
    reduced = q.drop_vars([2, 3])
    assert reduced.nvars == 2
    assert reduced.evaluate((Fraction(5), Fraction(0))) == Fraction(5)
    with pytest.raises(ValueError):
        p.drop_vars([2, 3])  # x still occurs


def test_evaluate_matches_compiled_callable():
    x = RationalPoly.variable(2, 0)
    y = RationalPoly.variable(2, 1)
    p = x * x * y - Fraction(1, 3) * y + RationalPoly.constant(2, 7)
    fn = p.as_callable()
    for point in [(0, 0), (1, 2), (-3, 5), (Fraction(1, 2), Fraction(-2, 7))]:
        exact = p.evaluate(tuple(Fraction(c) for c in point))
        assert fn([float(point[0]), float(point[1])]) == pytest.approx(float(exact))


def test_weighted_degree():
    x = RationalPoly.variable(2, 0)
    y = RationalPoly.variable(2, 1)
    p = x * x * y
    assert p.weighted_degree((1, 2)) == 4
    assert (p - p).weighted_degree((1, 2)) is None
    mixed = x + x * y
    assert mixed.weighted_degree((1, 1)) is None  # not homogeneous
