import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedgroups.poly import DimensionMismatch, RationalPoly, exact_evaluator, integer_point


def test_arithmetic_and_equality():
    x = RationalPoly.variable(3, 0)
    y = RationalPoly.variable(3, 1)
    p = x * y + RationalPoly(3, {(0, 0, 0): Fraction(1, 2)}) * x
    q = x * (y + RationalPoly(3, {(0, 0, 0): Fraction(1, 2)}))
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
            RationalPoly(2, {(0, 0): bad})


def test_diff_product_rule():
    x = RationalPoly.variable(2, 0)
    y = RationalPoly.variable(2, 1)
    p = x * x * y
    assert p.diff(0) == 2 * (x * y)
    assert p.diff(1) == x * x
    assert p.diff(0).diff(1) == 2 * x


def test_evaluate_matches_compiled_callable():
    x = RationalPoly.variable(2, 0)
    y = RationalPoly.variable(2, 1)
    p = x * x * y - Fraction(1, 3) * y + RationalPoly(2, {(0, 0): 7})
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


@pytest.mark.parametrize("exps", [(1.5, 0), (-1, 2), (True, 0), (np.int64(1), 0)])
def test_constructor_rejects_bad_exponents(exps):
    with pytest.raises(ValueError, match="exponents"):
        RationalPoly(2, {exps: 1})


@pytest.mark.parametrize("bad", [0.1, True, np.float64(0.5), np.int64(2), "1/2"])
def test_evaluate_rejects_non_exact_coordinates(bad):
    p = RationalPoly.variable(2, 0) * RationalPoly.variable(2, 1)
    with pytest.raises(TypeError, match="int or Fraction"):
        p.evaluate((Fraction(1, 3), bad))
    with pytest.raises(TypeError, match="int or Fraction"):
        RationalPoly(2).evaluate((bad, 1))


def _naive_value(terms, values):
    total = Fraction(0)
    for exps, c in terms.items():
        term = Fraction(c)
        for v, e in zip(values, exps):
            for _ in range(e):
                term *= v
        total += term
    return total


COEFFS = st.fractions(min_value=-20, max_value=20, max_denominator=30)
COORDS = st.one_of(st.integers(-6, 6), st.fractions(min_value=-5, max_value=5,
                                                     max_denominator=12))


@st.composite
def polys_and_points(draw):
    nvars = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    terms = draw(st.dictionaries(exps, COEFFS, max_size=8))
    return terms, tuple(draw(st.lists(COORDS, min_size=nvars, max_size=nvars)))


@settings(max_examples=200, deadline=None)
@given(polys_and_points())
@example(({(): Fraction(-3, 4)}, ()))                                   # nvars = 0
@example(({(0, 0): Fraction(5, 3), (2, 1): Fraction(1, 6), (0, 3): Fraction(-7)},
          (Fraction(0), Fraction(-2, 9))))                              # a zero coordinate
@example(({(1, 0, 2): Fraction(1, 4), (0, 2, 0): Fraction(3, 10), (1, 1, 1): 1},
          (Fraction(2, 3), 5, Fraction(-7, 8))))                        # mixed denominators
def test_evaluate_matches_naive_fraction_sum(case):
    terms, point = case
    value = RationalPoly(len(point), terms).evaluate(point)
    assert isinstance(value, Fraction)
    assert value == _naive_value(terms, point)


def test_exact_evaluator_at_integer_zero_and_huge_points():
    x = RationalPoly.variable(2, 0)
    y = RationalPoly.variable(2, 1)
    polys = [x * x * y - Fraction(1, 3) * y + RationalPoly(2, {(0, 0): 7}),
             RationalPoly(2), Fraction(2, 5) * x, x * y * y]
    at = exact_evaluator(polys)
    big = 10 ** 30
    assert integer_point((3, -4), 2) == ([3, -4], 1)
    for point in [(3, -4), (0, 0), (0, Fraction(-2, 9)), (big, Fraction(1, 3)),
                  (Fraction(big, 7), -big)]:
        values = at(point)
        assert values == tuple(_naive_value(p.terms, point) for p in polys)
        assert all(type(v) is Fraction for v in values)
    with pytest.raises(DimensionMismatch):
        at((1, 2, 3))


@st.composite
def polys_sharing_a_point(draw):
    nvars = draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 8)] * nvars)
    terms = draw(st.lists(st.dictionaries(exps, COEFFS, max_size=6), min_size=1, max_size=4))
    return terms, tuple(draw(st.lists(COORDS, min_size=nvars, max_size=nvars)))


@settings(max_examples=200, deadline=None)
@given(polys_sharing_a_point())
@example(([{}, {(): Fraction(2, 3)}, {}], ()))                          # nvars = 0, zero polys
@example(([{(8,): Fraction(-1, 7), (1,): 3}, {}, {(8,): 1, (0,): Fraction(-1, 2)}],
          (Fraction(-3, 4),)))                                          # nvars = 1, a0^8 shared
@example(([{(2, 0, 1): -1, (0, 8, 0): Fraction(-5, 6), (0, 0, 0): -1},
           {(2, 0, 1): 1, (2, 3, 0): Fraction(7, 9)}, {(0, 3, 0): -1}],
          (Fraction(1, 6), -2, Fraction(5, 8))))                        # shared powers, -1s
def test_exact_evaluator_matches_the_naive_sum_of_each_polynomial(case):
    terms, point = case
    values = exact_evaluator([RationalPoly(len(point), t) for t in terms])(point)
    assert values == tuple(_naive_value(t, point) for t in terms)
    assert all(type(v) is Fraction for v in values)


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


def test_integer_point_reads_subclasses_and_refuses_the_rest():
    for point, scaled in [((_Int(3), Fraction(1, 2)), ([6, 1], 2)),
                          ((_Int(3), 4), ([3, 4], 1)),
                          ((_Fraction(2, 3), Fraction(3)), ([2, 9], 3)),
                          ((Fraction(3), -2), ([3, -2], 1))]:
        nums, den = integer_point(point, 2)
        assert (nums, den) == scaled and all(type(a) is int for a in [*nums, den])
    for bad in (True, 0.5, np.float64(0.5), np.int64(2), np.bool_(True)):
        message = (f"exact evaluation needs int or Fraction coordinates, "
                   f"got {type(bad).__name__}: {bad!r}")
        for point in ((Fraction(1, 3), bad), (bad, Fraction(1, 3)), (_Int(1), bad)):
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                integer_point(point, 2)
    with pytest.raises(DimensionMismatch, match="^points must have 2 coordinates, got 3$"):
        integer_point((1, 2, 3), 2)
