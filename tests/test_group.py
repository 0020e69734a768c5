import hashlib
import importlib.util
import itertools
import json
import math
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bch_oracle import _block_sequences, bch_numeric
from gradedgroups import cli, fixtures
from gradedgroups.algebra import MAX_DIMENSION, spec_from_dict, validate_algebra
from gradedgroups.frame import Frame
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
    assert law.algebra.integral()[0] == 1
    assert law.multiply_exact((1, 2), (3, 4)) == (4, 6)
    product = law.multiply_exact((Fraction(1, 3), 2), (Fraction(-1, 3), Fraction(5, 7)))
    assert product == (0, Fraction(19, 7))
    assert all(type(c) is Fraction for c in product)
    assert law.multiply_exact((0, 0), (0, 0)) == (0, 0)


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


# numerators over pairwise-coprime denominators, so that the common
# denominator L of an algebra's constants, and L^(length - 1), are large
COPRIME = ["3/7", "-2/11", "5/13", "-4/17", "7/19", "-6/23", "9/29", "-8/31", "10/37", "-3/41"]
COPRIME_DOCS = {
    **{f"filiform{step}": {"layers": [2] + [1] * (step - 1),
                           "brackets": [{"i": 1, "j": i, "k": i + 1, "c": COPRIME[i - 2]}
                                        for i in range(2, step + 1)]}
       for step in range(3, 6)},
    **{f"free2_rank{rank}": {"layers": [rank, rank * (rank - 1) // 2],
                             "brackets": [{"i": i, "j": j, "k": rank + m + 1, "c": COPRIME[m]}
                                          for m, (i, j) in enumerate(
                                              itertools.combinations(range(1, rank + 1), 2))]}
       for rank in range(3, 6)},
}


@pytest.mark.parametrize("name", COPRIME_DOCS)
def test_rational_structure_constants_match_series_oracle(name):
    doc = COPRIME_DOCS[name]
    alg = validate_algebra(spec_from_dict(doc))
    scale, integral = alg.integral()
    assert scale == math.prod(int(e["c"].split("/")[1]) for e in doc["brackets"])
    assert integral.bracket_coeffs(0, 1) == {k: c * scale for k, c in alg.bracket_coeffs(0, 1).items()}
    law = bch_group_law(alg)
    rng = random.Random(23)
    for _ in range(10):
        x, y = ([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(alg.n)]
                for _ in range(2))
        assert law.multiply_exact(x, y) == bch_numeric(alg, x, y)


def test_exact_product_at_integer_zero_and_huge_coordinates(engel):
    alg = engel.algebra
    big = 10 ** 30
    for x, y in [((1, -2, 3, 4), (5, 6, -7, 8)),
                 ((0, 0, 0, 0), (0, 0, 0, 0)),
                 ((0, Fraction(1, 3), 0, 0), (Fraction(-2, 5), 0, 0, 1)),
                 ((big, Fraction(1, 3), -big, 2), (Fraction(big, 7), -big, 1, 0))]:
        assert engel.multiply_exact(x, y) == bch_numeric(alg, x, y)


def test_float_paths_keep_their_values():
    """Pinned float values of the law of a filiform algebra with rational constants."""
    law = bch_group_law(validate_algebra(spec_from_dict(COPRIME_DOCS["filiform4"])))
    x = np.array([0.5, -0.25, 0.75, 1.5, -2.0])
    y = np.array([-1.25, 0.5, 0.125, -0.5, 1.0])
    assert law.multiply(x, y).tolist() == [
        -0.75, 0.25, 0.8616071428571429, 0.9098011363636364, -0.6976493558524808]
    assert law.left_jacobian(x, y)[2:].tolist() == [
        [0.05357142857142857, 0.10714285714285714, 1.0, 0.0, 0.0],
        [0.06493506493506494, -0.005681818181818182, -0.045454545454545456, 1.0, 0.0],
        [-0.2752195720945721, -0.00039023476523476525, -0.0050990675990676,
         0.09615384615384616, 1.0]]
    assert law.frame.coordinates(x, y).tolist() == [
        -1.25, 0.5, 0.13839285714285712, -0.40868506493506496, 0.6816529824342323]


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
    with pytest.raises(DimensionMismatch):
        heis.inverse_exact((1, 2))
    with pytest.raises(DimensionMismatch):
        heis.dilate_exact(2, (1, 2, 3, 4, 5))
    with pytest.raises(DimensionMismatch):
        heis.inverse(np.ones(5))
    with pytest.raises(DimensionMismatch):
        heis.dilate(2.0, np.ones(5))
    with pytest.raises(DimensionMismatch):
        heis.dilate(2.0, 1.0)
    assert heis.inverse(np.ones((4, 3))).shape == (4, 3)


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

        # the frame, read off Q's y-linear terms, is the jacobian at y = 0
        for point in rng.uniform(-1, 1, (50, n)):
            assert np.array_equal(law.frame.matrix(point), law.left_jacobian(point, np.zeros(n)))


@pytest.mark.parametrize("law", [*map(fixtures.group_law, fixtures.group_names()), *_generated_laws()],
                         ids=[*fixtures.group_names(), *(f"filiform{s}" for s in range(2, 9)),
                              *(f"free2_rank{r}" for r in range(3, 6))])
def test_frame_is_the_y_partial_at_zero(law):
    """The one-pass frame against dQ_l/dy_j at y = 0, derived from ``y_partials``."""
    n = law.n
    expected = {}
    for key, dq in law.y_partials.items():
        terms = {e[:n]: c for e, c in dq.terms.items() if not any(e[n:])}
        if terms:
            expected[key] = RationalPoly(n, terms)
    frame = law.frame
    assert list(frame.entries) == list(expected)
    assert all(list(frame.entries[k].terms.items()) == list(p.terms.items())
               for k, p in expected.items())
    assert json.dumps(frame.describe()) == json.dumps(Frame(law.degrees, expected).describe())


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


def bench_shaped_doc(kind, size, constants):
    """Layers and brackets of the benchmark's exact algebras: the filiform algebra
    [e1, e_i] = c e_(i+1) of step ``size``, or the free step-2 algebra of rank ``size``."""
    if kind == "filiform":
        layers, triples = [2] + [1] * (size - 1), [(1, j, j + 1) for j in range(2, size + 1)]
    else:
        pairs = list(itertools.combinations(range(1, size + 1), 2))
        layers = [size, len(pairs)]
        triples = [(i, j, size + m + 1) for m, (i, j) in enumerate(pairs)]
    return {"layers": layers, "brackets": [{"i": i, "j": j, "k": k, "c": str(c)}
                                           for (i, j, k), c in zip(triples, constants)]}


BENCH_SHAPES = [("filiform", step) for step in range(2, 9)] + [("free2", rank) for rank in range(3, 6)]


@st.composite
def bench_shaped_points(draw):
    kind, size = draw(st.sampled_from(BENCH_SHAPES))
    count = size - 1 if kind == "filiform" else size * (size - 1) // 2
    constants = draw(st.lists(st.fractions(-9, 9, max_denominator=9).filter(bool),
                              min_size=count, max_size=count))
    alg = validate_algebra(spec_from_dict(bench_shaped_doc(kind, size, constants)))
    return alg, draw(vectors(alg.n)), draw(vectors(alg.n))


@settings(max_examples=10, deadline=None)
@given(case=bench_shaped_points())
def test_packed_assembly_matches_series_oracle_on_bench_shapes(case):
    alg, x, y = case
    assert bch_group_law(alg).multiply_exact(x, y) == bch_numeric(alg, x, y)


def test_packed_keys_fit_their_fields_at_the_edges(tmp_path):
    # 256 variables in one key: the abelian law is addition, and one bracket
    # [e1, e2] = e_n puts y2 in the 130th field
    n = MAX_DIMENSION
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"layers": [n], "brackets": []}))
    result = cli.run_config({"op": "frame-show", "algebra_file": str(path)})["result"]
    assert (result["n"], result["group_law_terms"], result["frame_entries"]) == (n, {}, {})
    assert not any(bch_group_law(validate_algebra(spec_from_dict({"layers": [n]}))).q_polys)
    law = bch_group_law(validate_algebra(spec_from_dict(
        {"layers": [n - 1, 1], "brackets": [{"i": 1, "j": 2, "k": n, "c": "1"}]})))
    assert not any(law.q_polys[:-1])
    assert law.q_polys[-1] == HALF * (var(2 * n, 0) * var(2 * n, n + 1) - var(2 * n, 1) * var(2 * n, n))

    # step 8: fields of step.bit_length() + 1 = 5 bits; x1^6 y2 is a largest
    # exponent (the part of Q linear in y puts B_7 / 7! = 0 on ad_x^7 y), and
    # every term's total degree stays within the step
    doc = bench_shaped_doc("filiform", 8, [Fraction(k + 1, 8 - k) for k in range(7)])
    alg = validate_algebra(spec_from_dict(doc))
    law = bch_group_law(alg)
    exps = [e for q in law.q_polys for e in q.terms]
    assert max(max(e) for e in exps) == 6 < 2 ** (8).bit_length()
    assert max(sum(e) for e in exps) <= 8
    x = tuple(Fraction(k - 4, k + 1) for k in range(9))
    y = tuple(Fraction(3 - k, 2 * k + 1) for k in range(9))
    assert law.multiply_exact(x, y) == bch_numeric(alg, x, y)


def test_exact_workload_keeps_its_result_bytes(tmp_path):
    # the 20 result blocks of the benchmark's exact workload at seed 11,
    # frame-show and group-check on filiform and free step-2 algebras
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = workloads.generate("exact", 11, tmp_path)
    assert [c["op"] for c in configs] == ["frame-show", "group-check"] * 10
    blocks = [json.dumps(cli.run_config(c)["result"], sort_keys=True) for c in configs]
    assert hashlib.sha256("\n".join(blocks).encode()).hexdigest() \
        == "4d0d1e05ebce065c5aaf259345af4aa9a67ea329a73017a22852aa4f6e856d34"


@settings(max_examples=60, deadline=None)
@given(x=vectors(4), y=vectors(4), z=vectors(4))
def test_property_associative(x, y, z):
    law = fixtures.group_law("engel")
    assert law.multiply_exact(law.multiply_exact(x, y), z) \
        == law.multiply_exact(x, law.multiply_exact(y, z))


COORDINATES = st.one_of(st.just(0), st.integers(-9, 9), RATIONALS)
FILIFORM5 = bch_group_law(validate_algebra(spec_from_dict(COPRIME_DOCS["filiform5"])))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), law=st.sampled_from([fixtures.group_law("engel"), FILIFORM5]))
def test_exact_product_coordinates_are_reduced_fractions(data, law):
    x, y = (data.draw(st.tuples(*[COORDINATES] * law.n)) for _ in range(2))
    naive = [x[i] + y[i] + sum(c * math.prod(Fraction(v) ** e for v, e in zip(x + y, exps))
                               for exps, c in q.terms.items())
             for i, q in enumerate(law.q_polys)]
    product = law.multiply_exact(x, y)
    assert list(product) == naive
    for f in product:
        assert type(f) is Fraction and f == Fraction(f.numerator, f.denominator)
        assert f.denominator > 0 and math.gcd(f.numerator, f.denominator) == 1
        assert f or (f.numerator, f.denominator) == (0, 1)
        if f.denominator == 1:
            k = f.numerator
            assert f == k and hash(f) == hash(k) and k - 1 < f < k + 1 and {k: 1}[f] == 1


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


def test_structure_check_refuses_a_mixed_degree_correction():
    # x1^2 y2 has weighted degree 3 and Q3 degree 2: weighted_degree reads
    # None for a mixed polynomial as for zero, and only zero may pass
    law = fixtures.group_law("heisenberg")
    from gradedgroups.group import _check_law_structure
    mixed = law.q_polys[2] + var(6, 0) * var(6, 0) * var(6, 4)
    assert mixed.weighted_degree(law.degrees + law.degrees) is None
    with pytest.raises(AssertionError, match="homogeneous"):
        _check_law_structure(law.algebra, (law.q_polys[0], law.q_polys[1], mixed))
    _check_law_structure(law.algebra, law.q_polys)


@pytest.mark.parametrize("name, i, extra, message", [
    ("heisenberg", 0, var(6, 0), r"Q_1 must vanish on the first layer"),
    ("heisenberg", 2, var(6, 0) * var(6, 1), r"Q_3\(x, 0\) and Q_3\(0, y\) must vanish"),
    ("heisenberg", 2, var(6, 3) * var(6, 4), r"Q_3\(x, 0\) and Q_3\(0, y\) must vanish"),
    ("engel", 3, var(8, 0) * var(8, 4), r"Q_4 is not 3-homogeneous"),
])
def test_structure_check_names_each_fault(name, i, extra, message):
    # x1 on the first layer is 1-homogeneous; x1 x2 and y1 y2 are 2-homogeneous
    # terms without a y or an x variable; x1 y1 falls short of Q4's degree 3
    law = fixtures.group_law(name)
    from gradedgroups.group import _check_law_structure
    q = list(law.q_polys)
    q[i] = q[i] + extra
    with pytest.raises(AssertionError, match=message):
        _check_law_structure(law.algebra, q)


@pytest.mark.parametrize("name", fixtures.catalog()["groups"])
def test_structure_check_passes_every_builtin_law(name):
    from gradedgroups.group import _check_law_structure
    law = fixtures.group_law(name)
    _check_law_structure(law.algebra, law.q_polys)


def reversed_law(law):
    """The same law with each Q's terms inserted in reverse order."""
    from gradedgroups.group import GroupLaw
    return GroupLaw(law.algebra, [RationalPoly(2 * law.n, dict(reversed(q.terms.items())))
                                  for q in law.q_polys])


@pytest.mark.parametrize("name", ["engel", "filiform8"])
def test_law_outputs_do_not_depend_on_term_order(name, monkeypatch):
    from gradedgroups.metric import HomogeneousDistance
    if name == "engel":
        law = fixtures.group_law("engel")
    else:
        doc = bench_shaped_doc("filiform", 8, [Fraction(k + 1, 8 - k) for k in range(7)])
        law = bch_group_law(validate_algebra(spec_from_dict(doc)))
    other = reversed_law(law)
    assert [list(q.terms) for q in other.q_polys] == [list(q.terms)[::-1] for q in law.q_polys]
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-1, 1, (2, 40, law.n))
    eps = tuple(1.0 + k / 4 for k in range(law.step))
    for f in (lambda g: g.multiply(x, y), lambda g: g.left_jacobian(x, y),
              lambda g: HomogeneousDistance(g, eps).distance(x, y)):
        assert f(law).tobytes() == f(other).tobytes()
    rng = random.Random(5)
    for _ in range(5):
        p, q = ([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(law.n)] for _ in range(2))
        assert law.multiply_exact(p, q) == other.multiply_exact(p, q)
    assert law.frame.describe() == other.frame.describe()
    shown = []
    for g in (law, other):
        monkeypatch.setattr(cli, "_resolve_law", lambda cfg: g)
        shown.append(cli._run_frame_show({}))
    assert shown[0] == shown[1]


@pytest.mark.parametrize("constants, message", [
    # q3 = 10^400 (x1 y2 - x2 y1) / 2: a tie, won by x1 y2's larger exponents
    ([10 ** 400], f"coefficient {5 * 10 ** 399} of q3 "),
    # q3 fits; q4 holds 10^400 (x1 y3 - x3 y1) / 2 and smaller terms of 10^400 / 12
    ([1, 10 ** 400], f"coefficient {5 * 10 ** 399} of q4 "),
    ([-(10 ** 400), 1], f"coefficient {-5 * 10 ** 399} of q3 "),
], ids=["q3_tie", "q4", "q3_negative_tie"])
def test_overflow_message_does_not_depend_on_term_order(constants, message):
    from gradedgroups.algebra import NumericalResolutionError
    law = bch_group_law(validate_algebra(spec_from_dict(
        bench_shaped_doc("filiform", len(constants) + 1, constants))))
    messages = []
    for g in (law, reversed_law(law)):
        with pytest.raises(NumericalResolutionError) as err:
            g.multiply(np.zeros(g.n), np.zeros(g.n))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert message in messages[0]


# layers [2, 1, 2]: [e1, e3] and [e2, e3] each have two terms
SEVERAL_TERMS = [(1, 2, 3, 1), (1, 3, 4, 1), (1, 3, 5, 1), (2, 3, 4, 1), (2, 3, 5, -1)]


def test_images_of_several_terms_and_mirrored_entries_match_series_oracle():
    def law_of(entries):
        return bch_group_law(validate_algebra(spec_from_dict({
            "layers": [2, 1, 2],
            "brackets": [{"i": i, "j": j, "k": k, "c": c} for i, j, k, c in entries]})))

    law = law_of(SEVERAL_TERMS)
    mirrored = law_of([(j, i, k, -c) for i, j, k, c in SEVERAL_TERMS])
    assert law.q_polys == mirrored.q_polys
    assert all(law.q_polys[3:])
    rng = random.Random(29)
    for _ in range(20):
        x, y = ([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)] for _ in range(2))
        assert law.multiply_exact(x, y) == mirrored.multiply_exact(x, y) == bch_numeric(law.algebra, x, y)
