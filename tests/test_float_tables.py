"""The float term tables against the generated text they replaced, bit for bit."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import float_oracle
from gradedgroups import fixtures
from gradedgroups.algebra import spec_from_dict, validate_algebra
from gradedgroups.group import bch_group_law


def _doc(layers, triples):
    """Layers and brackets with nonzero rational constants of both signs."""
    return {"layers": layers,
            "brackets": [{"i": i, "j": j, "k": k, "c": str(Fraction((-1) ** m * (m + 3), m % 4 + 2))}
                         for m, (i, j, k) in enumerate(triples)]}


def _filiform(step):
    return _doc([2] + [1] * (step - 1), [(1, j, j + 1) for j in range(2, step + 1)])


def _free2(rank):
    pairs = list(itertools.combinations(range(1, rank + 1), 2))
    return _doc([rank, len(pairs)], [(i, j, rank + m + 1) for m, (i, j) in enumerate(pairs)])


DOCS = {"filiform5": _filiform(5), "filiform8": _filiform(8), "free2_rank5": _free2(5),
        "step1": {"layers": [3], "brackets": []}}
LAWS = [*fixtures.group_names(), *DOCS]


@pytest.fixture(scope="module", params=LAWS)
def law(request):
    if request.param in DOCS:
        return bch_group_law(validate_algebra(spec_from_dict(DOCS[request.param])))
    return fixtures.group_law(request.param)


def same(a, b):
    """Equal type, shape and bytes: every bit, the sign of a zero included."""
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def points(rng, shape):
    """Uniform in [-2, 2], with about a third of the coordinates +0.0 or -0.0."""
    p = rng.uniform(-2.0, 2.0, shape)
    zeros = rng.random(shape) < 0.35
    p[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    return p


def pairs(rng, n):
    """(x, y) pairs: (n,) with (m, n), (m, 1, n) with (1, k, n), one point,
    one point of Python floats and one of signed zeros alone."""
    zeros = np.where(rng.random((2, n)) < 0.5, 0.0, -0.0)
    return [(points(rng, n), points(rng, (6, n))), (points(rng, (5, n)), points(rng, n)),
            (points(rng, (4, 1, n)), points(rng, (1, 3, n))),
            (points(rng, n), points(rng, n)),
            (points(rng, n).tolist(), points(rng, n).tolist()), tuple(zeros)]


def test_multiply_and_left_jacobian_match_the_text(law):
    rng = np.random.default_rng(36)
    for x, y in pairs(rng, law.n):
        kept = np.copy(x), np.copy(y)
        assert same(law.multiply(x, y), float_oracle.multiply(law, x, y))
        assert same(law.left_jacobian(x, y), float_oracle.left_jacobian(law, x, y))
        assert same(np.asarray(x), kept[0]) and same(np.asarray(y), kept[1])


def test_frame_coordinates_match_the_text(law):
    rng = np.random.default_rng(37)
    for x, v in pairs(rng, law.n):
        assert same(law.frame.coordinates(x, v), float_oracle.coordinates(law.frame, x, v))


def test_as_callable_matches_the_text(law):
    rng = np.random.default_rng(38)
    polys = [*law.q_polys, *law.y_partials.values(), *law.frame.entries.values()]
    nvars = 2 * law.n
    arrays = list(points(rng, (nvars, 7)))
    kept = [c.copy() for c in arrays]
    # arrays of one shape, Python floats, numpy scalars, signed zeros
    for cols in (arrays, [c.reshape(7, 1) for c in arrays], points(rng, nvars).tolist(),
                 list(points(rng, nvars)), list(np.where(rng.random(nvars) < 0.5, 0.0, -0.0))):
        for p in polys:
            v = cols[:p.nvars]
            assert same(p.as_callable()(v), float_oracle.as_callable(p)(v)), (p, v)
    assert all(same(c, k) for c, k in zip(arrays, kept))    # no column written
