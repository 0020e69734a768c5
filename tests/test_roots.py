import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gradedgroups
from gradedgroups import fixtures
from gradedgroups.curve import polynomial_curve
from gradedgroups.metric import HomogeneousDistance
from gradedgroups.roots import (_SCOPE, MAX_HALVINGS, PREDICT_STEPS, NumericalResolutionError,
                                _bernstein, _bracket_source, _derivative, _exit, first_exit,
                                horner, reach_tol, runs, table_runs, taylor_shift)


def _below(p, a, c):
    """P < 0 on [a, c] by its Bernstein enclosure, as the search certifies an interval inside."""
    b, margin = _bernstein(p, a, c - a)
    return max(b) < -margin


def _certified(polys, a):
    """Every coefficient of every _bernstein(p, 0.0, a) below minus its rounding bound."""
    return all(all(e < -margin for e in b) for b, margin in (_bernstein(p, 0.0, a) for p in polys))


def _bracket(polys, g, hi, tol):
    """The scalar Newton prediction the generated brackets unroll, as a reference."""
    vals = [horner(p, g) for p in polys]
    v = max(vals)
    p = polys[vals.index(v)]
    dp, x = _derivative(p), g
    for _ in range(PREDICT_STEPS):
        d = horner(dp, x)
        if not d > 0.0:
            return None
        step = v / d
        x -= step
        if not 0.0 < x < hi:
            return None
        width = 0.5 * tol(x)
        if abs(step) <= width:
            a, c = x - 0.5 * width, x + 0.5 * width
            va, vc = horner(p, a), horner(p, c)
            if va <= 0.0 < vc:
                return a if 0.0 < a and c <= hi else None
            x, v = (a, va) if va > 0.0 else (c, vc)
        else:
            v = horner(p, x)
    return None


def tol12(a):
    return 1e-12 * abs(a) + 1e-16


def _first_exit(polys, hi, guess):
    """A reach on one piece [0, hi] from start 0, where the reach tolerance is
    tol12, as measure's reach takes it: the bracket of _bracket_source, and
    where its certificate refuses [0, a], roots.first_exit on [0, a]."""
    a, certified = _local_bracket(polys)(polys, guess, hi, 0.0, 0.0)
    if not certified:
        a = first_exit(polys, a, 0.0, 0.0)
    return a if a < hi else None


@lru_cache(maxsize=None)
def _compiled(names):
    """bracket(polys, g, hi, start, offset) -> (a, certified): the text of
    _bracket_source on the coefficient terms ``names`` (a tuple per P), the
    coefficients of ``polys`` unpacked into the locals c{i}_{k}."""
    unpack = "".join(f"({', '.join(f'c{i}_{k}' for k in range(len(p)))},), "
                     for i, p in enumerate(names))
    scope = dict(_SCOPE)
    head = f"def bracket(polys, g, hi, start, offset):\n    {unpack and unpack + '= polys'}\n"
    body = _bracket_source([list(p) for p in names], "offset", "return a, False")
    exec(f"{head}{body}    return a, True\n", scope)  # noqa: S102
    return scope["bracket"]


def _local_bracket(polys):
    """The bracket text for ``polys`` with every coefficient a local."""
    return _compiled(tuple(tuple(f"c{i}_{k}" for k in range(len(p))) for i, p in enumerate(polys)))


def _literal_bracket(polys):
    """The bracket text for ``polys``, each finite coefficient written in as its float literal."""
    return _compiled(tuple(tuple(repr(c) if math.isfinite(c) else f"c{i}_{k}"
                                 for k, c in enumerate(p)) for i, p in enumerate(polys)))


# -- runs of polynomial inequalities --------------------------------------------------


def from_roots(*roots, lead=1.0):
    return (lead * np.polynomial.polynomial.polyfromroots(roots)).tolist()


def assert_ends(polys, found, edges):
    """Each run end is inside and within tol of its exact edge."""
    assert len(found) == len(edges)
    for (u, v), (eu, ev) in zip(found, edges):
        assert all(horner(p, x) <= 0.0 for p in polys for x in (u, v))
        assert abs(u - eu) <= tol12(eu) and abs(v - ev) <= tol12(ev), (u, v, eu, ev)


def test_runs_finds_two_runs_in_one_polynomial():
    p = from_roots(0.2, 0.4, 0.6, 0.8)
    found = list(runs([p], 0.0, 1.0, tol12))
    assert_ends([p], found, [(0.2, 0.4), (0.6, 0.8)])


def test_runs_enters_where_a_falling_polynomial_crosses():
    # outside up to the falling root 0.3, then inside to the end, and cut
    # at 0.7 by a rising companion
    falling, rising = [0.3, -1.0], [-0.7, 1.0]
    (run,) = runs([falling], 0.0, 1.0, tol12)
    assert_ends([falling], [run], [(0.3, 1.0)])
    assert run[1] == 1.0
    assert_ends([falling, rising], list(runs([falling, rising], 0.0, 1.0, tol12)),
                [(0.3, 0.7)])
    # (s - 0.1)(s - 0.5)(s - 0.9) <= 0: it leaves at 0.1, re-enters at 0.5, leaves at 0.9
    cubic = from_roots(0.1, 0.5, 0.9)
    assert_ends([cubic], list(runs([cubic], -1.0, 1.0, tol12)), [(-1.0, 0.1), (0.5, 0.9)])


def test_runs_touching_each_end_end_there_exactly():
    p = from_roots(0.25, 0.75, lead=-1.0)      # inside near 0 and near 1
    found = list(runs([p], 0.0, 1.0, tol12))
    assert found[0][0] == 0.0 and found[-1][1] == 1.0
    assert_ends([p], found, [(0.0, 0.25), (0.75, 1.0)])
    # all of [lo, hi] inside is one run from end to end
    assert list(runs([[-1.0, 0.0, 1.0]], -0.5, 0.5, tol12)) == [(-0.5, 0.5)]


def test_runs_without_a_run():
    assert list(runs([[1.0, 0.0, 1.0]], -1.0, 1.0, tol12)) == []
    # each P is inside only where the other is outside
    assert list(runs([[-0.4, 1.0], [0.6, -1.0]], 0.0, 1.0, tol12)) == []


def test_runs_split_at_a_tangency():
    # -(s - 1/2)^2 <= 0 everywhere, touching 0 at 1/2: the interval around
    # the tangency is not resolved, counts as outside, and splits the run
    touching = [-0.25, 1.0, -1.0]
    (u0, v0), (u1, v1) = runs([touching], 0.0, 1.0, tol12)
    assert u0 == 0.0 and v1 == 1.0
    assert 0.5 - 1e-6 < v0 <= 0.5 <= u1 < 0.5 + 1e-6


def test_runs_do_not_see_a_run_narrower_than_tol():
    # s^2 - 1e-30 <= 0 only on |s| <= 1e-15, below a width of 1e-12
    assert list(runs([[-1e-30, 0.0, 1.0]], -1.0, 1.0, lambda a: 1e-12)) == []
    # resolved where tol allows it: tol12 is 1e-16 near 0
    ((u, v),) = runs([[-1e-30, 0.0, 1.0]], -1.0, 1.0, tol12)
    assert -1e-15 <= u < -0.9e-15 and 0.9e-15 < v <= 1e-15


def test_runs_stop_within_the_halving_budget():
    # 1e22 (s - 0.6)^4 - 1 at the scale of its coefficients: around 0.6 no
    # interval is certified either way, and the search gives up
    p = (1e22 * np.polynomial.polynomial.polyfromroots([0.6] * 4)).tolist()
    p[0] -= 1.0
    with pytest.raises(NumericalResolutionError, match=f"{MAX_HALVINGS} halvings"):
        list(runs([p, [-1.0, 0.0, 1e-30]], 0.0, 1.0, lambda a: 1e-15))


def test_table_runs_sorts_out_whole_pieces_and_merges_at_breaks():
    # three pieces of t - 0.5 <= 0 written about different origins, and a
    # fourth where it is s^2 + 1 > 0: the first two are inside whole, the
    # third is searched, the last dropped; runs meeting at a break merge
    table = np.zeros((1, 3, 4))
    table[0, :2, 0] = [-0.5, 1.0]            # origin 0
    table[0, :2, 1] = [-0.25, 1.0]           # origin 0.25
    table[0, :2, 2] = [-0.1, 1.0]            # origin 0.4, root at 0.5
    table[0, :, 3] = [1.0, 0.0, 1.0]
    found = table_runs(table, (0.0, 1.0), (0.2, 0.4, 0.6), np.array([0.0, 0.25, 0.4, 0.6]),
                       tol12)
    ((u, v),) = found
    assert u == 0.0 and 0.5 - 1e-12 <= v <= 0.5


# -- first exit of polynomial inequalities ----------------------------------------


def test_first_exit_finds_a_window_narrower_than_1e_6():
    # P > 0 only on 0.3 -+ 2.5e-7; a companion that never exits changes nothing
    eps = 2.5e-7
    narrow = [eps * eps - 0.09, 0.6, -1.0]
    never = [-1.0, 0.0, 0.5]
    for polys in ([narrow], [never, narrow]):
        for guess in (None, 0.9, 0.3, 1e-3):
            s = _first_exit(polys, 1.0, guess)
            # the rounded coefficients move the root by about 1e-17 / P' = 3e-11
            assert abs(s - (0.3 - eps)) < 1e-10, guess
            assert horner(narrow, s) <= 0.0 < horner(narrow, s + tol12(s))
    assert _first_exit([never], 1.0, 0.5) is None
    assert all(reach_tol(0.0, a) == tol12(a) for a in (0.0, 1e-300, 3e-4, 0.3, 1.0, 3.0))


def test_first_exit_ends_conservatively_at_a_tangency():
    # P = -(s - 1/2)^2 touches 0 at 1/2 and never exceeds it: no interval
    # around 1/2 certifies, and the search stops short of it at tol width
    touching = [-0.25, 1.0, -1.0]
    for guess in (None, 0.5, 0.7):
        s = _first_exit([touching], 1.0, guess)
        assert 0.5 - 1e-6 < s <= 0.5, guess
    # without a width to stop at, the halvings of its search (the whole of
    # first_exit without a guess) run out
    with pytest.raises(NumericalResolutionError, match="halvings"):
        _exit([touching], 1.0, lambda a: 0.0)


def test_first_exit_takes_the_earliest_root():
    # layer 0 exits at 0.8, layer 1 at 0.4; near 0.8 layer 0 is the more
    # violated, so a guess there is refined to 0.8, and the certification
    # of [0, 0.8] finds the earlier exit
    late, early = [-64.0, 0.0, 100.0], [-0.16, 0.0, 1.0]
    for guess in (None, 0.85, 0.8, 0.41):
        s = _first_exit([late, early], 1.0, guess)
        assert 0.4 - tol12(0.4) <= s <= 0.4, guess
    # (s - 0.2)(s - 0.3)(s - 0.7): a guess past 0.7 is refined to its last
    # root, and the certification finds the first
    three = [-0.042, 0.41, -1.2, 1.0]
    for guess in (None, 0.75, 0.25):
        s = _first_exit([three], 1.0, guess)
        assert horner(three, s) <= 0.0 < horner(three, s + tol12(s))
        assert abs(s - 0.2) < 1e-12, guess
    # an exit past hi is no exit
    assert _first_exit([late], 0.7, 0.5) is None


# coefficients: signed zeros, small dyadics (which tie exactly), and floats
# of any size, whose Horner sums overflow to inf and nan
_coefficient = st.one_of(st.sampled_from([0.0, -0.0]),
                         st.integers(-16, 16).map(lambda k: k / 8.0),
                         st.floats(-4.0, 4.0), st.floats(allow_nan=False, allow_infinity=False))


# polynomials with up to 8 dyadic roots in (0, 3), the first repeated up to
# 4 times, and a dyadic lead: Newton from a guess near a simple root
# brackets it, near a multiple one it crawls, overshoots its bracket test or
# runs out of steps
_rooted = st.builds(lambda zeros, repeat, lead: from_roots(*zeros, *zeros[:1] * repeat, lead=lead),
                    st.lists(st.integers(1, 47).map(lambda k: k / 16.0), min_size=1, max_size=4),
                    st.integers(0, 4), st.integers(-16, 16).map(lambda k: k / 4.0))


# polynomials shaped like those of a d = 0 anchor table of the covering walk:
# P(0) = -1.0 and P'(0) = 0.0 exactly, some interior coefficients signed
# zeros, so that every operation the generated text saves on a literal zero
# is saved somewhere (and the constant -1.0 has none to save but its Horner
# sum's leading one)
_anchored = st.builds(lambda rest: [-1.0, 0.0, *rest] if rest else [-1.0],
                      st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0),
                                         st.integers(-16, 16).map(lambda k: k / 8.0)),
                               max_size=7))


@st.composite
def _guesses(draw):
    """(g, hi): g in (0, hi), often a sixteenth of it."""
    hi = draw(st.sampled_from([1.0, 0.25, 3.0]))
    return draw(st.one_of(st.integers(1, 15).map(lambda k: k * hi / 16.0),
                          st.floats(0.0, hi, exclude_min=True, exclude_max=True))), hi


# (start, offset) of a reach, for its tolerance: 1e-12 relative (start 0),
# 2^-10 (four float spacings at 2^40), the spacing floor alone (start 1024,
# offset -1024), inf (start inf), and those of reaches along a walk
_tolerances = st.one_of(
    st.sampled_from([(0.0, 0.0), (0.0, 0.0), (2.0 ** 40, 0.0), (1024.0, -1024.0), (math.inf, 0.0)]),
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2.0)))


@st.composite
def _bracket_cases(draw):
    """(polys, g, hi, start, offset): one to three polys of lengths 1 to 9,
    some anchored, some tied at g, some with a zero top coefficient, g in
    (0, hi), and the reach whose tolerance the bracket computes."""
    polys = draw(st.lists(st.one_of(st.lists(_coefficient, min_size=1, max_size=9), _rooted,
                                    _anchored), min_size=1, max_size=3))
    g, hi = draw(_guesses())
    for p in polys[1:]:
        if draw(st.booleans()):        # shift p to the value of the first P at g: a tie
            p[0] += horner(polys[0], g) - horner(p, g)
    for p in polys:
        if draw(st.integers(0, 3)) == 0:
            p[-1] = 0.0
    return polys, g, hi, *draw(_tolerances)


@st.composite
def _table_cases(draw):
    """(polys, g, hi, start, offset, reach): the P of a curve's anchor table,
    of offset d >= 0 on a table of two or three pieces (HomogeneousDistance.
    membership), and the reach that table compiles on them, with g, hi and
    the tolerance drawn as for _bracket_cases."""
    group = draw(st.sampled_from(["heisenberg", "engel"]))
    law = fixtures.group_law(group)
    count, degree = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    size = (degree + 1) * law.n * count
    coef = np.reshape(draw(st.lists(st.one_of(st.integers(-8, 8).map(lambda k: k / 8.0),
                                              st.floats(-1.0, 1.0)), min_size=size, max_size=size)),
                      (degree + 1, law.n, count))
    breaks = sorted(draw(st.sets(st.sampled_from([-0.5, 0.0, 0.3]), min_size=count - 1,
                                 max_size=count - 1)))
    curve = polynomial_curve(coef, (-1.0, 1.0), breaks)
    dist = HomogeneousDistance(law, [1.0] * law.step)
    polys, bracket, _ = dist.membership(curve.pieces, draw(st.floats(0.1, 1.0)))
    d = draw(st.integers(0, count - 1))
    m, u = draw(st.integers(0, count - 1 - d)), draw(st.floats(0.0, 0.5))
    ps = polys(m, d, u)
    assume(ps)
    return (ps, *draw(_guesses()), *draw(_tolerances), lambda _, *args: bracket(m, d, u, *args))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_bracket_cases(), _table_cases()))
# 2 (s - 1/8)^3 (s - 5/8): from 2.3125, 5/8 is bracketed on the last step
@example(([[0.00244140625, -0.0625, 0.5625, -2.0, 2.0]], 2.3125, 3.0, 0.0, 0.0))
# 1.25 (s - 3/2)^3, at tolerance 2^-4: the bracket test fails past the
# triple root, twice, then holds ...
@example(([[-4.21875, 8.4375, -5.625, 1.25]], 0.6875, 3.0, 2.0 ** 46, 0.0))
# ... and 2.5 (s - 5/2)^3, at tolerance 2^-7, short of it
@example(([[-39.0625, 46.875, -18.75, 2.5]], 2.8125, 3.0, 2.0 ** 43, 0.0))
# both -1/2 at 1/2: the first listed is refined, to its root 1 or 3/4
@example(([[-1.0, 1.0], [-1.5, 2.0]], 0.5, 2.0, 0.0, 0.0))
@example(([[-1.5, 2.0], [-1.0, 1.0]], 0.5, 2.0, 0.0, 0.0))
# anchored, with a literal derivative 2 * 1e308 that overflows: it is
# written as its product, not as a literal; and a zero interior term
@example(([[-1.0, 0.0, 1e308]], 0.5, 1.0, 0.0, 0.0))
@example(([[-1.0, 0.0, -0.0, 2.0], [-1.0, 0.0, 1.0]], 0.75, 1.0, 0.0, 0.0))
# a linear guide brackets 1e160, where s^2 overflows: the zero term 0.0 s^2
# of the second P is nan, not 0, and the certificate is refused
@example(([[-1e300, 1e140], [-1e300, 0.0, 0.0, -5e-324]], 1.5e160, 2e160, 0.0, 0.0))
def test_bracket_kernel_is_the_scalar_bracket(case):
    # the same float, bit for bit, wherever Newton lands, and hi wherever it
    # leaves (0, hi) or finds no bracket; and the same certificate of [0, a]:
    # every Bernstein coefficient of every P below minus its rounding bound.
    # Three texts of the one generator: on coefficients unpacked into
    # locals; with every finite one written in as a literal, as the covering
    # walk writes in those of its tables; and, on the P of a curve's anchor
    # table, the reach that table compiles, which searches [0, a] in place
    # where the certificate refuses
    polys, g, hi, start, offset, *table = case
    want = _bracket(polys, g, hi, lambda x: reach_tol(start, offset + x))
    a = hi if want is None else want
    certified = _certified(polys, a)
    for bracket in (_local_bracket(polys), _literal_bracket(polys)):
        got = bracket(polys, g, hi, start, offset)
        assert (got[0].hex(), got[1]) == (a.hex(), certified)
    for reach in table:
        searched = a if certified else first_exit(polys, a, start, offset)
        assert reach(polys, g, hi, start, offset).hex() == searched.hex()


def test_bracket_kernels_compile_on_first_use():
    # a table's texts compile per distance on first use: a fresh interpreter
    # that imports the package has compiled none.  A walk compiles its loop
    # and one reach per layout of the tables at d >= 1 it crosses into: none
    # on the vertical line or the parabola, one across the break of
    # glued_hv; and no evaluate, as a refusal is searched in place.  Walking
    # again compiles nothing, and no text is compiled twice
    script = """if True:
        import sys
        texts = []

        def hook(event, args):
            if event == "compile" and isinstance(args[0], (bytes, str)):
                text = args[0] if isinstance(args[0], bytes) else args[0].encode()
                if text.startswith((b"def walk(", b"def reach(", b"def evaluate(")):
                    texts.append(text.split(b"(")[0])

        sys.addaudithook(hook)
        import gradedgroups.cli
        from gradedgroups import fixtures
        from gradedgroups.measure import spherical_measure_upper
        print(len(texts))
        dist = fixtures.distance("heisenberg")
        for name in ("vertical", "parabola_lift", "glued_hv"):
            curve = fixtures.curve(name)
            first = spherical_measure_upper(dist, curve, 2, 2.0 ** -4)
            print(name, texts.count(b"def walk"), texts.count(b"def reach"))
            assert spherical_measure_upper(dist, curve, 2, 2.0 ** -4) == first
        print(len(texts))
    """
    env = dict(os.environ)
    src = str(Path(gradedgroups.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         timeout=120)
    assert out.stdout == "0\nvertical 1 0\nparabola_lift 2 0\nglued_hv 3 1\n4\n", out.stderr


@settings(max_examples=300, deadline=None)
@given(st.lists(_coefficient, min_size=1, max_size=9), st.floats(0.0, exclude_min=True))
def test_bernstein_on_0_keeps_the_constant_coefficient(p, w):
    # without a shift the Bernstein sweep never touches coefficient 0: it is
    # p(0), bit for bit, at any width.  So on [0, c] the enclosure of a P'
    # with P'(0) = 0 holds a 0 and certifies no sign, and the search skips
    # it there (roots._inside_part)
    assert _bernstein(p, 0.0, w)[0][0].hex() == p[0].hex()


def test_taylor_shift_and_horner():
    p = [1.0, -2.0, 0.5, 3.0]
    q = taylor_shift(p, 0.25)
    for s in (-1.0, 0.0, 0.3, 2.0):
        assert horner(q, s) == pytest.approx(horner(p, 0.25 + s), rel=1e-14)


def _claim(polys, r):
    """The bracket's (a, certified) on ``polys`` behind a guide: L (s - r), L = 2^40,
    is the most violated at g = 2r; two Newton steps land on r exactly at
    width 4 ulp(1024) = 2^-40 (start 1024, offset -r), so a = r - 2^-42, and
    the guide is certified on [0, a] itself."""
    polys = [[-r * 2.0 ** 40, 2.0 ** 40], *polys]
    return _local_bracket(polys)(polys, 2.0 * r, 4.0 * r, 1024.0, -r)


def test_kernel_certificate_takes_the_margin_of_each_degree():
    # (1 - 2^-52) s^2 - 1 on [0, 1]: its Bernstein coefficients are -1, -1
    # and -2^-52, negative but inside the rounding bound 16 * 2^-53 * (2 -
    # 2^-52), so the bracket is refused, as _below refuses it
    p, one, half = [-1.0, 0.0, 1.0 - 2.0 ** -52], 1.0 + 2.0 ** -42, 0.5 + 2.0 ** -42
    assert not _below(p, 0.0, 1.0)
    assert _claim([p], one) == (1.0, False)
    assert _claim([p], half) == (0.5, True)
    # the same P among others of other degrees, padded by none of them
    ok = [-1.0], [-2.0, 0.5], [-1.0, 0.0, 0.0, 0.0, 0.5]
    assert _claim([[-1.0]], 5.0 + 2.0 ** -42) == (5.0, True)
    assert _claim(ok, one) == (1.0, True) and _claim([*ok, p], half) == (0.5, True)
    assert _claim([*ok, p], one) == (1.0, False) and _claim([p, *ok], one) == (1.0, False)
    assert _claim([[-1.0, 0.0, 1.0 / 64.0]], one) == (1.0, True)
    assert _claim([[-1.0, 0.0, 1.0 / 64.0], p], one) == (1.0, False)
    # the bound is (4 deg + 8) 2^-53 sum |p_k|: -1 + (1 - e) s^deg on [0, 1]
    # has the top coefficient -e, refused just inside it and certified just
    # outside, at every degree
    for n in range(1, 9):
        for e, certified in (((4 * n + 6) * 2.0 ** -52, False), ((4 * n + 10) * 2.0 ** -52, True)):
            q = [-1.0] + [0.0] * (n - 1) + [1.0 - e]
            assert _below(q, 0.0, 1.0) == certified
            assert _claim([q], one) == (1.0, certified)


def test_kernel_certificate_agrees_with_below():
    # random brackets over polys of degrees 0 to 8, many of them within
    # rounding of 0 at the far end a, some with a nan, an infinite or a
    # signed zero coefficient: each is refused exactly where _below refuses
    # one of its P, and where a Bernstein coefficient of one P is not below
    # minus its rounding bound; a bracket over the polys of several is
    # refused exactly from the first refused one on
    rng = np.random.default_rng(5)
    flags, expect, specials = [], [], set()
    for _ in range(100):
        r = float(rng.uniform(0.01, 2.0))
        a = r - 2.0 ** -42
        group = []
        for _ in range(4):
            polys = []
            for n in rng.integers(0, 9, size=rng.integers(1, 4)).tolist():
                p = rng.normal(size=n + 1).tolist()
                p[0] -= max(horner(p, x) for x in np.linspace(0.0, a, 64)) + float(rng.choice(
                    [1e-3, 1e-14, 1e-16, 0.0, -1e-16]))
                k, special = int(rng.integers(0, n + 1)), int(rng.integers(0, 10))
                # none is +inf at g, where it would be the most violated
                if special == 0:
                    p[k] = math.nan
                elif special == 1:
                    p[k] = -math.inf
                elif special == 2 and k < n:
                    p[k], p[n] = math.inf, -math.inf
                elif special == 3:
                    p[k] = float(rng.choice([0.0, -0.0]))
                else:
                    special = None
                specials.add(special)
                polys.append(p)
            group.append(polys)
            got = _claim(polys, r)
            assert got[0] == a
            flags.append(got[1])
            expect.append(all(_below(p, 0.0, a) for p in polys))
            assert got[1] == _certified(polys, a)
        first = expect[-4:].index(False) if False in expect[-4:] else 4
        for j in range(4):
            union = [p for polys in group[:j + 1] for p in polys]
            assert _claim(union, r) == (a, j < first)
    assert specials == {None, 0, 1, 2, 3}
    assert 0 < sum(expect) < len(expect)
    assert flags == expect


# -- the test settings -------------------------------------------------------------


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    # under the repository's filterwarnings = ["error"], the failure report of
    # a @given test imports modules that warn; the run must report the
    # falsifying example and go on, not end in an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 5\n\n\n"
        "def test_runs():\n    pass\n")
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(Path(__file__).resolve().parent.parent / "pyproject.toml"),
                          str(tmp_path / "test_fails.py")],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "Falsifying example" in out.stdout and "1 failed, 1 passed" in out.stdout, out.stdout
