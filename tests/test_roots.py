import math

import numpy as np
import pytest

from gradedgroups.roots import (POINTS, NumericalResolutionError, _below, bisect, certify,
                              first_exit, horner, intervals, taylor_shift)


def counting(inside):
    calls = []

    def probe(t):
        calls.append(np.array(t))
        return inside(np.asarray(t))

    return probe, calls


def test_bisect_either_bracket_order():
    edge = 1.0 / 3.0
    below, calls = counting(lambda t: t < edge)
    above, _ = counting(lambda t: t > edge)
    lo, hi = bisect(below, 0.0, 1.0, lambda a, b: 1e-12, 100)
    assert lo < edge < hi and hi - lo <= 1e-12
    assert all(c.shape == (POINTS,) for c in calls)
    # the same bracket entered from its other end, with the ends swapped
    lo, hi = bisect(above, 1.0, 0.0, lambda a, b: 1e-12, 100)
    assert lo > edge > hi and lo - hi <= 1e-12


def test_bisect_keeps_the_first_crossing_from_a():
    # inside on [0, 0.2) and (0.4, 0.8): halving from the midpoint 0.5 would
    # settle on 0.8; the edge nearest a is 0.2, from either end
    def inside(t):
        return (t < 0.2) | ((t > 0.4) & (t < 0.8))

    lo, hi = bisect(inside, 0.0, 1.0, lambda a, b: 1e-12, 100)
    assert lo < 0.2 < hi and hi - lo <= 1e-12
    lo, hi = bisect(lambda t: ~inside(t), 1.0, 0.0, lambda a, b: 1e-12, 100)
    assert lo > 0.8 > hi and lo - hi <= 1e-12


def test_bisect_honours_tol_and_max_iter():
    inside, calls = counting(lambda t: t < math.pi)
    lo, hi = bisect(inside, 0.0, 4.0, lambda a, b: 0.25, 100)
    assert lo < math.pi < hi and hi - lo <= 0.25
    assert len(calls) == 1                     # one round: 4 -> 4 / 257

    inside, calls = counting(lambda t: t < math.pi)
    lo, hi = bisect(inside, 0.0, 4.0, lambda a, b: 0.0, 2)
    assert len(calls) == 2
    assert lo < math.pi < hi
    assert math.isclose(hi - lo, 4.0 / (POINTS + 1) ** 2, rel_tol=1e-9)

    # a relative tolerance is evaluated on the current bracket, not the first
    inside, calls = counting(lambda t: t < 900.0)
    lo, hi = bisect(inside, 1.0, 1001.0, lambda a, b: 1e-3 * a, 100)
    assert hi - lo <= 1e-3 * lo and len(calls) == 2


def test_bisect_stops_at_float_resolution():
    edge = 0.1
    inside, calls = counting(lambda t: t <= edge)
    lo, hi = bisect(inside, 0.0, 1.0, lambda a, b: 0.0, 10_000)
    assert lo == edge and hi == math.nextafter(edge, 1.0)
    assert len(calls) <= 8


def test_bisect_rounds_on_a_smooth_edge():
    # t^2 - 0.3 <= 0 up to sqrt(0.3): each round shrinks the bracket
    # 257-fold, so 1e-12 takes 5 calls
    edge = math.sqrt(0.3)
    inside, calls = counting(lambda t: t * t - 0.3 <= 0.0)
    lo, hi = bisect(inside, 0.0, 1.0, lambda a, b: 1e-12, 8)
    assert lo <= edge < hi and hi - lo <= 1e-12
    assert len(calls) == 5


GRID = np.linspace(0.0, 1.0, 11)
TOL = 1e-12


def scan(inside):
    return intervals(inside, GRID, inside(GRID), lambda a, b: TOL, 8)


def test_intervals_runs_touching_the_grid_ends():
    def inside(t):
        return (t < 0.25) | (t > 0.83)

    (lo0, hi0), (lo1, hi1) = scan(inside)
    assert lo0 == 0.0 and hi1 == 1.0          # runs end at the first and last grid point
    assert 0.25 - TOL <= hi0 < 0.25 and 0.83 < lo1 <= 0.83 + TOL
    # one grid point in from either end, the ends are refined toward it
    ((lo, hi),) = scan(lambda t: (t > 0.05) & (t < 0.95))
    assert 0.05 < lo <= 0.05 + TOL and 0.95 - TOL <= hi < 0.95


def test_intervals_ends_are_inside_within_tol():
    def inside(t):
        return (t > 0.12) & (t < 0.47) | (t > 0.58) & (t < 0.66)

    runs = scan(inside)
    assert len(runs) == 2
    for (lo, hi), (edge_lo, edge_hi) in zip(runs, [(0.12, 0.47), (0.58, 0.66)]):
        assert inside(np.array([lo, hi])).all()
        assert edge_lo < lo <= edge_lo + TOL and edge_hi - TOL <= hi < edge_hi


def test_intervals_run_narrower_than_a_cell():
    # only the grid point 0.5 is inside; both ends are refined from it
    def inside(t):
        return abs(t - 0.5) < 1e-3

    ((lo, hi),) = scan(inside)
    assert 0.499 < lo <= 0.499 + TOL and 0.501 - TOL <= hi < 0.501


def test_intervals_without_a_run():
    assert scan(lambda t: t > 2.0) == ()
    # a component strictly between two grid points is not seen
    assert scan(lambda t: (t > 0.61) & (t < 0.66)) == ()


# -- first exit of polynomial inequalities ----------------------------------------


def tol12(a):
    return 1e-12 * a + 1e-16


def test_first_exit_finds_a_window_narrower_than_1e_6():
    # P > 0 only on 0.3 -+ 2.5e-7; a companion that never exits changes nothing
    eps = 2.5e-7
    narrow = [eps * eps - 0.09, 0.6, -1.0]
    never = [-1.0, 0.0, 0.5]
    for polys in ([narrow], [never, narrow]):
        for guess in (None, 0.9, 0.3, 1e-3):
            s = first_exit(polys, 1.0, guess, tol12)
            # the rounded coefficients move the root by about 1e-17 / P' = 3e-11
            assert abs(s - (0.3 - eps)) < 1e-10, guess
            assert horner(narrow, s) <= 0.0 < horner(narrow, s + tol12(s))
    assert first_exit([never], 1.0, 0.5, tol12) is None


def test_first_exit_ends_conservatively_at_a_tangency():
    # P = -(s - 1/2)^2 touches 0 at 1/2 and never exceeds it: no interval
    # around 1/2 certifies, and the search stops short of it at tol width
    touching = [-0.25, 1.0, -1.0]
    for guess in (None, 0.5, 0.7):
        s = first_exit([touching], 1.0, guess, tol12)
        assert 0.5 - 1e-6 < s <= 0.5, guess
    # without a width to stop at, the halvings run out
    with pytest.raises(NumericalResolutionError, match="halvings"):
        first_exit([touching], 1.0, None, lambda a: 0.0)


def test_first_exit_takes_the_earliest_root():
    # layer 0 exits at 0.8, layer 1 at 0.4; near 0.8 layer 0 is the more
    # violated, so a guess there is refined to 0.8, and the certification
    # of [0, 0.8] finds the earlier exit
    late, early = [-64.0, 0.0, 100.0], [-0.16, 0.0, 1.0]
    for guess in (None, 0.85, 0.8, 0.41):
        s = first_exit([late, early], 1.0, guess, tol12)
        assert 0.4 - tol12(0.4) <= s <= 0.4, guess
    # (s - 0.2)(s - 0.3)(s - 0.7): a guess past 0.7 is refined to its last
    # root, and the certification finds the first
    three = [-0.042, 0.41, -1.2, 1.0]
    for guess in (None, 0.75, 0.25):
        s = first_exit([three], 1.0, guess, tol12)
        assert horner(three, s) <= 0.0 < horner(three, s + tol12(s))
        assert abs(s - 0.2) < 1e-12, guess
    # an exit past hi is no exit
    assert first_exit([late], 0.7, 0.5, tol12) is None


def test_taylor_shift_and_horner():
    p = [1.0, -2.0, 0.5, 3.0]
    q = taylor_shift(p, 0.25)
    for s in (-1.0, 0.0, 0.3, 2.0):
        assert horner(q, s) == pytest.approx(horner(p, 0.25 + s), rel=1e-14)


def test_certify_takes_the_margin_of_each_degree():
    # s^2 - 1 on [0, a], a the float below 1: its Bernstein coefficients are
    # -1, -1 and 1 - a^2 = -2.2e-16, negative but inside the rounding bound
    # 16 * 2^-53 * (1 + a^2), so the claim is refused, as _below refuses it
    p, a = [-1.0, 0.0, 1.0], 1.0 - 2.0 ** -53
    assert not _below(p, 0.0, a)
    assert certify([([p], a)]) == 0
    assert certify([([p], 0.5)]) is None
    # the same claim among others of other degrees, padded by none of them
    ok = ([[-1.0]], 5.0), ([[-2.0, 0.5]], 1.0), ([[-1.0, 0.0, 0.0, 0.0, 0.5]], 1.0)
    assert certify([*ok, ([p], a), ([p], 0.5)]) == 3
    assert certify([([[-1.0, 0.0, 1.0 / 64.0], p], 1.0)]) == 0
    assert certify([]) is None


def test_certify_agrees_with_below():
    # random claims of degrees 0 to 8, many of them within rounding of 0 at
    # their far end: each is refused exactly where _below refuses one of its P
    rng = np.random.default_rng(5)
    claims = []
    for _ in range(400):
        a = float(rng.uniform(0.01, 2.0))
        polys = []
        for n in rng.integers(0, 9, size=rng.integers(1, 4)):
            p = rng.normal(size=n + 1).tolist()
            p[0] -= max(horner(p, x) for x in np.linspace(0.0, a, 64)) + float(rng.choice(
                [1e-3, 1e-14, 1e-16, 0.0, -1e-16]))
            polys.append(p)
        claims.append((polys, a))
    expect = [all(_below(p, 0.0, a) for p in polys) for polys, a in claims]
    assert 0 < sum(expect) < len(expect)
    assert [certify([claim]) is None for claim in claims] == expect
    first = expect.index(False)
    assert certify(claims) == first
    assert certify(claims[first + 1:]) == expect[first + 1:].index(False)
