import math

import numpy as np

from gradedgroups.roots import POINTS, bisect


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
