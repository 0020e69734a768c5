import math

from gradedgroups.roots import bisect


def counting(inside):
    calls = []

    def probe(t):
        calls.append(t)
        return inside(t)

    return probe, calls


def test_bisect_either_bracket_order():
    edge = 1.0 / 3.0
    below, _ = counting(lambda t: t < edge)
    above, _ = counting(lambda t: t > edge)
    lo, hi = bisect(below, 0.0, 1.0, lambda a, b: 1e-12, 100)
    assert lo < edge < hi and hi - lo <= 1e-12
    # the same bracket entered from its other end ends on the same two points
    assert bisect(above, 1.0, 0.0, lambda a, b: 1e-12, 100) == (hi, lo)


def test_bisect_honours_tol_and_max_iter():
    inside, calls = counting(lambda t: t < math.pi)
    lo, hi = bisect(inside, 0.0, 4.0, lambda a, b: 0.25, 100)
    assert hi - lo <= 0.25 < 2 * (hi - lo)     # stops at the first width within tol
    assert len(calls) == 4                     # 4 -> 2 -> 1 -> 0.5 -> 0.25

    inside, calls = counting(lambda t: t < math.pi)
    lo, hi = bisect(inside, 0.0, 4.0, lambda a, b: 0.0, 3)
    assert len(calls) == 3 and (lo, hi) == (3.0, 3.5)

    # a relative tolerance is evaluated on the current bracket, not the first
    inside, calls = counting(lambda t: t < 900.0)
    lo, hi = bisect(inside, 1.0, 1001.0, lambda a, b: 1e-3 * a, 100)
    assert hi - lo <= 1e-3 * lo and len(calls) == 11


def test_bisect_stops_at_float_resolution():
    edge = 0.1
    inside, calls = counting(lambda t: t <= edge)
    lo, hi = bisect(inside, 0.0, 1.0, lambda a, b: 0.0, 10_000)
    assert lo == edge and hi == math.nextafter(edge, 1.0)
    assert len(calls) < 100
