import itertools
import math
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedgroups import (DimensionMismatch, bch_group_law, fixtures, metric, spec_from_dict,
                          validate_algebra)
from gradedgroups.curve import curve_from_samples, dilate_curve, polynomial_curve
from gradedgroups.group import GroupLaw
from gradedgroups.metric import (HomogeneousDistance, _line_gauge_interval_length,
                                 degree_constant, metric_factor, triangle_audit)
from gradedgroups.roots import NumericalResolutionError
import float_oracle
from membership_oracle import table_polys


@pytest.fixture(scope="module")
def heis():
    return fixtures.group_law("heisenberg")


def test_eps_validation(heis):
    with pytest.raises(ValueError):
        HomogeneousDistance(heis, (1.0,))
    with pytest.raises(ValueError):
        HomogeneousDistance(heis, (1.0, 0.0))
    with pytest.raises(ValueError):
        HomogeneousDistance(heis, (1.0, -2.0))
    for eps in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            HomogeneousDistance(heis, eps)


def test_quotient_tables_derive_once_on_first_use(monkeypatch):
    # building a distance derives no quotient tables; the first distance,
    # distance_from or audit call derives them once per law, and every later
    # call of any of them, from any distance on that law, reuses them
    derived = []
    tables = GroupLaw._divide_kernel.func
    counted = cached_property(lambda law: derived.append(law) or tables(law))
    counted.__set_name__(GroupLaw, "_divide_kernel")
    monkeypatch.setattr(GroupLaw, "_divide_kernel", counted)
    calls = [lambda dist, x, y: dist.distance(x, y),
             lambda dist, x, y: dist.distance_from(x)(y),
             lambda dist, x, y: triangle_audit(dist, samples=10)]
    for first in range(len(calls)):
        order = calls[first:] + calls[:first]
        for law in (bch_group_law(validate_algebra(fixtures.algebra_spec("engel"))),
                    filiform_law(4)):
            dists = [HomogeneousDistance(law, eps) for eps in ([1.0] * law.step, [0.5] * law.step)]
            assert derived == []
            x, y = np.random.default_rng(4).uniform(-1, 1, (2, law.n))
            order[0](dists[0], x, y)
            assert len(derived) == 1 and derived[0] is law
            kept = law._divide_kernel
            for dist in dists:
                for call in order:
                    call(dist, x, y)
            assert len(derived) == 1 and law._divide_kernel is kept
            derived.clear()


@pytest.mark.parametrize("eps2", [0.5, 1.0, 2.0])
def test_center_distance_scaling(heis, eps2):
    dist = HomogeneousDistance(heis, (1.0, eps2))
    for t in (0.04, 0.25, 1.0, 2.5):
        assert dist.distance([0, 0, 0], [0, 0, t]) \
            == pytest.approx(eps2 * math.sqrt(t), rel=1e-12)


def test_norm_batch_matches_scalar(heis):
    rng = np.random.default_rng(0)
    for law in (heis, fixtures.group_law("engel")):
        for eps in ([1.0] * law.step, [0.5 + 0.4 * k for k in range(law.step)]):
            dist = HomogeneousDistance(law, eps)
            pts = rng.uniform(-2, 2, (64, law.n))
            batch = dist.norm(pts)
            # the layer-max formula, one layer at a time
            layers = [e * np.linalg.norm(pts[:, sl], axis=1) ** (1.0 / k)
                      for k, (e, sl) in enumerate(zip(eps, dist._slices), start=1)]
            np.testing.assert_allclose(batch, np.max(layers, axis=0), rtol=1e-14, atol=0)
            from_zero = dist.distance_from(np.zeros(law.n))
            for i in range(64):
                assert batch[i] == pytest.approx(dist.norm(pts[i]), rel=1e-15)
                assert batch[i] == pytest.approx(from_zero(pts[i]), rel=1e-15)


def filiform_law(step):
    """Model filiform algebra [e1, e_i] = c_i e_(i+1) with assorted rationals."""
    coeffs = ["1", "-2/3", "5/2", "-1/7", "3", "4/9", "-7/5"]
    spec = spec_from_dict({"layers": [2] + [1] * (step - 1),
                           "brackets": [{"i": 1, "j": i, "k": i + 1, "c": coeffs[i - 2]}
                                        for i in range(2, step + 1)]})
    return bch_group_law(validate_algebra(spec))


def free_law(rank):
    """Free step-2 algebra [e_i, e_j] = c_ij e_k with assorted rationals."""
    pairs = itertools.combinations(range(1, rank + 1), 2)
    spec = spec_from_dict({"layers": [rank, rank * (rank - 1) // 2],
                           "brackets": [{"i": i, "j": j, "k": rank + m + 1,
                                         "c": f"{(-1) ** m * (m + 2)}/{2 * m + 3}"}
                                        for m, (i, j) in enumerate(pairs)]})
    return bch_group_law(validate_algebra(spec))


def _bits(a):
    return np.asarray(a).tobytes()


def test_distance_from_closure():
    # distance and distance_from, the quotient and the gauge on columns,
    # round exactly as the product and the gauge taken one after the other
    rng = np.random.default_rng(1)
    for law in (fixtures.group_law("heisenberg"), fixtures.group_law("engel"),
                filiform_law(5), filiform_law(8), free_law(5)):
        for eps in ([1.0] * law.step, [0.5 + 0.4 * k for k in range(law.step)]):
            dist = HomogeneousDistance(law, eps)
            x0 = rng.uniform(-1, 1, law.n)
            f = dist.distance_from(x0)
            assert isinstance(f(rng.uniform(-1, 1, law.n)), float)
            for bad in (f, dist.norm, dist.distance_from):
                with pytest.raises(DimensionMismatch):
                    bad(np.zeros((2, law.n + 1)))
            for shape in [(law.n,), (7, law.n), (3, 5, law.n)]:
                ys = rng.uniform(-1, 1, shape)
                want = dist.norm(law.multiply(-x0, ys))
                got = f(ys)
                for value in (got, dist.distance(x0, ys)):
                    assert np.shape(value) == np.shape(want)
                    assert _bits(value) == _bits(want)
                xs = rng.uniform(-1, 1, shape)
                assert _bits(dist.distance(xs, ys)) == _bits(dist.norm(law.multiply(-xs, ys)))
                if ys.ndim > 1:
                    # a sub-batch gives the entries of the whole batch
                    np.testing.assert_array_equal(f(ys[..., :1, :]), got[..., :1])


def _laws():
    return (fixtures.group_law("heisenberg"), fixtures.group_law("engel"),
            filiform_law(5), filiform_law(8), free_law(5))


def test_distance_norm_and_pair_are_the_text_gauge_bit_for_bit():
    # the law's quotient and the gauge round as the text gauge of the text
    # product of -x and y (tests/float_oracle.py): on single points, which
    # give floats, on shapes that only broadcast, on coincident points and
    # on signed zeros, with weights of 1 and not
    rng = np.random.default_rng(39)
    for law in _laws():
        n = law.n
        for eps in ([0.5 + 0.4 * k for k in range(law.step)], [1.0] + [2.5] * (law.step - 1)):
            dist = HomogeneousDistance(law, eps)
            same = rng.uniform(-1, 1, (6, n))
            zeros = np.where(rng.random((2, 5, n)) < 0.5, 0.0, -0.0)
            mixed = rng.uniform(-1, 1, (2, 5, n))
            mixed[rng.random((2, 5, n)) < 0.4] = -0.0
            cases = [(same[0], same[1]), (same[0].tolist(), same[1].tolist()), (same[2], same[2]),
                     (zeros[0, 0], zeros[1, 0]), (same[:3], same[3]),
                     (rng.uniform(-1, 1, (3, 1, n)), rng.uniform(-1, 1, (1, 4, n))),
                     (same, same), (zeros[0], zeros[1]), (mixed[0], mixed[1]), (mixed[0], -mixed[0])]
            for x, y in cases:
                want = float_oracle.distance(dist, x, y)
                got = dist.distance(x, y)
                if np.ndim(want) == 0:
                    assert type(got) is float
                assert np.shape(got) == np.shape(want) and _bits(got) == _bits(want)
                if np.shape(x) == np.shape(y):
                    cols = [*np.moveaxis(np.asarray(x, dtype=float), -1, 0),
                            *np.moveaxis(np.asarray(y, dtype=float), -1, 0)]
                    assert _bits(dist._pair(cols)) == _bits(want)
                for z in (x, y):
                    got, want = dist.norm(z), float_oracle.norm(dist, z)
                    assert np.shape(got) == np.shape(want) and _bits(got) == _bits(want)


def test_distance_broadcasts_and_keeps_coincident_and_signed_zero_bits():
    # the quotient folds the signs of x into its coefficients and works in
    # place: on batches that only broadcast to one shape, on coincident
    # coordinates and on -0.0 it still rounds as the product and the gauge
    rng = np.random.default_rng(2)
    for law in _laws():
        n = law.n
        for eps in ([1.0] * law.step, [0.5 + 0.4 * k for k in range(law.step)]):
            dist = HomogeneousDistance(law, eps)
            x, y = rng.uniform(-1, 1, (3, 1, n)), rng.uniform(-1, 1, (1, 4, n))
            same = rng.uniform(-1, 1, (6, n))
            partly = same.copy()
            partly[:, ::2] = rng.uniform(-1, 1, partly[:, ::2].shape)
            zeros = rng.uniform(-1, 1, (2, 6, n))
            zeros[0, :, ::2] = -0.0
            zeros[1, :, 1::2] = -0.0
            zeros[1, :2] = -0.0
            for xs, ys in ((x, y), (same, same), (same, partly), (zeros[0], zeros[1]),
                           (-zeros[1], zeros[0]), (zeros[1, 0], zeros[1])):
                want = dist.norm(law.multiply(-xs, ys))
                got = dist.distance(xs, ys)
                assert np.shape(got) == np.shape(want) == np.broadcast_shapes(xs.shape, ys.shape)[:-1]
                assert _bits(got) == _bits(want)


def test_distances_leave_their_inputs_unwritten():
    rng = np.random.default_rng(3)
    for law in _laws():
        dist = HomogeneousDistance(law, [0.5 + 0.4 * k for k in range(law.step)])
        x0, x, y = rng.uniform(-1, 1, law.n), rng.uniform(-1, 1, (5, law.n)), rng.uniform(-1, 1, (5, law.n))
        x[0, 0] = y[1, 1] = -0.0
        before = [_bits(p) for p in (x0, x, y)]
        dist.distance(x, y)
        dist.distance(x0, y)
        dist.distance_from(x0)(y)
        dist.distance_from(x0)(x0)
        dist.norm(x)
        dist.norm(x0)
        assert [_bits(p) for p in (x0, x, y)] == before
        # the audit's pair leaves the columns of its points as it got them
        pair, seen = dist._pair, []

        def checked(cols):
            copies = [c.copy() for c in cols]
            out = pair(cols)
            seen.append(all(_bits(c) == _bits(k) for c, k in zip(cols, copies)))
            return out

        dist._pair = checked
        audit = triangle_audit(dist, samples=100, seed=1)
        assert seen and all(seen)
        del dist._pair
        assert triangle_audit(dist, samples=100, seed=1) == audit


def _layer_terms(dist, x, ys, r):
    """(eps_k / r)^(2k) |z^(k)|^2 per layer k for z = x^-1 * y, through the group law."""
    z = dist.law.multiply(-np.asarray(x), ys)
    return [(e / r) ** (2 * k) * np.sum(z[..., sl] ** 2, axis=-1)
            for k, (e, sl) in enumerate(zip(dist.eps, dist._slices), start=1)]


def test_membership_tables_agree_with_the_gauge(heis):
    # every builtin curve, a sampled curve, a dilation: from random anchors,
    # along the anchor's piece (d = 0), across breaks into later pieces and
    # back into earlier ones (d < 0, piece 0 read from its origin),
    # P_k of the anchor tables, in the plain floats of table_polys, is
    # (eps_k / r)^(2k) |z^(k)|^2 - 1 with z read off law.multiply, and on
    # the anchor's piece P_k(0) = -1, P_k'(0) = 0 exactly
    sampled = curve_from_samples(
        [{"t": t, "position": [0.3 * np.sin(3 * t), t * t, np.cos(t)],
          "velocity": [0.9 * np.cos(3 * t), 2 * t, -np.sin(t)]} for t in np.linspace(-1, 1, 9)], 3)
    cases = [(fixtures.curve_fixture(name).group, fixtures.curve(name))
             for name in fixtures.curve_names()]
    # three cubic pieces, all in powers of t itself: a later piece is read
    # from its first parameter by a Taylor shift
    shared = polynomial_curve(np.random.default_rng(2).normal(size=(4, 3, 3)), (-1.0, 1.0),
                              (-0.2, 0.4))
    cases += [("heisenberg", sampled), ("heisenberg", dilate_curve(heis, 0.5, sampled)),
              ("heisenberg", shared)]
    rng = np.random.default_rng(7)
    for group, curve in cases:
        law = fixtures.group_law(group)
        dist = HomogeneousDistance(law, [0.7 + 0.3 * k for k in range(law.step)])
        coef, breaks, origins = curve.pieces
        a, b = curve.domain
        # the layers z touches somewhere along the curve are those listed
        grid = np.linspace(a, b, 101)
        touched = [k for k, term in enumerate(_layer_terms(
            dist, curve.positions(grid)[:, None], curve.positions(grid)[None], 1.0)) if term.any()]
        tables = {d: table_polys(dist, curve.pieces, d)
                  for d in range(1 - min(3, len(origins)), min(3, len(origins)))}
        checked = 0
        for _ in range(12):
            r = rng.uniform(0.1, 1.0)
            t = rng.uniform(a, b)
            m = int(np.searchsorted(breaks, t, side="right"))
            for d in range(-min(2, m), min(3, len(origins) - m)):
                ps = tables[d](m, t - origins[m], dist.ball_weights(r))
                assert len(ps) == len(touched)
                first = a if m + d == 0 else breaks[m + d - 1]
                start = t if d == 0 else origins[0] if m + d == 0 else first
                end = breaks[m + d] if m + d < len(breaks) else b
                s = rng.uniform(0.0 if d == 0 else first - start, end - start, 6)
                terms = _layer_terms(dist, curve.position_at(t), curve.positions(start + s), r)
                for p, k in zip(ps, touched):
                    if d == 0:
                        assert p[0] == -1.0 and p[1] == 0.0
                    got = np.polynomial.polynomial.polyval(s, p)
                    assert np.all(np.abs(got - (terms[k] - 1.0)) <= 1e-12 * (terms[k] + 1.0)), \
                        (curve.name, d, got - terms[k] + 1.0)
                    checked += 1
        assert checked >= 12, curve.name


def test_ball_fold_is_the_anchor_tables_of_every_offset():
    # ball_around folds the center's piece m against every piece at once;
    # its P on piece j is the oracle's table of offset j - m (negative before
    # m) read at the center, to 4 ulps of the P's largest coefficient, and
    # each piece's s = 0 sits at t0 on piece m, else at its first parameter
    sampled = curve_from_samples(
        [{"t": t, "position": [0.3 * np.sin(3 * t), t * t, np.cos(t)],
          "velocity": [0.9 * np.cos(3 * t), 2 * t, -np.sin(t)]} for t in np.linspace(-1, 1, 9)], 3)
    shared = polynomial_curve(np.random.default_rng(2).normal(size=(4, 3, 3)), (-1.0, 1.0),
                              (-0.2, 0.4))
    engel = polynomial_curve(np.random.default_rng(5).normal(size=(3, 4, 4)), (-1.0, 1.0),
                             (-0.5, 0.0, 0.5), (-1.0, -0.5, 0.0, 0.5))
    rng = np.random.default_rng(3)
    for group, curve in (("heisenberg", sampled), ("heisenberg", shared), ("engel", engel)):
        law = fixtures.group_law(group)
        dist = HomogeneousDistance(law, [0.7 + 0.3 * k for k in range(law.step)])
        _, breaks, origins = curve.pieces
        for t0, r in rng.uniform((-0.95, 0.1), (0.95, 1.0), (6, 2)).tolist():
            polys, starts = dist.ball_around(curve, t0, r)
            m = int(np.searchsorted(breaks, t0, side="right"))
            assert starts.tolist() == [t0 if j == m else origins[0] if j == 0 else breaks[j - 1]
                                       for j in range(len(origins))]
            assert np.all(polys[:, 0, m] == -1.0) and np.all(polys[:, 1, m] == 0.0)
            for j in range(len(origins)):
                ps = table_polys(dist, curve.pieces, j - m)(m, t0 - origins[m],
                                                            dist.ball_weights(r))
                assert len(ps) == len(polys)
                for p, got in zip(ps, polys[:, :, j].tolist()):
                    p += [0.0] * (len(got) - len(p))
                    ulp = np.spacing(max(map(abs, p + got)))
                    assert all(abs(a - b) <= 4 * ulp for a, b in zip(p, got)), (j - m, p, got)


def test_homogeneity_under_dilation(heis):
    dist = fixtures.distance("heisenberg")
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-1, 1, (2, 3))
    base = dist.distance(x, y)
    for r in (0.25, 3.0):
        assert dist.distance(heis.dilate(r, x), heis.dilate(r, y)) \
            == pytest.approx(r * base, rel=1e-12)


@pytest.mark.parametrize("name", ["abelian_w12", "heisenberg", "engel"])
def test_triangle_audit_passes_with_unit_scales(name):
    audit = triangle_audit(fixtures.distance(name), samples=20000, seed=0)
    assert audit.passed, f"max ratio {audit.max_ratio}"


def test_triangle_audit_fails_with_inflated_top_scale(heis):
    dist = HomogeneousDistance(heis, (1.0, 1000.0))
    audit = triangle_audit(dist, samples=20000, seed=0)
    assert not audit.passed
    assert audit.max_ratio > 1.5
    x, y, z = (np.array(p) for p in audit.witness)
    lhs = dist.distance(x, z)
    rhs = dist.distance(x, y) + dist.distance(y, z)
    assert lhs > rhs  # the witness is a genuine violation, not a sampling artifact


def test_triangle_audit_across_chunks_and_blocks():
    # a second chunk of 8198 triples, scored as a full block of 8192 and one
    # of six: the parent's stream and its scores through law.multiply and
    # norm gave this ratio and witness
    audit = triangle_audit(fixtures.distance("engel"), samples=65536 + 8193 + 5, seed=5)
    assert audit.max_ratio == 0.999999977114115
    assert audit.witness == (
        [-1.7496738034700188, 3.6954435097839413, -11.57152043302294, -46.03926459776026],
        [-0.06104402893546955, 0.40945084578573454, -0.2437955940516675, -0.04832754301605545],
        [0.7540427127330493, -1.1748888360806777, 2.7570915615035854, -0.6792843340523926])


def _chunk_wide_audit(dist, samples, seed):
    """(max_ratio, witness) of the audit as one draw per chunk: every
    chunk's points and scales materialised from the one stream, dilated by
    the broadcast power and scored with ``distance``."""
    n, degrees = dist.law.n, np.array(dist.law.degrees, dtype=float)
    rng = np.random.default_rng(seed)
    best, witness = 0.0, None
    for lo in range(0, samples, metric.AUDIT_CHUNK):
        m = min(metric.AUDIT_CHUNK, samples - lo)
        pts = rng.uniform(-1.0, 1.0, size=(3, m, n))
        scales = np.exp(rng.uniform(math.log(0.25), math.log(4.0), size=(3, m)))
        pts *= scales[..., None] ** degrees
        x, y, z = pts
        denom = dist.distance(x, y) + dist.distance(y, z)
        ratio = np.divide(dist.distance(x, z), denom, out=np.zeros(m), where=denom > 0)
        i = int(np.argmax(ratio))
        if ratio[i] > best:
            best, witness = float(ratio[i]), tuple(p[i].tolist() for p in pts)
    return best, witness


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(fixtures.group_names()), st.integers(0, 2 ** 32),
       st.sampled_from([1, metric.AUDIT_BLOCK - 1, metric.AUDIT_BLOCK + 1,
                        metric.AUDIT_CHUNK - 1, metric.AUDIT_CHUNK + 1]))
@example("engel", 5, metric.AUDIT_CHUNK + 1)
@example("abelian_w12", 0, metric.AUDIT_BLOCK + 1)
@example("heisenberg", 1, 1)
def test_streamed_audit_is_the_chunk_wide_audit(name, seed, samples):
    # each block draws its own part of the chunk's stream: the ratio and
    # witness are those of drawing the whole chunk at once, bit for bit
    dist = fixtures.distance(name)
    audit = triangle_audit(dist, samples=samples, seed=seed)
    assert (audit.max_ratio, audit.witness) == _chunk_wide_audit(dist, samples, seed)


def test_triangle_audit_memory_is_one_block():
    # a chunk and a bit: the chunk-wide draw peaked at 13.6 MiB
    dist = fixtures.distance("engel")
    triangle_audit(dist, samples=1)          # derives the quotient tables outside the trace
    tracemalloc.start()
    try:
        triangle_audit(dist, samples=metric.AUDIT_CHUNK + 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_triangle_audit_refuses_what_it_cannot_score(heis):
    for samples in (0, -5, True, 2.5, "3", None):
        with pytest.raises(ValueError, match="samples must be an int of at least 1"):
            triangle_audit(fixtures.distance("heisenberg"), samples=samples)
    # True ran as seed 1, and was reported as seed True
    for seed in (-1, True, 1.0, "1", None):
        with pytest.raises(ValueError, match="seed must be an int of at least 0"):
            triangle_audit(fixtures.distance("heisenberg"), samples=100, seed=seed)
    # every distance overflows; the parent reported max_ratio 0.0 as a pass
    with pytest.raises(NumericalResolutionError, match="overflow"):
        triangle_audit(HomogeneousDistance(heis, (1e308, 1e308)), samples=10, seed=1)
    # every distance a subnormal float with a few significant bits (some
    # rounded to 0 at 5e-324): its ratios were noise, max_ratio 2.0 and a fail
    for eps in (5e-324, 1e-315):
        with pytest.raises(NumericalResolutionError, match="subnormal"):
            triangle_audit(HomogeneousDistance(heis, (eps, eps)), samples=20000, seed=0)
    # small but normal weights still audit, as the ratio ignores a common factor
    small = triangle_audit(HomogeneousDistance(heis, (1e-300, 1e-300)), samples=20000, seed=0)
    unit = triangle_audit(HomogeneousDistance(heis, (1.0, 1.0)), samples=20000, seed=0)
    assert small.passed and small.max_ratio == pytest.approx(unit.max_ratio, rel=1e-15)


def test_audit_deterministic_across_workers(heis):
    dist = fixtures.distance("heisenberg")
    a = triangle_audit(dist, samples=30000, seed=3)
    b = triangle_audit(dist, samples=30000, seed=3)
    assert a.max_ratio == b.max_ratio
    assert a.witness == b.witness


@pytest.mark.parametrize("eps2", [0.5, 1.0, 2.0])
def test_metric_factor_closed_vs_measured(heis, eps2):
    dist = HomogeneousDistance(heis, (1.0, eps2))
    lam = np.array([0.0, 0.0, 3.0])   # any scale; the factor only sees the direction
    closed = metric_factor(dist, lam)
    measured = float(np.linalg.norm(lam)) * _line_gauge_interval_length(dist, lam)
    assert closed == pytest.approx(2.0 / eps2 ** 2, rel=1e-12)
    assert measured == pytest.approx(closed, rel=1e-4)


def test_metric_factor_first_layer(heis):
    dist = fixtures.distance("heisenberg")
    lam = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    assert metric_factor(dist, lam) == pytest.approx(2.0, rel=1e-12)


def test_metric_factor_mixed_layer_direction(heis):
    # for (1, 0, 1) with unit scales the gauge on the line is sqrt(t) up to
    # t = 1, so the interval is (-1, 1) and the factor is sqrt(2) * 2
    dist = fixtures.distance("heisenberg")
    val = metric_factor(dist, np.array([1.0, 0.0, 1.0]))
    assert val == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-5)


def test_metric_factor_rejects_zero_direction(heis):
    dist = fixtures.distance("heisenberg")
    with pytest.raises(ValueError):
        metric_factor(dist, np.zeros(3))


def test_degree_constant(heis):
    dist = HomogeneousDistance(heis, (1.0, 0.5))
    assert degree_constant(dist, 1) == pytest.approx(2.0)
    assert degree_constant(dist, 2) == pytest.approx(8.0)
    engel = HomogeneousDistance(fixtures.group_law("engel"), (1.0, 0.5, 0.25))
    assert [degree_constant(engel, q) for q in (1, 2, 3)] == [2.0, 8.0, 128.0]
    for q in (0, -1, 4):            # no layer: not layer 3's constant, no IndexError
        with pytest.raises(ValueError, match="out of range"):
            degree_constant(engel, q)
