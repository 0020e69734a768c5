"""Output checks for every benchmark op, run outside the timed region.

``check_op`` returns a list of failure messages for one op (empty when
the output is right).  The checks:

- ``cover`` / ``negligibility``: every parameter of a dense grid over the
  covered set lies within delta of a center the walk placed, using
  batched ``multiply`` and ``norm``; the reported counts and values match
  the walk's estimates.  For ``negligibility`` the covered set is the
  curve's known low-degree set, and the reported set must match it within
  a grid step; the values also pass the acceptance-gate tolerances
  (shrink factor 0.6 per halving, value below 1e-2 once delta reaches
  2^-10).
- ``blowup``: the last ratio is within 2% of the predicted density.
- ``diverge``: the log-log slope is at most -0.9 and divergence is
  certified.
- ``curve-degree``: degree and low-degree set match the construction.
- ``metric-audit``: the witness triple reproduces the reported ratio.
- ``frame-show``: the printed law terms, evaluated exactly, agree with
  the independent series oracle in ``tests/bch_oracle.py`` on a seeded
  rational point pair, and the printed frame entries are the y-partials
  of those terms at y = 0.
- ``group-check``: exact and float associativity passed.
"""

from __future__ import annotations

import importlib.util
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from gradedgroups import HomogeneousDistance, cli

ROOT = Path(__file__).resolve().parent.parent
GRID_PER_BALL = 16
GRID_MIN = 4097
# The walk stops within 1e-12 * span of an interval end and bisects ball
# edges to 1e-12 relative; where the gauge grows like |dt|^(1/3) that
# moves a distance by about 1e-9 relative.  A real gap in the cover shows
# at the scale of delta, far above this tolerance.
COVER_RTOL = 1e-6
# low-degree sets of the builtin curves, from their construction
KNOWN_LOW_DEGREE = {"glued_hv": (-1.0, 0.0)}


def _load_oracle():
    path = ROOT / "tests" / "bch_oracle.py"
    spec = importlib.util.spec_from_file_location("bch_oracle", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.bch_numeric


# -- covering ---------------------------------------------------------------


def uncovered(dist, curve, lo: float, hi: float, centers, delta: float) -> int:
    """Grid parameters of [lo, hi] farther than delta from every center.

    Each grid point is first tested against the four centers nearest in
    parameter; the few that fail are tested against all centers.
    """
    centers = np.sort(np.asarray(centers, dtype=float))
    m = max(GRID_MIN, GRID_PER_BALL * len(centers) + 1)
    ts = np.linspace(lo, hi, m)
    pts = curve.positions(ts)
    cpts = curve.positions(centers)
    law = dist.law
    limit = delta * (1.0 + COVER_RTOL)
    near = np.searchsorted(centers, ts)
    best = np.full(m, np.inf)
    for shift in (-2, -1, 0, 1):
        idx = np.clip(near + shift, 0, len(centers) - 1)
        best = np.minimum(best, dist.norm(law.multiply(-cpts[idx], pts)))
    missed = np.flatnonzero(best > limit)
    count = 0
    for i in missed:
        d = dist.norm(law.multiply(-cpts, np.broadcast_to(pts[i], cpts.shape)))
        if np.min(d) > limit:
            count += 1
    return count


def _check_walk(cfg, result, estimates) -> list:
    law, curve, _ = cli._resolve_curve(cfg)
    dist = HomogeneousDistance(law, (1.0,) * law.step)
    a, b = curve.domain
    errors = []
    if cfg["op"] == "cover":
        iv = cfg.get("interval")
        intervals = [(a, b)] if iv is None else [tuple(iv)]
    else:
        # cover the known set, not the reported one, so an understated
        # low-degree set cannot shrink what is checked; clipped to the
        # parameters degree_profile samples, which stop 1e-9 * span short
        # of the domain ends
        known = KNOWN_LOW_DEGREE.get(cfg.get("curve"))
        if known is None:
            return [f"no known low-degree set for {cfg}"]
        inset = 1e-9 * curve.span()
        intervals = [(max(known[0], a + inset), min(known[1], b - inset))]
        step = (b - a) / cli.resolve_config(cfg)["grid"]
        reported = result["low_degree_intervals"]
        if len(reported) != 1 or any(abs(r - k) > step
                                     for r, k in zip(reported[0], known)):
            errors.append(f"low-degree set {reported}, expected {list(known)} "
                          f"within a grid step {step}")
    deltas, counts, values = result["deltas"], result["ball_counts"], result["values"]
    if len(estimates) != len(deltas):
        return errors + [f"{len(estimates)} walks captured for {len(deltas)} deltas"]
    for est, delta, count, value in zip(estimates, deltas, counts, values):
        if est.delta != delta or est.ball_count != count or est.value != value:
            errors.append(f"delta {delta}: report does not match the walk")
            continue
        if not math.isclose(value, count * delta ** result["q"], rel_tol=1e-9):
            errors.append(f"delta {delta}: value {value} is not count * delta^q")
        for lo, hi in intervals:
            lo, hi = max(lo, a), min(hi, b)
            if hi < lo:
                continue
            bad = uncovered(dist, curve, lo, hi, est.centers, delta)
            if bad:
                errors.append(f"delta {delta}: {bad} grid parameters of [{lo}, {hi}] "
                              f"lie outside every ball")
    if cfg["op"] == "negligibility":
        if any(r > 0.6 for r in result["successive_ratios"]):
            errors.append(f"covering value shrinks slower than 0.6 per halving: "
                          f"{result['successive_ratios']}")
        if min(deltas) <= 2.0 ** -10 and values[-1] >= 1e-2:
            errors.append(f"value at delta {deltas[-1]} is {values[-1]}, not below 1e-2")
    return errors


# -- scans ------------------------------------------------------------------


def _check_blowup(cfg, result) -> list:
    last, predicted = result["ratios"][-1], result["predicted"]
    if len(result["ratios"]) != len(result["radii"]):
        return ["one ratio per radius expected"]
    if not abs(last - predicted) <= 0.02 * predicted:
        return [f"last ratio {last} is not within 2% of the predicted {predicted}"]
    return []


def _check_diverge(cfg, result) -> list:
    errors = []
    if not result["slope"] <= -0.9:
        errors.append(f"log-log slope {result['slope']} is above -0.9")
    if not result["certified"]:
        errors.append("divergence not certified")
    return errors


def _check_curve_degree(cfg, result) -> list:
    errors = []
    if result["degree"] != 2:
        errors.append(f"degree {result['degree']}, expected 2")
    if sum(result["degree_counts"].values()) != cfg["grid"] + 1:
        errors.append("degree counts do not cover the grid")
    ivs = result["low_degree_intervals"]
    known = KNOWN_LOW_DEGREE.get(cfg.get("curve"))
    if known is not None:
        if len(ivs) != 1 or any(abs(r - k) > 1e-6 for r, k in zip(ivs[0], known)):
            errors.append(f"low-degree set {ivs}, expected about {list(known)}")
    elif ivs:
        errors.append(f"low-degree set {ivs} on a curve of degree 2 everywhere")
    return errors


def _check_metric_audit(cfg, result, bch) -> list:
    alg = cli._resolve_law(cfg).algebra
    eps = result["eps"]

    def gauge(z):
        best = 0.0
        for k in range(1, alg.step + 1):
            sl = alg.layer_slice(k)
            mag = math.sqrt(sum(float(c) ** 2 for c in z[sl]))
            best = max(best, eps[k - 1] * mag ** (1.0 / k))
        return best

    def d(p, q):
        return gauge(bch(alg, [-Fraction(c) for c in p], [Fraction(c) for c in q]))

    x, y, z = result["witness"]
    ratio = d(x, z) / (d(x, y) + d(y, z))
    errors = []
    if not math.isclose(ratio, result["max_ratio"], rel_tol=1e-9):
        errors.append(f"witness ratio {ratio} does not match {result['max_ratio']}")
    if result["passed"] != (result["max_ratio"] <= 1.0 + 1e-12):
        errors.append("passed flag disagrees with max_ratio")
    return errors


# -- exact layer ------------------------------------------------------------

_TERM_SPLIT = re.compile(r" ([+-]) ")
_FACTOR = re.compile(r"([xy])(\d+)(?:\^(\d+))?$")


def parse_poly(text: str, n: int) -> dict:
    """Parse ``RationalPoly.format`` output over x1..xn, y1..yn.

    Returns {exponent tuple of length 2n: Fraction}.
    """
    pieces = _TERM_SPLIT.split(text.strip())
    signed = [(1, pieces[0])] + [(1 if s == "+" else -1, p)
                                 for s, p in zip(pieces[1::2], pieces[2::2])]
    terms: dict = {}
    for sign, piece in signed:
        if piece.startswith("-"):
            sign, piece = -sign, piece[1:]
        coeff = Fraction(1)
        exps = [0] * (2 * n)
        for factor in piece.split("*"):
            m = _FACTOR.match(factor)
            if m is None:
                coeff *= Fraction(factor)
                continue
            var = int(m.group(2)) - 1 + (n if m.group(1) == "y" else 0)
            exps[var] += int(m.group(3) or 1)
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + sign * coeff
    return terms


def _evaluate(terms: dict, values) -> Fraction:
    total = Fraction(0)
    for exps, c in terms.items():
        term = c
        for v, e in zip(values, exps):
            if e:
                term *= v ** e
        total += term
    return total


def _check_frame_show(cfg, result, bch, seed) -> list:
    alg = cli._resolve_law(cfg).algebra
    n = alg.n
    if (result["n"], result["step"], tuple(result["degrees"])) != (n, alg.step, alg.degrees):
        return ["n, step or degrees disagree with the algebra file"]
    q = {i: {} for i in range(n)}
    for key, text in result["group_law_terms"].items():
        q[int(key[1:]) - 1] = parse_poly(text, n)

    rng = random.Random(seed)
    x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    y = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    law = tuple(x[i] + y[i] + _evaluate(q[i], x + y) for i in range(n))
    errors = []
    if law != tuple(bch(alg, x, y)):
        errors.append("printed group law disagrees with the series oracle")

    # a^l_j(x) = dQ_l/dy_j (x, 0), as polynomials in x alone
    expected = {}
    for l in range(n):
        for j in range(n):
            part = {}
            for exps, c in q[l].items():
                if exps[n + j] != 1 or any(exps[n + k] for k in range(n) if k != j):
                    continue
                key = exps[:n]
                part[key] = part.get(key, Fraction(0)) + c
            part = {k: c for k, c in part.items() if c}
            if part:
                expected[f"a[{l + 1},{j + 1}]"] = part
    printed = {key: {exps[:n]: c for exps, c in parse_poly(text, n).items()}
               for key, text in result["frame_entries"].items()}
    if printed != expected:
        errors.append("printed frame entries are not the y-partials of the law at y = 0")
    return errors


def _check_group_check(cfg, result) -> list:
    errors = []
    if not result["exact_associative"]:
        errors.append("exact associativity failed")
    if not result["max_associativity_defect"] <= result["tol"]:
        errors.append(f"float associativity defect {result['max_associativity_defect']}")
    if not result["passed"]:
        errors.append("group-check did not pass")
    return errors


class Checker:
    """Checks ops of one workload; ``seed`` picks the exact check points."""

    def __init__(self, seed: int):
        self.seed = seed
        self._bch = None

    @property
    def bch(self):
        if self._bch is None:
            self._bch = _load_oracle()
        return self._bch

    def check_op(self, index: int, cfg: dict, result: dict, estimates) -> list:
        op = cfg["op"]
        if op in ("cover", "negligibility"):
            return _check_walk(cfg, result, estimates)
        if op == "blowup":
            return _check_blowup(cfg, result)
        if op == "diverge":
            return _check_diverge(cfg, result)
        if op == "curve-degree":
            return _check_curve_degree(cfg, result)
        if op == "metric-audit":
            return _check_metric_audit(cfg, result, self.bch)
        if op == "frame-show":
            return _check_frame_show(cfg, result, self.bch, f"{self.seed}:{index}")
        if op == "group-check":
            return _check_group_check(cfg, result)
        return [f"no check for op {op!r}"]
