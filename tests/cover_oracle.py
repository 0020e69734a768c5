"""An exact referee of a covering walk's balls, as a test oracle.

A greedy walk places ball i around gamma(c_i) and claims it covers the
parameters [t_i, e_i], with t_0 the interval's first parameter and each
t_(i+1) = e_i (the seams of ``test_measure._reach_by_reach``).  The
referee decides those claims in exact arithmetic, on none of the
library's float paths.  The curve is its coefficient table read as
rationals: on piece m, gamma(t) is the sum of coef[k, :, m] (t - origin_m)^k,
and a parameter belongs to the piece that ``searchsorted(breaks, t,
side="right")`` picks.  Over a stretch [u, v] of one piece, in tau =
(t - u) / (v - u), z = gamma(c)^-1 * gamma(t) is a vector of ``Fraction``
polynomials, X + y + Q(X, y) with X = -gamma(c) and Q the terms of
``law.q_polys``, and each layer k gives

    P_k = (eps_k / (delta (1 + ETA)))^(2k) |z^(k)|^2 - 1,

so a point lies in the closed ball exactly where every P_k <= 0.

The radius is delta (1 + ETA), ETA = 2^-40: the walk finds its seams as
float roots, so a seam can sit a rounding outside the ball of radius
delta itself.  A proof here says the walk covers by balls of radius
delta (1 + 2^-40); a gap here is a point outside every such ball.

Each claim is split at the break points and proved piece by piece:
P_k <= 0 on [t_i, c_i] (backward) and on [c_i, e_i] (forward) by the
signs of its Bernstein coefficients on [0, 1] in tau, halving the
stretch where they do not decide (Collins and Akritas, "Polynomial real
root isolation using Descartes' rule of signs", 1976).  The last ball's
forward claim runs on to the interval's end where its seam stops short.
A stretch whose proof fails is searched again against several balls at
once: a part where some ball's P are all <= 0 is covered, and a part
where, for every ball in the search, some P_k is > 0 throughout is
outside them all.  Its middle is then tried against every center
exactly: a center whose ball holds it joins the search, and a point that
no ball holds is a proven gap.  A part still open after DEPTH halvings
is undecided.
"""

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction

ETA = Fraction(1, 2 ** 40)
DEPTH = 60


@dataclass
class Verdict:
    """The referee's findings, by ball index: the claims it could not prove
    alone (``backward``, ``forward``), a proven gap point per ball whose
    failing claim holds one (``gaps``, a Fraction parameter), and the balls
    whose failing claim it could not decide (``undecided``)."""
    backward: list = field(default_factory=list)
    forward: list = field(default_factory=list)
    gaps: dict = field(default_factory=dict)
    undecided: list = field(default_factory=list)

    @property
    def covered(self) -> bool:
        """Every parameter of the interval is proven inside some ball."""
        return not self.gaps and not self.undecided


# -- polynomials in tau: (integer coefficients ascending, positive denominator) ---


def _poly(coefs) -> tuple:
    """The polynomial of the ascending ints, Fractions or floats ``coefs``."""
    ratios = [c.as_integer_ratio() for c in coefs]
    den = math.lcm(*(d for _, d in ratios))
    return [a * (den // d) for a, d in ratios], den


def _add(p, q):
    (a, da), (b, db) = p, q
    den = math.lcm(da, db)
    a, b = [c * (den // da) for c in a], [c * (den // db) for c in b]
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):], den


def _mul(p, q):
    (a, da), (b, db) = p, q
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out, da * db


def _bernstein(p):
    """Integer Bernstein coefficients on [0, 1] of the polynomial p, times one
    positive number: b_i = sum over j <= i of C(i, j) / C(d, j) p_j."""
    ints, d = p[0], len(p[0]) - 1
    scale = math.lcm(*(math.comb(d, j) for j in range(d + 1)))
    return [sum(math.comb(i, j) * (scale // math.comb(d, j)) * ints[j] for j in range(i + 1))
            for i in range(d + 1)]


def _halves(b):
    """The Bernstein coefficients of the two halves, by de Casteljau's sums,
    each half times one positive number."""
    d = len(b) - 1
    rows = [b]
    for _ in range(d):
        rows.append([x + y for x, y in zip(rows[-1], rows[-1][1:])])
    halves = ([rows[k][0] << (d - k) for k in range(d + 1)],
              [rows[d - k][k] << k for k in range(d + 1)])
    return tuple([c // g for c in h] if (g := math.gcd(*h)) > 1 else h for h in halves)


# -- the referee -------------------------------------------------------------------


class Referee:
    """The balls of radius delta (1 + ETA) around gamma(c) for the centers of
    one walk on ``curve``, under ``dist``'s law and weights."""

    def __init__(self, dist, curve, delta, centers):
        law = dist.law
        self.n, self.law = law.n, law
        coef, breaks, origins = curve.pieces
        self.coef = [[[Fraction(float(coef[k, j, m])) for j in range(self.n)]
                      for k in range(coef.shape[0])] for m in range(coef.shape[2])]
        self.breaks = [Fraction(float(b)) for b in breaks]
        self.origins = [Fraction(float(o)) for o in origins]
        radius = Fraction(float(delta)) * (1 + ETA)
        self.weights = [(Fraction(float(e)) / radius) ** (2 * k)
                        for k, e in enumerate(dist.eps, start=1)]
        self.slices = list(dist._slices)
        self.q_terms = [sorted(q.terms.items()) for q in law.q_polys]
        self.centers = [Fraction(float(c)) for c in centers]
        self.near = [float(c) for c in centers]
        self.anchors = [tuple(-x for x in self.position(c)) for c in self.centers]

    def piece(self, t) -> int:
        return bisect.bisect_right(self.breaks, t)

    def position(self, t) -> tuple:
        """gamma(t) exactly."""
        m = self.piece(t)
        s, out = t - self.origins[m], [Fraction(0)] * self.n
        for row in reversed(self.coef[m]):
            out = [o * s + c for o, c in zip(out, row)]
        return tuple(out)

    def holds(self, i, t) -> bool:
        """Whether ball i holds gamma(t): every P_k(t) <= 0, exactly."""
        z = self.law.multiply_exact(self.anchors[i], self.position(t))
        return all(w * sum(z[j] ** 2 for j in range(sl.start, sl.stop)) <= 1
                   for w, sl in zip(self.weights, self.slices))

    def polys(self, i, m, u, v) -> list:
        """Bernstein coefficients in tau on [u, v] of each P_k of ball i, gamma on piece m."""
        n, X = self.n, self.anchors[i]
        shift = _poly([u - self.origins[m], v - u])     # s = t - origin, a polynomial in tau
        y = [([0], 1)] * n
        for row in reversed(self.coef[m]):
            y = [_add(_mul(yj, shift), _poly([c])) for yj, c in zip(y, row)]
        powers = {}

        def power(j, e):            # y_j^e
            if (j, e) not in powers:
                powers[j, e] = y[j] if e == 1 else _mul(power(j, e - 1), y[j])
            return powers[j, e]

        z = []
        for yi, x, terms in zip(y, X, self.q_terms):
            zi = _add(yi, _poly([x]))
            for exps, c in terms:
                poly = _poly([c * math.prod(X[v_] ** e for v_, e in enumerate(exps[:n]) if e)])
                for v_, e in enumerate(exps[n:]):
                    if e:
                        poly = _mul(poly, power(v_, e))
                zi = _add(zi, poly)
            z.append(zi)
        out = []
        for w, sl in zip(self.weights, self.slices):
            square = ([0], 1)
            for j in range(sl.start, sl.stop):
                square = _add(square, _mul(z[j], z[j]))
            out.append(_bernstein(_add(_mul(_poly([w]), square), ([-1], 1))))
        return out

    def stretches(self, a, b):
        """[u, v, m]: [a, b] split at the breaks inside it, with each part's piece."""
        cuts = [a, *(p for p in self.breaks if a < p < b), b]
        return [(u, v, self.piece(u)) for u, v in zip(cuts, cuts[1:])]

    def proves(self, i, a, b) -> bool:
        """Whether every P_k of ball i is proven <= 0 on [a, b]."""
        for u, v, m in self.stretches(a, b):
            todo = [(self.polys(i, m, u, v), 0)]
            while todo:
                polys, depth = todo.pop()
                if all(max(p) <= 0 for p in polys):
                    continue
                if depth == DEPTH or any(p[0] > 0 or p[-1] > 0 for p in polys):
                    return False
                left, right = zip(*map(_halves, polys))
                todo += [(list(right), depth + 1), (list(left), depth + 1)]
        return True

    def search(self, balls, a, b):
        """Search [a, b] against the balls, and against any ball that holds a
        point of it: ("gap", t) for the first point found outside every ball,
        else ("undecided", None) if a part stays open after DEPTH halvings,
        else ("covered", None)."""
        verdict, balls = "covered", set(balls)
        for u, v, m in self.stretches(a, b):
            while True:         # once more with each ball that holds a point left open
                found, at = self._search(balls, m, u, v)
                if found != "holder":
                    break
                balls.add(at)
            if found == "gap":
                return found, at
            if found == "undecided":
                verdict = "undecided"
        return verdict, None

    def _search(self, balls, m, u, v):
        """One pass of :meth:`search` over [u, v] on piece m: ("holder", j) where
        no ball of the pass holds a part but ball j holds its middle, else the
        verdict of the pass."""
        verdict, todo = "covered", [(u, v, [self.polys(i, m, u, v) for i in balls], 0)]
        while todo:
            lo, hi, polys, depth = todo.pop()
            if any(all(max(p) <= 0 for p in ps) for ps in polys):
                continue
            # a ball with a P above 0 throughout holds no point here
            polys = [ps for ps in polys if not any(min(p) > 0 for p in ps)]
            if not polys:
                mid = (lo + hi) / 2
                near = float(mid)
                nearest = sorted(range(len(self.centers)), key=lambda j: abs(self.near[j] - near))
                return next((("holder", j) for j in nearest if self.holds(j, mid)), ("gap", mid))
            if depth == DEPTH:
                verdict = "undecided"
                continue
            halves = [list(zip(*map(_halves, ps))) for ps in polys]
            mid = (lo + hi) / 2
            todo += [(mid, hi, [list(h[1]) for h in halves], depth + 1),
                     (lo, mid, [list(h[0]) for h in halves], depth + 1)]
        return verdict, None


def referee(dist, curve, delta, seams, interval) -> Verdict:
    """Judge the balls of a walk over ``interval`` = (lo, hi) by its seams
    (t_i, c_i, e_i), floats as ``_reach_by_reach`` returns them; a seam
    chain that does not start at lo or does not join raises ValueError."""
    lo, hi = (Fraction(float(p)) for p in interval)
    seams = [tuple(Fraction(float(p)) for p in seam) for seam in seams]
    if seams[0][0] != lo or any(e != t for (_, _, e), (t, _, _) in zip(seams, seams[1:])):
        raise ValueError("the seams do not chain from the interval's start")
    ref = Referee(dist, curve, delta, [c for _, c, _ in seams])
    verdict = Verdict()
    last = len(seams) - 1
    for i, (t, c, e) in enumerate(seams):
        claims = [(verdict.backward, t, c), (verdict.forward, c, max(e, hi) if i == last else e)]
        for fails, a, b in claims:
            if a == b or ref.proves(i, a, b):
                continue
            fails.append(i)
            found, point = ref.search(range(max(0, i - 1), min(last, i + 1) + 1), a, b)
            if found == "gap":
                verdict.gaps.setdefault(i, point)
            elif found == "undecided" and i not in verdict.undecided:
                verdict.undecided.append(i)
    return verdict
