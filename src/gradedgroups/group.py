"""Polynomial group law on a graded nilpotent algebra.

In exponential coordinates the product is x * y = x + y + Q(x, y) where
Q collects the bracket corrections from the Baker-Campbell-Hausdorff
series.  Because the algebra is nilpotent of step s, the series is a
finite sum: every nested bracket of depth beyond s vanishes, so the
polynomials below are exact, not truncations.

We expand the series with Dynkin's explicit formula.  Words over the
letters {x, y} of length up to the step are mapped to right-nested
brackets (computed once per word on vectors of polynomials), and each
word picks up an exact rational coefficient summed over its block
decompositions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence

import numpy as np

from .algebra import GradedAlgebra
from .poly import RationalPoly


class DimensionMismatch(ValueError):
    pass


def _leading(a: np.ndarray, k: int = 1) -> np.ndarray:
    """View of ``a`` with its last k axes first; a single point indexes to floats."""
    nd = a.ndim
    return a.transpose(tuple(range(nd - k, nd)) + tuple(range(nd - k)))


@lru_cache(maxsize=None)
def _dynkin_word_coefficients(depth: int) -> dict:
    """Rational coefficient per letter word (0 = x, 1 = y), lengths <= depth.

    Sums (-1)^(m-1) / (m * w * prod p_i! q_i!) over all block sequences
    ((p_1,q_1),...,(p_m,q_m)) with p_i + q_i > 0 whose concatenated word
    x^p1 y^q1 ... x^pm y^qm matches, where w is the word length.
    """

    def sequences(budget):
        for p in range(budget + 1):
            for q in range(budget - p + 1):
                if p + q == 0:
                    continue
                head = ((p, q),)
                yield head
                for tail in sequences(budget - p - q):
                    yield head + tail

    coeffs: dict = {}
    for blocks in sequences(depth):
        m = len(blocks)
        w = sum(p + q for p, q in blocks)
        denom = m * w
        for p, q in blocks:
            denom *= factorial(p) * factorial(q)
        word = tuple(l for p, q in blocks for l in (0,) * p + (1,) * q)
        coeffs[word] = coeffs.get(word, Fraction(0)) + Fraction((-1) ** (m - 1), denom)
    return {w: c for w, c in coeffs.items() if c != 0}


def _bracket_polyvec(alg: GradedAlgebra, u, v):
    nv = u[0].nvars
    w = [RationalPoly.zero(nv) for _ in range(alg.n)]
    for (i, j), coeffs in alg.pairs():
        cross = u[i] * v[j] - u[j] * v[i]
        if cross.is_zero():
            continue
        for k, c in coeffs.items():
            w[k] = w[k] + c * cross
    return tuple(w)


def bch_group_law(algebra: GradedAlgebra) -> "GroupLaw":
    """Compute the exact product polynomials for a validated algebra."""
    n = algebra.n
    nv = 2 * n
    xv = tuple(RationalPoly.variable(nv, i) for i in range(n))
    yv = tuple(RationalPoly.variable(nv, n + i) for i in range(n))

    # right-nested brackets per word, built from short to long
    nested = {(0,): xv, (1,): yv}
    first = {0: xv, 1: yv}
    for length in range(2, algebra.step + 1):
        for word in itertools.product((0, 1), repeat=length):
            inner = nested[word[1:]]
            if all(p.is_zero() for p in inner):
                nested[word] = inner
                continue
            nested[word] = _bracket_polyvec(algebra, first[word[0]], inner)

    z = [RationalPoly.zero(nv) for _ in range(n)]
    for word, c in _dynkin_word_coefficients(algebra.step).items():
        vec = nested[word]
        for i in range(n):
            if not vec[i].is_zero():
                z[i] = z[i] + c * vec[i]

    q_polys = tuple(z[i] - xv[i] - yv[i] for i in range(n))
    _check_law_structure(algebra, q_polys)
    return GroupLaw(algebra, q_polys)


def _check_law_structure(alg: GradedAlgebra, q_polys) -> None:
    """Internal sanity net: structural identities the series must satisfy."""
    n = alg.n
    weights = alg.degrees + alg.degrees
    yvars = range(n, 2 * n)
    for i, q in enumerate(q_polys):
        deg = q.weighted_degree(weights)
        if deg is not None and deg != alg.degrees[i]:
            raise AssertionError(f"Q_{i+1} is not {alg.degrees[i]}-homogeneous")
        if alg.degrees[i] == 1 and not q.is_zero():
            raise AssertionError(f"Q_{i+1} must vanish on the first layer")
        if not q.subs_zero(yvars).is_zero() or not q.subs_zero(range(n)).is_zero():
            raise AssertionError(f"Q_{i+1}(x, 0) and Q_{i+1}(0, y) must vanish")
        for v in q.support():
            if weights[v] >= alg.degrees[i]:
                raise AssertionError(
                    f"Q_{i+1} depends on a coordinate of degree >= {alg.degrees[i]}")


class GroupLaw:
    """The group product, inverse and dilations in exponential coordinates.

    Float inputs go through compiled per-coordinate evaluators and accept
    numpy arrays of shape (..., n).  The exact path keeps Fractions end
    to end.
    """

    def __init__(self, algebra: GradedAlgebra, q_polys):
        self.algebra = algebra
        self.q_polys = tuple(q_polys)
        self._q_fns = [q.as_callable() for q in self.q_polys]
        # partials d Q_a / d y_b, kept symbolic for frames and jacobians
        n = algebra.n
        self._dq_polys = [[self.q_polys[a].diff(n + b) for b in range(n)] for a in range(n)]
        self._dq_fns = [[p.as_callable() for p in row] for row in self._dq_polys]
        self._frame = None

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def step(self) -> int:
        return self.algebra.step

    @property
    def degrees(self):
        return self.algebra.degrees

    @property
    def frame(self):
        """Left-invariant frame, computed on first use."""
        if self._frame is None:
            from .frame import compute_frame

            self._frame = compute_frame(self)
        return self._frame

    def identity(self):
        return np.zeros(self.n)

    # -- float path -------------------------------------------------------

    def _columns(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape[-1] != self.n or y.shape[-1] != self.n:
            raise DimensionMismatch(
                f"points must have {self.n} coordinates, got {x.shape} and {y.shape}")
        return x, y, [*_leading(x), *_leading(y)]

    def multiply(self, x, y):
        x, y, cols = self._columns(x, y)
        out = [x[..., i] + y[..., i] + self._q_fns[i](cols) for i in range(self.n)]
        return np.stack(out, axis=-1)

    def inverse(self, x):
        return -np.asarray(x, dtype=float)

    def dilate(self, r: float, x):
        if not r > 0:
            raise ValueError("dilation factor must be positive")
        x = np.asarray(x, dtype=float)
        scale = np.array([float(r) ** d for d in self.degrees])
        return x * scale

    def left_jacobian(self, x, y):
        """Jacobian of y -> x * y (identity plus dQ/dy), shape (..., n, n).

        x and y have shape (..., n) and broadcast against each other.
        """
        x, y, cols = self._columns(x, y)
        jac = np.empty(np.broadcast(x, y).shape[:-1] + (self.n, self.n))
        jac[...] = np.eye(self.n)
        entries = _leading(jac, 2)    # entries[a, b] is jac[..., a, b]
        for a in range(self.n):
            for b in range(self.n):
                p = self._dq_polys[a][b]
                if p.terms:
                    entries[a, b] += self._dq_fns[a][b](cols)
        return jac

    # -- exact path ---------------------------------------------------------

    def multiply_exact(self, x: Sequence, y: Sequence):
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatch(f"points must have {self.n} coordinates")
        vals = tuple(x) + tuple(y)
        return tuple(x[i] + y[i] + self.q_polys[i].evaluate(vals) for i in range(self.n))

    def inverse_exact(self, x: Sequence):
        return tuple(-c for c in x)

    def dilate_exact(self, r, x: Sequence):
        if not r > 0:
            raise ValueError("dilation factor must be positive")
        return tuple((r ** d) * c for d, c in zip(self.degrees, x))

    def __repr__(self):
        return f"GroupLaw(n={self.n}, step={self.step})"
