"""Polynomial group law on a graded nilpotent algebra.

In exponential coordinates the product is x * y = x + y + Q(x, y) where
Q collects the bracket corrections from the Baker-Campbell-Hausdorff
series.  Because the algebra is nilpotent of step s, the series is a
finite sum: every nested bracket of depth beyond s vanishes, so the
polynomials below are exact, not truncations.

We expand the series with Dynkin's explicit formula.  Words over the
letters {x, y} of length up to the step are mapped to right-nested
brackets (computed once per word on vectors of polynomials), and each
word picks up an exact rational coefficient.  The coefficients come
from a recursion over the word's prefixes on integers, one Fraction per
word; ``tests/bch_oracle.py`` keeps the sum over block sequences as the
reference.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import GradedAlgebra
from .poly import RationalPoly, evaluate_all, integer_point


class DimensionMismatch(ValueError):
    pass


def _leading(a: np.ndarray, k: int = 1) -> np.ndarray:
    """View of ``a`` with its last k axes first; a single point indexes to floats."""
    nd = a.ndim
    return a.transpose(tuple(range(nd - k, nd)) + tuple(range(nd - k)))


@lru_cache(maxsize=None)
def _dynkin_word_coefficients(depth: int) -> dict:
    """Rational coefficient per letter word (0 = x, 1 = y), lengths <= depth.

    Dynkin's coefficient of a word w of length L sums (-1)^(m-1) /
    (m * L * prod p_i! q_i!) over its splits into m blocks x^p_i y^q_i
    with p_i + q_i > 0.  The word tree is walked depth-first, and for
    each prefix of length j the integers G[j][m] = j! * sum prod 1 /
    (p_i! q_i!) over the splits of the prefix into m blocks are kept.
    They follow from the shorter prefixes by the last block w[i:j] =
    x^p y^q: G[j][m] = sum G[i][m-1] * C(j, i) * C(j-i, p).  So each
    word costs one Fraction, sum (-1)^(m-1) G[L][m] / (m * L * L!).
    """
    coeffs: dict = {}

    def visit(word: tuple, rows: list) -> None:
        length = len(word)
        if length:
            g = rows[length]
            top = math.lcm(*range(1, length + 1))
            num = sum((-1) ** (m - 1) * g[m] * (top // m) for m in range(1, length + 1))
            if num:
                coeffs[word] = Fraction(num, top * length * math.factorial(length))
        if length == depth:
            return
        j = length + 1
        for letter in (0, 1):
            w = word + (letter,)
            row = [0] * (j + 1)
            p = 0
            for i in range(j - 1, -1, -1):     # the last block is w[i:j] = x^p y^q
                if w[i] == 0:
                    p += 1
                elif p:
                    break
                weight = math.comb(j, i) * math.comb(j - i, p)
                for m, gm in enumerate(rows[i]):
                    if gm:
                        row[m + 1] += gm * weight
            visit(w, rows + [row])

    visit((), [[1]])
    return coeffs


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
            nested[word] = algebra.bracket(first[word[0]], inner) if any(inner) else inner

    z = [RationalPoly.zero(nv) for _ in range(n)]
    for word, c in _dynkin_word_coefficients(algebra.step).items():
        for i, p in enumerate(nested[word]):
            if p:
                z[i] = z[i] + c * p

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

    ``q_polys[a]`` is the correction Q_a(x, y), a polynomial in the 2n
    variables (x, y).  ``y_partials[(a, b)]`` is dQ_a/dy_b, kept only where
    nonzero and derived once: :meth:`left_jacobian` evaluates these
    partials and :func:`compute_frame` reads the frame off them at y = 0.

    Float inputs go through compiled evaluators and accept numpy arrays
    of shape (..., n); the exact path takes ints and Fractions only.
    """

    def __init__(self, algebra: GradedAlgebra, q_polys):
        self.algebra = algebra
        self.q_polys = tuple(q_polys)
        self._q_fns = [q.as_callable() for q in self.q_polys]
        n = algebra.n
        self.y_partials = {(a, v - n): q.diff(v)
                           for a, q in enumerate(self.q_polys)
                           for v in sorted(q.support()) if v >= n}
        self._y_partial_fns = {key: p.as_callable() for key, p in self.y_partials.items()}
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
        for (a, b), fn in self._y_partial_fns.items():
            entries[a, b] += fn(cols)
        return jac

    # -- exact path ---------------------------------------------------------

    def multiply_exact(self, x: Sequence, y: Sequence):
        """x * y over Fractions; coordinates must be ints or Fractions.

        All corrections are evaluated at once (:func:`evaluate_all`), and
        any other coordinate (bool, float, a numpy scalar) raises TypeError.
        """
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatch(f"points must have {self.n} coordinates")
        q = evaluate_all(self.q_polys, tuple(x) + tuple(y))
        return tuple(x[i] + y[i] + q[i] for i in range(self.n))

    def inverse_exact(self, x: Sequence):
        integer_point(x)
        return tuple(-c for c in x)

    def dilate_exact(self, r, x: Sequence):
        """dil_r x; r and the coordinates must be ints or Fractions."""
        integer_point((r, *x))
        if not r > 0:
            raise ValueError("dilation factor must be positive")
        return tuple((r ** d) * c for d, c in zip(self.degrees, x))

    def __repr__(self):
        return f"GroupLaw(n={self.n}, step={self.step})"
