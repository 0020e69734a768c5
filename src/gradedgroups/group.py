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
reference.  The assembly runs on packed monomials, one Python int per
monomial with a bit field per variable (Monagan and Pearce, "Sparse
polynomial multiplication and division in Maple 14", 2009), and integer
coefficients, on sparse vectors of their nonzero coordinates: a bracket
[g, inner] with the x or y generator vector g walks an adjacency list of
the bracket table from each nonzero coordinate of inner and shifts its
keys by one variable's unit.  Keys become exponent tuples and
coefficients Fractions once, in ``q_polys``, and every evaluator of the
law is built on first use: the exact product compiled, the float ones as
term tables (:meth:`RationalPoly.float_terms`).  The float methods import
numpy as they run: the exact layer never loads it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Sequence

from .algebra import GradedAlgebra, NumericalResolutionError
from .poly import DimensionMismatch, RationalPoly, exact_evaluator, float_sum, integer_point

if TYPE_CHECKING:
    import numpy as np


def _leading(a: np.ndarray, k: int = 1) -> np.ndarray:
    """View of ``a`` with its last k axes first; a single point indexes to floats."""
    nd = a.ndim
    return a.transpose(tuple(range(nd - k, nd)) + tuple(range(nd - k)))


@lru_cache(maxsize=None)
def _dynkin_word_coefficients(depth: int) -> dict:
    """Rational coefficient per letter word (0 = x, 1 = y), lengths <= depth,
    words of coefficient 0 left out, in the order of the words as tuples,
    which is that of a depth-first walk of the word tree."""
    return dict(sorted((w, c) for j in range(1, depth + 1) for w, _, c in _dynkin_words(j) if c))


@lru_cache(maxsize=None)
def _dynkin_words(j: int) -> list:
    """(word, rows, coefficient or 0) of every letter word of length j; kept
    per length, so a law of a larger step computes only its longer words.

    Dynkin's coefficient of a word w of length j sums (-1)^(m-1) / (m * j *
    prod p_i! q_i!) over its splits into m blocks x^p_i y^q_i, p_i + q_i >
    0.  rows[i][m] = G[i][m] = i! * sum prod 1 / (p_i! q_i!) over the splits
    of w's prefix of length i into m blocks, and by the last block w[i:j] =
    x^p y^q, G[j][m] = sum G[i][m-1] C(j, i) C(j-i, p) from its parent's.
    """
    if not j:
        return [((), [[1]], 0)]
    top = math.lcm(*range(1, j + 1))
    # (-1)^(m-1) * lcm(1..j) / m, the numerator's weight of G[j][m]
    signed = [0] + [(-1) ** (m - 1) * (top // m) for m in range(1, j + 1)]
    comb = [[math.comb(a, b) for b in range(a + 1)] for a in range(j + 1)]
    words = []
    for parent, rows, _ in _dynkin_words(j - 1):
        for w in (parent + (0,), parent + (1,)):
            row = [0] * (j + 1)
            p = 0
            for i in range(j - 1, -1, -1):     # the last block is w[i:j] = x^p y^q
                if w[i] == 0:
                    p += 1
                elif p:
                    break
                weight = comb[j][i] * comb[j - i][p]
                for m, gm in enumerate(rows[i], 1):
                    row[m] += gm * weight
            num = sum(map(operator.mul, row, signed))
            words.append((w, rows + [row], Fraction(num, top * j * math.factorial(j)) if num else 0))
    return words


@lru_cache(maxsize=None)
def _dynkin_suffixes(depth: int) -> tuple:
    """The suffixes of length >= 2 of the words with a Dynkin coefficient, shortest first."""
    words = _dynkin_word_coefficients(depth)
    return tuple(sorted({w[i:] for w in words for i in range(len(w) - 1)}, key=len))


def bch_group_law(algebra: GradedAlgebra) -> "GroupLaw":
    """Compute the exact product polynomials for a validated algebra.

    A polynomial of the assembly is a dict {packed monomial: int}: variable
    v's exponent sits in bit field v of width ``step.bit_length() + 1``.  No
    exponent exceeds its term's total degree, at most the step, so the top
    bit of every field stays clear; unpacking checks it.  A vector is a dict
    of its nonzero coordinates.  With the constants times their common
    denominator L (:meth:`GradedAlgebra.integral`), the right-nested bracket
    [g, inner] of a word of length l is an integer vector over L^(l-1).  With
    g the x or the y generator, it adds c inner_j, its keys shifted by
    variable i's unit, to coordinate k, for each nonzero inner_j and each
    term c e_k of [e_i, e_j].  A term of Q of degree l comes from the words of
    length l alone: over one denominator of the Dynkin coefficients it sums
    as an integer, made one Fraction as the keys are unpacked for ``q_polys``.
    """
    n = algebra.n
    width = algebra.step.bit_length() + 1
    units = [1 << width * v for v in range(2 * n)]
    scale, integral = algebra.integral()
    # adjacent[j]: (i, k, c) for each term c e_k of [e_i, e_j], both index orders
    adjacent = [[] for _ in range(n)]
    for (i, j), image in integral._table.items():
        for k, c in image.items():
            adjacent[j].append((i, k, c))
            adjacent[i].append((j, k, -c))

    def bracket(g, inner):
        out = {}
        for j, p in inner.items():
            for i, k, c in adjacent[j]:
                shift, w = g[i], out.setdefault(k, {})
                for key, m in p.items():
                    key += shift
                    w[key] = w.get(key, 0) + c * m
        return {k: w if all(w.values()) else {key: m for key, m in w.items() if m}
                for k, w in out.items() if any(w.values())}

    # right-nested brackets times L^(length-1), built from short to long, of
    # the words with a coefficient and their suffixes
    coeffs = _dynkin_word_coefficients(algebra.step)
    first = (units[:n], units[n:])
    nested = {(letter,): {i: {u: 1} for i, u in enumerate(first[letter])} for letter in (0, 1)}
    for word in _dynkin_suffixes(algebra.step):
        inner = nested[word[1:]]
        nested[word] = bracket(first[word[0]], inner) if inner else inner

    den = math.lcm(*(c.denominator for c in coeffs.values()))
    sums = [{} for _ in range(n)]
    for word, c in coeffs.items():
        a = c.numerator * (den // c.denominator)
        for i, p in nested[word].items() if len(word) > 1 else ():
            s = sums[i]
            for key, m in p.items():
                s[key] = s.get(key, 0) + a * m
    mask = (1 << width) - 1
    guards = sum(units) << width - 1
    q_polys = []
    for s in sums:
        terms = {}
        for key, m in s.items():
            if key & guards:
                raise AssertionError("an exponent overflows its bit field")
            if m:
                exps, d = [0] * (2 * n), 0
                while key:      # the lowest set field's exponent, then clear that field
                    v = ((key & -key).bit_length() - 1) // width
                    exps[v] = e = key >> v * width & mask
                    d += e
                    key ^= e << v * width
                terms[tuple(exps)] = Fraction(m, den * scale ** (d - 1))
        q_polys.append(RationalPoly._trusted(2 * n, terms))
    _check_law_structure(algebra, q_polys)
    return GroupLaw(algebra, q_polys)


def _check_law_structure(alg: GradedAlgebra, q_polys) -> None:
    """Internal sanity net, one pass over each Q's exponents: every term has Q's
    weighted degree, Q vanishes on the first layer, every term holds an x and a y
    variable (Q(x, 0) and Q(0, y) vanish) and none a variable of weight >= Q's
    degree.  A Q that fails several of these reports the first."""
    n = alg.n
    weights = alg.degrees + alg.degrees
    for i, (d, q) in enumerate(zip(alg.degrees, q_polys)):
        high = alg.layer_offsets[d - 1]     # x_v and y_v weigh >= d from v = high on
        fault = min((0 if sum(map(operator.mul, weights, exps)) != d else 1 if d == 1
                     else 2 if not (any(exps[:n]) and any(exps[n:]))
                     else 3 if any(exps[high:n]) or any(exps[n + high:]) else 4
                     for exps in q.terms), default=4)
        if fault < 4:
            raise AssertionError((f"Q_{i+1} is not {d}-homogeneous",
                                  f"Q_{i+1} must vanish on the first layer",
                                  f"Q_{i+1}(x, 0) and Q_{i+1}(0, y) must vanish",
                                  f"Q_{i+1} depends on a coordinate of degree >= {d}")[fault])


class GroupLaw:
    """The group product, inverse and dilations in exponential coordinates.

    ``q_polys[a]`` is the correction Q_a(x, y), a polynomial in the 2n
    variables (x, y).  ``y_partials[(a, b)]`` is dQ_a/dy_b, kept only where
    nonzero and derived on first use, as is every evaluator and the frame:
    :meth:`left_jacobian` evaluates these partials, and :func:`compute_frame`
    reads the frame off the terms of each Q_a linear in one y variable.

    Float inputs go through term tables (:func:`poly.float_sum`) and accept
    numpy arrays of shape (..., n); the exact path takes ints and Fractions only.
    """

    def __init__(self, algebra: GradedAlgebra, q_polys):
        self.algebra = algebra
        self.q_polys = tuple(q_polys)

    @cached_property
    def y_partials(self) -> dict:
        return {(a, v - self.n): q.diff(v) for a, q in enumerate(self.q_polys)
                for v in sorted(q.support()) if v >= self.n}

    @cached_property
    def _q_kernel(self) -> list:
        """Q(x, y) as the :meth:`RationalPoly.float_terms` table of each coordinate.
        A coefficient beyond float range raises NumericalResolutionError that names
        the first such Q and its largest such coefficient (ties: larger exponents)."""
        tables = []
        for i, q in enumerate(self.q_polys):
            try:
                tables.append(q.float_terms())
            except OverflowError:     # then the largest |c| overflows, and so do its ties
                c = max((abs(c), exps, c) for exps, c in q.terms.items())[2]
                raise NumericalResolutionError(
                    f"coefficient {c} of q{i + 1} is beyond float range") from None
        return tables

    @cached_property
    def _divide_kernel(self) -> list:
        """Q(-x, y) as term tables: ``_q_kernel``'s, each coefficient negated where
        its term has an odd number of x factors."""
        n = self.n
        return [[(-c if sum(f < n for f in factors) % 2 else c, factors) for c, factors in table]
                for table in self._q_kernel]

    @cached_property
    def _y_partial_fns(self) -> dict:
        return {key: p.as_callable() for key, p in self.y_partials.items()}

    @cached_property
    def _product(self):
        v = [RationalPoly.variable(2 * self.n, i) for i in range(2 * self.n)]
        return exact_evaluator([v[i] + v[self.n + i] + q for i, q in enumerate(self.q_polys)])

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def step(self) -> int:
        return self.algebra.step

    @property
    def degrees(self):
        return self.algebra.degrees

    @cached_property
    def frame(self):
        """Left-invariant frame, computed on first use."""
        from .frame import compute_frame

        return compute_frame(self)

    def identity(self):
        return self._floats([0.0] * self.n)[0]

    # -- float path -------------------------------------------------------

    def _floats(self, *points) -> list:
        """The points as float arrays; DimensionMismatch unless each has shape (..., n)."""
        import numpy as np
        arrays = [np.asarray(p, dtype=float) for p in points]
        if any(a.shape[-1:] != (self.n,) for a in arrays):
            raise DimensionMismatch(f"need {self.n} coordinates, got shapes {[a.shape for a in arrays]}")
        return arrays

    def _columns(self, x, y):
        """x and y broadcast to one shape (..., n), and the columns of x then y."""
        import numpy as np
        x, y = np.broadcast_arrays(*self._floats(x, y))
        return x, y, [*_leading(x), *_leading(y)]

    def multiply(self, x, y):
        """x * y = x + y + Q(x, y) on float points, shapes (..., n) that broadcast,
        each Q_i the :func:`poly.float_sum` of its table on the columns of x and y."""
        import numpy as np
        x, y, cols = self._columns(x, y)
        out = [x[..., i] + y[..., i] + float_sum(q, cols) for i, q in enumerate(self._q_kernel)]
        return np.stack(out, axis=-1)

    def inverse(self, x):
        return -self._floats(x)[0]

    def dilate(self, r: float, x):
        if not r > 0:
            raise ValueError("dilation factor must be positive")
        return self._floats(x)[0] * [float(r) ** d for d in self.degrees]

    def divide_rows(self, x, y) -> list:
        """x^-1 * y on polynomial rows.

        ``x[j]`` and ``y[j]`` hold coordinate j as the coefficients of a
        polynomial in two variables u, s: arrays whose first two axes are
        the powers of u and of s, and whose other axes agree (one entry per
        curve piece, say).  Returns z = y - x + Q(-x, y) likewise, products
        of coordinates taken as products of polynomials.
        """
        import numpy as np
        n = self.n
        factors = [-np.asarray(c, dtype=float) for c in x] + [np.asarray(c, dtype=float) for c in y]
        monomials = {}

        def monomial(exps):
            if exps not in monomials:
                v = max(i for i, e in enumerate(exps) if e)
                rest = exps[:v] + (exps[v] - 1,) + exps[v + 1:]
                monomials[exps] = (_rows_product(monomial(rest), factors[v]) if any(rest)
                                   else factors[v])
            return monomials[exps]

        zero = [not f.any() for f in factors]
        return [_rows_sum(factors[n + i], factors[i],
                          *(float(c) * monomial(exps) for exps, c in sorted(q.terms.items())
                            if not any(e and zero[v] for v, e in enumerate(exps))))
                for i, q in enumerate(self.q_polys)]

    def _divide(self, cols) -> list:
        """The columns of x^-1 * y from ``cols``, the columns of x then of y, all of
        one shape: z_i = y_i - x_i, then z_i += the :func:`poly.float_sum` of
        Q_i(-x, y) (``_divide_kernel``), never into a column of cols.  Negation is
        exact and rounding symmetric in sign, so z is ``multiply(-x, y)`` bit for
        bit but for the sign of a zero where Q_i is 0: the product adds 0.0 there."""
        n, z = self.n, []
        for i, table in enumerate(self._divide_kernel):
            zi = cols[n + i] - cols[i]
            if table:
                zi += float_sum(table, cols)
            z.append(zi)
        return z

    def left_jacobian(self, x, y):
        """Jacobian of y -> x * y (identity plus dQ/dy), shape (..., n, n).

        x and y have shape (..., n) and broadcast against each other.
        """
        import numpy as np
        x, y, cols = self._columns(x, y)
        jac = np.empty(x.shape[:-1] + (self.n, self.n))
        jac[...] = np.eye(self.n)
        entries = _leading(jac, 2)    # entries[a, b] is jac[..., a, b]
        for (a, b), fn in self._y_partial_fns.items():
            entries[a, b] += fn(cols)
        return jac

    # -- exact path ---------------------------------------------------------

    def multiply_exact(self, x: Sequence, y: Sequence):
        """x * y as Fractions, by one integer evaluator of x + y + Q compiled on
        first use (:func:`poly.exact_evaluator`): the point (x, y) is scaled to
        integers once, each power of a coordinate is computed once and shared
        by every coordinate of the product, and each coordinate is one
        Fraction.  Coordinates must be ints or Fractions: any other (bool,
        float, a numpy scalar) raises TypeError.
        """
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatch(f"points must have {self.n} coordinates")
        return self._product((*x, *y))

    def inverse_exact(self, x: Sequence):
        integer_point(x, self.n)
        return tuple(-c for c in x)

    def dilate_exact(self, r, x: Sequence):
        """dil_r x; r and the coordinates must be ints or Fractions."""
        integer_point(x, self.n)
        integer_point((r,), 1)
        if not r > 0:
            raise ValueError("dilation factor must be positive")
        return tuple((r ** d) * c for d, c in zip(self.degrees, x))

    def __repr__(self):
        return f"GroupLaw(n={self.n}, step={self.step})"


def _rows_sum(*rows: np.ndarray) -> np.ndarray:
    """The sum of polynomial rows: arrays whose first two axes are the powers
    of u and of s, and whose other axes agree."""
    import numpy as np
    out = np.zeros((max(r.shape[0] for r in rows), max(r.shape[1] for r in rows))
                   + rows[0].shape[2:])
    for r in rows:
        out[:r.shape[0], :r.shape[1]] += r
    return out


def _rows_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of two polynomial rows, as :func:`_rows_sum` takes them."""
    import numpy as np
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1) + a.shape[2:])
    for i, j in zip(*np.nonzero(a.any(axis=tuple(range(2, a.ndim))))):
        out[i:i + b.shape[0], j:j + b.shape[1]] += a[i, j] * b
    return out
