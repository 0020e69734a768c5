"""Sparse multivariate polynomials over exact rationals.

This is the symbolic substrate of the library: group-law components,
frame coefficients and their partial derivatives are all values of
:class:`RationalPoly`.  Coefficients are exact (Fractions or ints),
monomials are exponent tuples, and the arithmetic never rounds: the one
exact evaluation path, :func:`exact_evaluator`, runs on machine integers.
Floating point enters only through :meth:`RationalPoly.float_terms`, the
term table that :func:`float_sum` evaluates (python scalars and numpy
arrays both work): ``GroupLaw`` sums its product and its quotient
x^-1 * y from these tables.

Example:

    >>> x = RationalPoly.variable(2, 0)
    >>> y = RationalPoly.variable(2, 1)
    >>> p = x * y - y * x        # commutative, so this is zero
    >>> p.is_zero()
    True
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Mapping, Sequence

Exponents = tuple  # tuple[int, ...], one entry per variable


class DimensionMismatch(ValueError):
    pass


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, bool):
        raise TypeError(f"expected an exact rational, got bool: {c!r}")
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"expected an exact rational, got {type(c).__name__}: {c!r}")


class RationalPoly:
    """A polynomial in ``nvars`` variables with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients.  The
    constructor checks what it is given: coefficients must be exact
    rationals (TypeError) and exponents non-negative ints (ValueError).
    Instances are treated as immutable; all operators return new
    polynomials.  Int coefficients stay ints (:meth:`variable` makes them).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Fraction] | None = None):
        self.nvars = int(nvars)
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = _as_fraction(c)
                exps = tuple(exps)
                if len(exps) != self.nvars:
                    raise ValueError("exponent tuple length does not match nvars")
                for e in exps:
                    if isinstance(e, bool) or not isinstance(e, int) or e < 0:
                        raise ValueError(f"exponents must be non-negative ints, got {e!r}")
                if c:
                    clean[exps] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "RationalPoly":
        """Wrap terms built by this class's own arithmetic, dropping zeros.

        The keys are exponent tuples of length nvars and the values
        Fractions already, so nothing is re-validated.
        """
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = {e: c for e, c in terms.items() if c}
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def variable(cls, nvars: int, i: int) -> "RationalPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls._trusted(nvars, {tuple(exps): 1})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support(self) -> frozenset:
        """Indices of variables that actually occur."""
        return frozenset(i for exps in self.terms for i, e in enumerate(exps) if e)

    def weighted_degree(self, weights: Sequence[int]):
        """Common weighted degree of all monomials, or None if mixed/zero.

        The zero polynomial is homogeneous of every degree; it returns None
        too, so callers that accept it test for zero first.
        """
        degs = {sum(map(operator.mul, weights, exps)) for exps in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other: "RationalPoly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable counts")

    def __add__(self, other):
        if not isinstance(other, RationalPoly):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms[exps] + c if exps in terms else c
        return RationalPoly._trusted(self.nvars, terms)

    def __neg__(self):
        return RationalPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalPoly):
            self._check_compatible(other)
            terms: dict[Exponents, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    terms[key] = terms.get(key, 0) + c1 * c2
            return RationalPoly._trusted(self.nvars, terms)
        c = other if type(other) is int else _as_fraction(other)
        return RationalPoly._trusted(self.nvars, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; equality only

    # -- calculus ---------------------------------------------------------

    def diff(self, var: int) -> "RationalPoly":
        terms = {}
        for exps, c in self.terms.items():
            e = exps[var]
            if e == 0:
                continue
            key = exps[:var] + (e - 1,) + exps[var + 1:]
            terms[key] = terms.get(key, 0) + c * e
        return RationalPoly._trusted(self.nvars, terms)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, values: Sequence) -> Fraction:
        """Exact value at a point of int or Fraction coordinates (see :func:`exact_evaluator`)."""
        return exact_evaluator((self,))(values)[0]

    def float_terms(self) -> list:
        """(float(c), factors) per term c * v^e, factors listing i exps[i] times, in
        sorted exponent order: the one term order of every float evaluation
        (:meth:`as_callable`, ``GroupLaw``'s Q in the product and the quotient),
        so all round alike.  A coefficient beyond float range raises OverflowError."""
        return [(float(c), tuple(i for i, e in enumerate(exps) for _ in range(e)))
                for exps, c in sorted(self.terms.items())]

    def as_callable(self) -> Callable[[Sequence], float]:
        """``f(v)``: :func:`float_sum` of :meth:`float_terms` on the columns v."""
        terms = self.float_terms()
        return lambda v: float_sum(terms, v)

    # -- display ----------------------------------------------------------

    def format(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"v{i}" for i in range(self.nvars)]
        pieces = []
        for exps, c in sorted(self.terms.items()):
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            if not factors:
                pieces.append(str(c))
                continue
            mono = "*".join(factors)
            if c == 1:
                pieces.append(mono)
            elif c == -1:
                pieces.append(f"-{mono}")
            else:
                pieces.append(f"{c}*{mono}")
        out = pieces[0]
        for p in pieces[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"RationalPoly({self.nvars}, {self.format()})"


def float_sum(terms: Sequence, v: Sequence):
    """A :meth:`RationalPoly.float_terms` table at the columns v: per term t = c,
    then t *= v[f] for each factor (c * v[f0] first, a new array), and q = the
    first t, then q += each further t; the empty table is 0.0.  Never writing
    into a column of v, it needs the columns to be numpy arrays of one shape
    or scalars (python floats, numpy scalars)."""
    q = 0.0
    for k, (c, factors) in enumerate(terms):
        t = c
        for f in factors:
            t *= v[f]
        if k:
            q += t
        else:
            q = t
    return q


def integer_point(values: Sequence, n: int) -> tuple:
    """(nums, den): den is the lcm of the denominators, nums[i] = den * values[i].

    This is the one check of exact points: a point of other than n
    coordinates raises DimensionMismatch, and anything but an int or a
    Fraction TypeError, bool, float and numpy scalars included.  A point of
    plain ``int`` and ``Fraction`` coordinates takes a fast path: one pass
    checks the types and grows den, reading a Fraction's two slots rather
    than its properties, and one scales the numerators.  Any other point
    (a subclass of int or Fraction, or a coordinate to refuse) takes the
    general path, which reads ``as_integer_ratio`` and raises at the first
    coordinate that is not exact.
    """
    if len(values) != n:
        raise DimensionMismatch(f"points must have {n} coordinates, got {len(values)}")
    den = 1
    for v in values:
        kind = type(v)
        if kind is Fraction:
            d = v._denominator
            if den % d:
                den = den // math.gcd(den, d) * d
        elif kind is not int:
            break
    else:
        return [v._numerator * (den // v._denominator) if type(v) is Fraction else v * den
                for v in values], den
    ratios = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise TypeError("exact evaluation needs int or Fraction coordinates, "
                            f"got {type(v).__name__}: {v!r}")
        ratios.append(v.as_integer_ratio())
    den = math.lcm(*[d for _, d in ratios])
    return [a * (den // d) for a, d in ratios], den


def _fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for den > 0: both divided by their gcd, the two slots set."""
    g = math.gcd(num, den)
    f = object.__new__(Fraction)
    f._numerator, f._denominator = num // g, den // g
    return f


def exact_evaluator(polys: Sequence[RationalPoly]) -> Callable[[Sequence], tuple]:
    """Compile polynomials in the same variables into one exact function of a point.

    The point is checked and scaled once by :func:`integer_point`: with the
    integers a = D * point, a term c * point^e of total degree d is
    c * a^e / D^d.  The function unpacks a into locals ``a0, a1, ..`` and
    computes each power a_i^e (local ``a<i>_<e>``) and D^d (``D_<d>``) that
    any polynomial uses, once per call.  Each polynomial puts its
    coefficients over their common denominator M and writes each term as
    the int c * M, computed here, times its power locals (a factor of 1
    left out, a negative term subtracted).  It sums the terms S_d of each
    total degree d and combines them by Horner in D,
    N = (..(S_lo * D + S_lo+1) * D + ..) + S_hi, so its value is the one
    Fraction N / (M * D^hi), built reduced by :func:`_fraction` (M * D^hi > 0).
    """
    nvars = polys[0].nvars
    powers, values = set(), []
    for p in polys:
        m = math.lcm(*(c.denominator for c in p.terms.values()))
        sums: dict = {}
        for exps, c in sorted(p.terms.items()):
            factors = [f"a{i}_{e}" if e > 1 else f"a{i}" for i, e in enumerate(exps) if e]
            powers.update(factors)
            k, mono = c.numerator * (m // c.denominator), "*".join(factors)
            term = {1: mono, -1: f"-{mono}"}.get(k, f"{k}*{mono}") if mono else str(k)
            sums.setdefault(sum(exps), []).append(term)
        lo, hi = min(sums, default=0), max(sums, default=0)
        num = " + ".join(sums.get(lo, ())) or "0"
        for d in range(lo + 1, hi + 1):
            num = " + ".join([f"({num})*D", *sums.get(d, ())])
        scale = [f"D_{hi}"] if hi > 1 else ["D"] if hi else []
        powers.update(scale)
        den = "*".join(([str(m)] if m != 1 else []) + scale) or "1"
        values.append(f"_fraction({num}, {den})")
    lines = [f"a, D = integer_point(point, {nvars})"]
    if nvars:
        lines.append(f"{', '.join(f'a{i}' for i in range(nvars))}, = a")
    lines += [f"{name} = {name.replace('_', '**')}" for name in sorted(powers) if "_" in name]
    lines.append(f"return ({', '.join(values)},)")
    source = "def at(point):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {"_fraction": _fraction, "integer_point": integer_point}
    exec(source.replace(" + -", " - "), namespace)  # noqa: S102
    return namespace["at"]
