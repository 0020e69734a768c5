"""Sparse multivariate polynomials over exact rationals.

This is the symbolic substrate of the library: group-law components,
frame coefficients and their partial derivatives are all values of
:class:`RationalPoly`.  Coefficients are `fractions.Fraction`, monomials
are exponent tuples, and nothing in here ever rounds.  Floating point
enters only through :meth:`RationalPoly.as_callable`, which compiles a
polynomial into a plain lambda for fast numeric evaluation (python
scalars and numpy arrays both work).

Example:

    >>> x = RationalPoly.variable(2, 0)
    >>> y = RationalPoly.variable(2, 1)
    >>> p = x * y - y * x        # commutative, so this is zero
    >>> p.is_zero()
    True
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

Exponents = tuple  # tuple[int, ...], one entry per variable


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


def monomial_source(lead: str, exps: Exponents, var: str) -> str:
    """Source text ``lead*var[i]*...`` with var[i] repeated exps[i] times."""
    factors = [lead]
    for i, e in enumerate(exps):
        factors.extend([f"{var}[{i}]"] * e)
    return "*".join(factors)


class RationalPoly:
    """A polynomial in ``nvars`` variables with Fraction coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients.  The
    constructor checks what it is given: coefficients must be exact
    rationals (TypeError) and exponents non-negative ints (ValueError).
    Instances are treated as immutable; all operators return new
    polynomials.
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
    def zero(cls, nvars: int) -> "RationalPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "RationalPoly":
        return cls(nvars, {(0,) * nvars: _as_fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "RationalPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> frozenset:
        """Indices of variables that actually occur."""
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return frozenset(used)

    def weighted_degree(self, weights: Sequence[int]):
        """Common weighted degree of all monomials, or None if mixed/zero.

        The zero polynomial is homogeneous of every degree; it returns None
        and callers treat that as a pass.
        """
        degs = {sum(w * e for w, e in zip(weights, exps)) for exps in self.terms}
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
            terms[exps] = terms.get(exps, Fraction(0)) + c
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
                    terms[key] = terms.get(key, Fraction(0)) + c1 * c2
            return RationalPoly._trusted(self.nvars, terms)
        c = _as_fraction(other)
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
            terms[key] = terms.get(key, Fraction(0)) + c * e
        return RationalPoly._trusted(self.nvars, terms)

    def subs_zero(self, variables: Iterable[int]) -> "RationalPoly":
        """Set the given variables to zero (drop monomials that use them)."""
        kill = set(variables)
        terms = {e: c for e, c in self.terms.items()
                 if not any(e[i] for i in kill)}
        return RationalPoly._trusted(self.nvars, terms)

    def drop_vars(self, keep: Sequence[int]) -> "RationalPoly":
        """Re-express in the subset ``keep`` of variables, in that order.

        Raises if any discarded variable still occurs.
        """
        keep = list(keep)
        keepset = set(keep)
        bad = self.support() - keepset
        if bad:
            raise ValueError(f"variables {sorted(bad)} still occur; cannot drop them")
        terms = {}
        for exps, c in self.terms.items():
            terms[tuple(exps[i] for i in keep)] = c
        return RationalPoly._trusted(len(keep), terms)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, values: Sequence) -> Fraction:
        """Exact value at a point whose coordinates are ints or Fractions.

        Runs over integers with one common denominator: D is the lcm of
        the coordinates' denominators and a_i = D * v_i, so a monomial of
        total degree d is prod a_i^e_i / D^d with an integer numerator.
        Terms are summed as integers per class (d, denominator of the
        coefficient), and each class becomes one Fraction.  Raises
        TypeError for any other coordinate type, bool, float and numpy
        scalars included.
        """
        if len(values) != self.nvars:
            raise ValueError("value count does not match nvars")
        ratios = []
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise TypeError("exact evaluation needs int or Fraction coordinates, "
                                f"got {type(v).__name__}: {v!r}")
            ratios.append(v.as_integer_ratio())
        if not self.terms:
            return Fraction(0)
        den = math.lcm(*[d for _, d in ratios])
        nums = [a * (den // d) for a, d in ratios]
        sums: dict[tuple, int] = {}
        for exps, c in self.terms.items():
            m, q = c.as_integer_ratio()
            for a, e in zip(nums, exps):
                if e:
                    m *= a ** e
            if m:
                key = (sum(exps), q)
                sums[key] = sums.get(key, 0) + m
        total = Fraction(0)
        for (d, q), m in sums.items():
            total += Fraction(m, q * den ** d)
        return total

    def as_callable(self) -> Callable[[Sequence], float]:
        """Compile to ``f(values) -> float`` with coefficients cast to float.

        The generated lambda indexes into its single argument, so numpy
        columns can be passed as a list of arrays for vectorized use.
        """
        parts = [monomial_source(repr(float(c)), exps, "v")
                 for exps, c in sorted(self.terms.items())]
        body = " + ".join(parts) if parts else "0.0"
        return eval(f"lambda v: {body}")  # noqa: S307 - source built from our own terms

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
