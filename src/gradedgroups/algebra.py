"""Graded nilpotent Lie algebras given by rational structure constants.

An algebra is described by layer dimensions and a sparse list of bracket
entries [e_i, e_j] = sum_k c^k_ij e_k with exact rational c.  Validation
checks antisymmetry, the grading rule (a bracket of degrees p and q may
only hit coordinates of degree p+q) and the Jacobi identity, all over
exact rationals.  Nilpotency then comes for free: any bracket whose
total degree exceeds the top layer is forced to vanish.

Coordinates are ordered by layer, so basis degrees are nondecreasing.
Indices are 1-based in the input format (and in error messages), 0-based
everywhere inside.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .poly import _as_fraction


# largest total dimension validate_algebra accepts.  Validation and the
# exact layer after it are dense in n (the Jacobi check alone visits n^3 / 6
# triples): frame-show of an abelian algebra took 0.3 s at n = 64 and 1.6 s
# at n = 128 on a 2-core x86_64 machine, and a layer dimension of 10^9
# would allocate gigabytes.
MAX_DIMENSION = 128


class GroupValidationError(ValueError):
    """An algebra description violates a structural requirement."""


def _degrees(layer_dims) -> tuple:
    """Degree of each basis vector: k for the vectors of layer k."""
    return tuple(k for k, dim in enumerate(layer_dims, start=1) for _ in range(dim))


def _is_index(value) -> bool:
    """An integer in the JSON sense: int, but not bool."""
    return isinstance(value, int) and not isinstance(value, bool)


class AntisymmetryViolation(GroupValidationError):
    pass


class GradingViolation(GroupValidationError):
    pass


class JacobiViolation(GroupValidationError):
    pass


@dataclass(frozen=True)
class GradedAlgebraSpec:
    """Unvalidated description: layer dimensions plus bracket entries.

    ``brackets`` holds (i, j, k, c) tuples with 1-based indices, meaning
    [e_i, e_j] has coefficient c on e_k.
    """

    layer_dims: tuple
    brackets: tuple

    @property
    def n(self) -> int:
        return sum(self.layer_dims)


def spec_from_dict(doc: Mapping) -> GradedAlgebraSpec:
    """Parse the JSON object format {"layers": [...], "brackets": [...]}.

    Bracket entries are objects {"i": 1, "j": 2, "k": 3, "c": "1/2"} with
    rational strings (plain integers are accepted too).  Layer dimensions
    and indices must be integers; floats, strings and booleans are
    rejected rather than coerced.
    """
    if not isinstance(doc, Mapping):
        raise GroupValidationError("algebra document must be a JSON object")
    unknown = set(doc) - {"layers", "brackets"}
    if unknown:
        raise GroupValidationError(f"unknown keys in algebra document: {sorted(unknown)}")
    layers = doc.get("layers")
    if (not isinstance(layers, Sequence) or isinstance(layers, str) or not layers
            or not all(_is_index(d) and d > 0 for d in layers)):
        raise GroupValidationError("'layers' must be a nonempty list of positive integers")
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, Sequence) or isinstance(brackets, str):
        raise GroupValidationError("'brackets' must be a list of bracket entries")
    entries = []
    for raw in brackets:
        if not isinstance(raw, Mapping) or set(raw) != {"i", "j", "k", "c"}:
            raise GroupValidationError(f"bad bracket entry: {raw!r}")
        if not all(_is_index(raw[key]) for key in ("i", "j", "k")):
            raise GroupValidationError(f"bracket indices must be integers: {raw!r}")
        try:
            c = _as_fraction(raw["c"])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise GroupValidationError(f"bracket coefficient must be rational: {raw['c']!r}") from exc
        entries.append((raw["i"], raw["j"], raw["k"], c))
    return GradedAlgebraSpec(tuple(layers), tuple(entries))


def spec_from_json(text: str) -> GradedAlgebraSpec:
    return spec_from_dict(json.loads(text))


class GradedAlgebra:
    """A validated algebra: degrees, layer offsets and the bracket table.

    Construct via :func:`validate_algebra`.
    """

    def __init__(self, layer_dims, table):
        self.layer_dims = tuple(layer_dims)
        self.step = len(self.layer_dims)
        self.n = sum(self.layer_dims)
        self.degrees = _degrees(self.layer_dims)
        # offsets[k] = first 0-based index of layer k+1; offsets[step] = n
        self.layer_offsets = (0, *itertools.accumulate(self.layer_dims))
        # table: {(i, j): {k: Fraction}} for i < j, 0-based
        self._table = {pair: dict(coeffs) for pair, coeffs in table.items() if coeffs}

    def layer_slice(self, k: int) -> slice:
        """0-based slice of coordinates in layer k (k is 1-based)."""
        return slice(self.layer_offsets[k - 1], self.layer_offsets[k])

    def bracket_coeffs(self, i: int, j: int) -> dict:
        """{k: c^k_ij} for basis vectors, any index order, 0-based."""
        if i == j:
            return {}
        if i < j:
            return dict(self._table.get((i, j), {}))
        return {k: -c for k, c in self._table.get((j, i), {}).items()}

    def bracket(self, u: Sequence, v: Sequence):
        """Bracket of coefficient vectors over an exact ring: Fractions or RationalPolys.

        The zero of the result comes from the inputs; a zero cross term (false) is skipped.
        """
        w = [u[0] - u[0]] * self.n
        for (i, j), coeffs in self._table.items():
            cross = u[i] * v[j] - u[j] * v[i]
            if not cross:
                continue
            for k, c in coeffs.items():
                w[k] += cross * c
        return tuple(w)

    def structure_tensor(self):
        """Dense float tensor c[i, j, k], mostly for basis-change numerics."""
        import numpy as np

        c = np.zeros((self.n, self.n, self.n))
        for (i, j), coeffs in self._table.items():
            for k, coeff in coeffs.items():
                c[i, j, k] = float(coeff)
                c[j, i, k] = -float(coeff)
        return c

    def __repr__(self):
        return f"GradedAlgebra(layers={self.layer_dims}, brackets={sum(len(v) for v in self._table.values())})"


def validate_algebra(spec: GradedAlgebraSpec) -> GradedAlgebra:
    """Check antisymmetry, grading and Jacobi; return the validated algebra.

    All checks are exact over rationals.  Raises AntisymmetryViolation,
    GradingViolation or JacobiViolation with 1-based indices in the message,
    and GroupValidationError for a dimension above MAX_DIMENSION.
    """
    if not all(dim > 0 for dim in spec.layer_dims):
        raise GroupValidationError("layer dimensions must be positive")
    n = spec.n
    if n > MAX_DIMENSION:
        raise GroupValidationError(f"dimension {n} exceeds the supported {MAX_DIMENSION}")
    degrees = _degrees(spec.layer_dims)

    # densify; detect duplicates and within-input antisymmetry conflicts
    raw: dict = {}
    for (i1, j1, k1, c) in spec.brackets:
        if not (1 <= i1 <= n and 1 <= j1 <= n and 1 <= k1 <= n):
            raise GroupValidationError(f"bracket index out of range: ({i1},{j1},{k1})")
        if i1 == j1:
            if c != 0:
                raise AntisymmetryViolation(f"[e_{i1}, e_{i1}] must vanish")
            continue
        key = (i1 - 1, j1 - 1, k1 - 1)
        if key in raw and raw[key] != c:
            raise GroupValidationError(f"conflicting duplicate entry for ({i1},{j1},{k1})")
        raw[key] = c

    table: dict = {}
    for (i, j, k), c in raw.items():
        if c == 0:
            continue
        mirror = raw.get((j, i, k))
        if mirror is not None and mirror != -c:
            raise AntisymmetryViolation(
                f"c^{k+1}_({i+1},{j+1}) = {c} but c^{k+1}_({j+1},{i+1}) = {mirror}")
        if degrees[k] != degrees[i] + degrees[j]:
            raise GradingViolation(
                f"c^{k+1}_({i+1},{j+1}) = {c} nonzero but degree {degrees[k]} != "
                f"{degrees[i]} + {degrees[j]}")
        lo, hi = min(i, j), max(i, j)
        coeffs = table.setdefault((lo, hi), {})
        val = c if i < j else -c
        if k in coeffs and coeffs[k] != val:
            raise AntisymmetryViolation(f"inconsistent entries for pair ({lo+1},{hi+1})")
        coeffs[k] = val

    alg = GradedAlgebra(spec.layer_dims, table)

    # Jacobi, exact: [[ei,ej],ek] + [[ej,ek],ei] + [[ek,ei],ej] = 0
    def basis_bracket_with(coeffs: dict, k: int) -> dict:
        out: dict = {}
        for m, c in coeffs.items():
            for l, c2 in alg.bracket_coeffs(m, k).items():
                out[l] = out.get(l, Fraction(0)) + c * c2
        return out

    for i in range(n):
        for j in range(i + 1, n):
            cij = alg.bracket_coeffs(i, j)
            for k in range(j + 1, n):
                total: dict = {}
                for part in (
                    basis_bracket_with(cij, k),
                    basis_bracket_with(alg.bracket_coeffs(j, k), i),
                    basis_bracket_with(alg.bracket_coeffs(k, i), j),
                ):
                    for l, c in part.items():
                        total[l] = total.get(l, Fraction(0)) + c
                bad = {l: c for l, c in total.items() if c != 0}
                if bad:
                    l, c = next(iter(bad.items()))
                    raise JacobiViolation(
                        f"Jacobi fails on (e_{i+1}, e_{j+1}, e_{k+1}): "
                        f"residual {c} on e_{l+1}")
    return alg
