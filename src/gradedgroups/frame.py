"""Left-invariant frame attached to a polynomial group law.

The frame field X_j(x) = d/dx_j + sum_{deg l > deg j} a^l_j(x) d/dx_l is
obtained by pushing the basis directions at the identity forward along
left translation, so a^l_j(x) is the (l, j) entry of the jacobian of
y -> x * y at y = 0.  Symbolically a^l_j = dQ_l/dy_j (x, 0), the x-part of
the terms of Q_l linear in y_j alone: a polynomial in x, homogeneous of
weighted degree deg(l) - deg(j).

Frame coordinates of an ambient vector v at x solve A(x) lam = v, where
A(x) is unit lower triangular in degree order; they agree with the
coordinates of v pulled back to the identity, so they do not change
under left translation, and a tangent direction is just the array lam.
The ambient vector of lam at x is A(x) @ lam (``Frame.matrix``).
Computing the frame is exact; numpy is imported by the float methods.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from .group import GroupLaw, _leading
from .poly import RationalPoly

if TYPE_CHECKING:
    import numpy as np

METRIC_LEFT = "left"
METRIC_EUCLIDEAN = "euclidean"


def _check_metric(metric: str) -> None:
    if metric not in (METRIC_LEFT, METRIC_EUCLIDEAN):
        raise ValueError(f"unknown metric choice {metric!r}; use 'left' or 'euclidean'")


class Frame:
    """Coefficient polynomials a^l_j for degree(l) > degree(j)."""

    def __init__(self, degrees, entries):
        self.degrees = tuple(degrees)
        self.n = len(self.degrees)
        self.entries = dict(entries)  # (l, j) -> RationalPoly in n variables

    @cached_property
    def _fns(self) -> dict:
        return {key: p.as_callable() for key, p in self.entries.items()}

    def entry(self, l: int, j: int):
        """The polynomial a^l_j (0-based); None when the entry is constant."""
        return self.entries.get((l, j))

    def matrix(self, x) -> np.ndarray:
        """A(x): columns are the frame fields in ambient coordinates."""
        import numpy as np
        x = np.asarray(x, dtype=float)
        cols = [x[i] for i in range(self.n)]
        a = np.eye(self.n)
        for (l, j), fn in self._fns.items():
            a[l, j] = fn(cols)
        return a

    def coordinates(self, x, v) -> np.ndarray:
        """Solve A(x) lam = v by forward substitution in degree order.

        x and v have shape (..., n) and broadcast against each other; lam
        has their broadcast shape.
        """
        import numpy as np
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.shape[-1:] != (self.n,) or v.shape[-1:] != (self.n,):
            raise ValueError(f"expected points and vectors of length {self.n}")
        cols = list(_leading(x))
        lam = np.empty(np.broadcast(x, v).shape)
        lam[...] = v
        rows = _leading(lam)    # rows[l] is lam[..., l]; a float for one point
        for l in range(self.n):
            for j in range(l):
                fn = self._fns.get((l, j))
                if fn is not None:
                    rows[l] -= fn(cols) * rows[j]
        return lam

    def describe(self) -> dict:
        """Human-readable entries, e.g. {"a[3,1]": "-1/2*x2"} (1-based)."""
        names = [f"x{i+1}" for i in range(self.n)]
        out = {}
        for (l, j), p in sorted(self.entries.items()):
            out[f"a[{l+1},{j+1}]"] = p.format(names)
        return out


def compute_frame(law: GroupLaw) -> Frame:
    """Frame coefficients a^l_j = dQ_l/dy_j (x, 0), read off Q_l in one pass.

    At y = 0 the partial keeps only the terms of Q_l linear in y_j alone, so
    a^l_j is the x-part of the terms whose y-exponents are exactly e_j.  A
    nonzero entry must raise the degree (deg l > deg j) and be homogeneous
    of weighted degree deg(l) - deg(j); anything else raises AssertionError.
    """
    alg = law.algebra
    n = alg.n
    entries = {}
    for l, q in enumerate(law.q_polys):
        parts = {}
        for exps, c in q.terms.items():
            y = exps[n:]
            if sum(y) == 1:
                parts.setdefault(y.index(1), {})[exps[:n]] = c
        for j, terms in sorted(parts.items()):
            if alg.degrees[l] <= alg.degrees[j]:
                raise AssertionError(
                    f"frame coefficient a[{l+1},{j+1}] should vanish by grading")
            p = RationalPoly._trusted(n, terms)
            deg = p.weighted_degree(alg.degrees)
            if deg != alg.degrees[l] - alg.degrees[j]:
                raise AssertionError(
                    f"a[{l+1},{j+1}] has weighted degree {deg}, expected "
                    f"{alg.degrees[l] - alg.degrees[j]}")
            entries[(l, j)] = p
    return Frame(alg.degrees, entries)


def speed(frame: Frame, x, v, metric: str = METRIC_LEFT):
    """Length of ambient tangent vectors v at points x under the chosen metric.

    "left" uses the metric that makes the frame orthonormal (the length is
    the euclidean norm of the frame coordinates); "euclidean" uses the
    ambient coordinate norm.  x and v have shape (..., n); the lengths have
    shape (...), a float for one point.
    """
    import numpy as np
    _check_metric(metric)
    lam = np.asarray(v, dtype=float) if metric == METRIC_EUCLIDEAN else frame.coordinates(x, v)
    out = np.sqrt((lam * lam).sum(axis=-1))
    return float(out) if out.ndim == 0 else out
