"""Left-invariant frame attached to a polynomial group law.

The frame field X_j(x) = d/dx_j + sum_{deg l > deg j} a^l_j(x) d/dx_l is
obtained by pushing the basis directions at the identity forward along
left translation, so a^l_j(x) is the (l, j) entry of the jacobian of
y -> x * y at y = 0.  Symbolically that is the partial of the product
correction: a^l_j = dQ_l/dy_j (x, 0), a polynomial in x alone, and it is
homogeneous of weighted degree deg(l) - deg(j).

Frame coordinates of an ambient vector v at x solve A(x) lam = v, where
A(x) is unit lower triangular in degree order; they agree with the
coordinates of v pulled back to the identity, so they do not change
under left translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .group import GroupLaw, _leading

METRIC_LEFT = "left"
METRIC_EUCLIDEAN = "euclidean"


def _check_metric(metric: str) -> None:
    if metric not in (METRIC_LEFT, METRIC_EUCLIDEAN):
        raise ValueError(f"unknown metric choice {metric!r}; use 'left' or 'euclidean'")


@dataclass(frozen=True)
class FrameCoordinates:
    """Coefficients lam of a tangent vector in the frame at base_point."""

    lam: np.ndarray
    base_point: np.ndarray


class Frame:
    """Coefficient polynomials a^l_j for degree(l) > degree(j)."""

    def __init__(self, degrees, entries):
        self.degrees = tuple(degrees)
        self.n = len(self.degrees)
        self.entries = dict(entries)  # (l, j) -> RationalPoly in n variables
        self._fns = {key: p.as_callable() for key, p in self.entries.items()}

    def entry(self, l: int, j: int):
        """The polynomial a^l_j (0-based); None when the entry is constant."""
        return self.entries.get((l, j))

    def matrix(self, x) -> np.ndarray:
        """A(x): columns are the frame fields in ambient coordinates."""
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

    def reconstruct(self, x, lam) -> np.ndarray:
        """Ambient components of sum_j lam_j X_j(x)."""
        return self.matrix(x) @ np.asarray(lam, dtype=float)

    def describe(self) -> dict:
        """Human-readable entries, e.g. {"a[3,1]": "-1/2*x2"} (1-based)."""
        names = [f"x{i+1}" for i in range(self.n)]
        out = {}
        for (l, j), p in sorted(self.entries.items()):
            out[f"a[{l+1},{j+1}]"] = p.format(names)
        return out


def compute_frame(law: GroupLaw) -> Frame:
    """Frame coefficients a^l_j = dQ_l/dy_j (x, 0), read off ``law.y_partials``.

    A nonzero entry must raise the degree (deg l > deg j) and be homogeneous
    of weighted degree deg(l) - deg(j); anything else raises AssertionError.
    """
    alg = law.algebra
    n = alg.n
    entries = {}
    for (l, j), dq in law.y_partials.items():
        p = dq.subs_zero(range(n, 2 * n)).drop_vars(range(n))
        if p.is_zero():
            continue
        if alg.degrees[l] <= alg.degrees[j]:
            raise AssertionError(
                f"frame coefficient a[{l+1},{j+1}] should vanish by grading")
        deg = p.weighted_degree(alg.degrees)
        if deg != alg.degrees[l] - alg.degrees[j]:
            raise AssertionError(
                f"a[{l+1},{j+1}] has weighted degree {deg}, expected "
                f"{alg.degrees[l] - alg.degrees[j]}")
        entries[(l, j)] = p
    return Frame(alg.degrees, entries)


def frame_coordinates(frame: Frame, x, v) -> FrameCoordinates:
    return FrameCoordinates(lam=frame.coordinates(x, v), base_point=np.asarray(x, float))


def translate_vector(law: GroupLaw, fc: FrameCoordinates, x) -> FrameCoordinates:
    """Carry a frame vector along left translation by x.

    Frame coordinates are translation invariant, so only the base point
    moves.  The result is cross-checked against the ambient pushforward
    through the jacobian of y -> x * y; disagreement beyond 1e-9 raises,
    since it would mean the frame and the law disagree.
    """
    x = np.asarray(x, dtype=float)
    y = fc.base_point
    new_base = law.multiply(x, y)
    frame = law.frame
    pushed = law.left_jacobian(x, y) @ frame.reconstruct(y, fc.lam)
    err = np.max(np.abs(frame.coordinates(new_base, pushed) - fc.lam))
    if err > 1e-9 * (1.0 + np.max(np.abs(fc.lam))):
        raise ArithmeticError(f"left translation cross-check failed (error {err:.3e})")
    return FrameCoordinates(lam=fc.lam.copy(), base_point=new_base)


def speed(frame: Frame, x, v, metric: str = METRIC_LEFT) -> float:
    """Length of an ambient tangent vector at x under the chosen metric.

    "left" uses the metric that makes the frame orthonormal (the length is
    the euclidean norm of the frame coordinates); "euclidean" uses the
    ambient coordinate norm.
    """
    _check_metric(metric)
    v = np.asarray(v, dtype=float)
    if metric == METRIC_EUCLIDEAN:
        return float(np.sqrt(np.dot(v, v)))
    lam = frame.coordinates(x, v)
    return float(np.sqrt(np.dot(lam, lam)))
