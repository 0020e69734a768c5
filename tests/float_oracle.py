"""Float evaluation of polynomials from generated source text, as a test oracle.

Each polynomial is the text ``c*v[i]*v[i]*v[j] + ...``: one term per
monomial in sorted exponent order, its coefficient cast to float and its
factors repeated per exponent, ``0.0`` for the zero polynomial, compiled
by ``eval`` into a lambda of the columns v.  The library evaluates the
table of ``RationalPoly.float_terms`` in a loop instead, in place; tests
hold ``GroupLaw.multiply``, ``GroupLaw.left_jacobian``,
``Frame.coordinates`` and ``RationalPoly.as_callable`` to the text bit for
bit.  The functions below take x and y without broadcasting them, so
columns of different shapes meet in the text as numpy broadcasts them.
"""

import numpy as np


def float_source(poly, var):
    """Source text of the polynomial in ``var[i]``, summed left to right."""
    parts = [repr(float(c)) + "".join(f"*{var}[{i}]" * e for i, e in enumerate(exps) if e)
             for exps, c in sorted(poly.terms.items())]
    return " + ".join(parts) if parts else "0.0"


def as_callable(poly):
    return eval(f"lambda v: {float_source(poly, 'v')}")  # noqa: S307 - our own text


def _columns(*points):
    return [col for p in points for col in np.moveaxis(p, -1, 0)]


def multiply(law, x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    kernel = eval(f"lambda v: ({', '.join(float_source(q, 'v') for q in law.q_polys)},)")  # noqa: S307
    out = [x[..., i] + y[..., i] + q for i, q in enumerate(kernel(_columns(x, y)))]
    return np.stack(out, axis=-1)


def left_jacobian(law, x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    cols = _columns(x, y)
    jac = np.empty(np.broadcast(x, y).shape[:-1] + (law.n, law.n))
    jac[...] = np.eye(law.n)
    for (a, b), p in law.y_partials.items():
        jac[..., a, b] += as_callable(p)(cols)
    return jac


def coordinates(frame, x, v):
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    cols = _columns(x)
    lam = np.empty(np.broadcast(x, v).shape)
    lam[...] = v
    for l in range(frame.n):
        for j in range(l):
            p = frame.entries.get((l, j))
            if p is not None:
                lam[..., l] -= as_callable(p)(cols) * lam[..., j]
    return lam
