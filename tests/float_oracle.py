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

The gauge of a distance is text too (:func:`gauge_source`), as the
distance kernel once generated it; :func:`distance` is that gauge of
``multiply(law, -x, y)``, and tests hold ``HomogeneousDistance.distance``,
``norm`` and the audit's ``_pair`` to it bit for bit.
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


def gauge_source(dist, var):
    """Source text of the layer-max gauge of ``dist`` on the columns ``var[j]``:
    per layer k, |z_j| for a layer of one coordinate, else the sqrt of the sum
    of its squares, then sqrt again for k = 2 and ** (1/k) from k = 3, times
    eps_k unless it is 1, the layers nested in ``np.maximum`` from the first."""
    terms = []
    for k, (e, sl) in enumerate(zip(dist.eps, dist._slices), start=1):
        cols = [f"{var}[{j}]" for j in range(sl.start, sl.stop)]
        mag = (f"np.abs({cols[0]})" if len(cols) == 1
               else f"np.sqrt({' + '.join(f'{c} * {c}' for c in cols)})")
        root = mag if k == 1 else f"np.sqrt({mag})" if k == 2 else f"{mag} ** {1.0 / k!r}"
        terms.append(root if e == 1.0 else f"{e!r} * {root}")
    gauge = terms[0]
    for term in terms[1:]:
        gauge = f"np.maximum({gauge}, {term})"
    return gauge


def norm(dist, z):
    gauge = eval(f"lambda v: {gauge_source(dist, 'v')}", {"np": np})  # noqa: S307 - our own text
    return gauge(_columns(np.asarray(z, dtype=float)))


def distance(dist, x, y):
    return norm(dist, multiply(dist.law, -np.asarray(x, dtype=float), y))
