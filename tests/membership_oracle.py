"""The P of a curve's anchor table in plain Python floats, as a test oracle.

``HomogeneousDistance.membership`` compiles, per anchor table, a reach that
computes the membership polynomials P_k of an r-ball from the table's
coefficients, with every literal written in.  ``table_polys`` computes the
same P from ``law.divide_rows`` on ``curve._anchor_rows``, operation for
operation, with no generated text: tests hold the compiled reach to the
scalar bracket on these P, and these P to the gauge.
"""

from gradedgroups.curve import _anchor_rows


def table_polys(dist, pieces, d):
    """polys(m, u, w): for each layer k that z = x^-1 * y(s) touches on the
    table of offset d, the ascending coefficients of P_k(s).

    The anchor x lies u past the origin of piece m, and y(s) runs along
    piece m + d (``curve._anchor_rows``): for d < 0 a piece before the
    anchor's, the anchors then starting at piece -d.  w holds the ball's
    weights (``HomogeneousDistance.ball_weights``).  Each s-coefficient of each z_j
    is read by Horner in u, up to the last power of u nonzero on some
    piece.  The layer's squares z_i z_j, doubled where i != j, are summed
    left to right, coordinate by coordinate, times w[k], minus 1.  An
    s-coefficient zero on every piece is skipped, and so is the s^0 column
    at d = 0, where P_k(0) = -1 and P_k'(0) = 0 exactly.
    """
    count = len(pieces[2])
    anchors = range(max(0, -d), count - max(0, d))
    z = dist.law.divide_rows(*_anchor_rows(pieces, anchors, [m + d for m in anchors]))
    layers = []           # per layer, per coordinate, per power of s: its rows by piece, or None
    for sl in dist._slices:
        block = []
        for j in range(sl.start, sl.stop):
            used = z[j].any(axis=2).T.tolist()   # per power of s: nonzero on some piece, per u
            rows = []
            for b, col in enumerate(used):
                if not any(col) or (d == 0 and b == 0):
                    rows.append(None)
                    continue
                last = len(col) - 1 - col[::-1].index(True)
                rows.append(z[j][:last + 1, b].T.tolist())
            while rows and rows[-1] is None:
                rows.pop()
            if rows:
                block.append(rows)
        layers.append(block)

    def horner(c, u):
        value = c[-1]
        for a in range(len(c) - 2, -1, -1):
            value = c[a] + u * value
        return value

    def polys(m, u, w):
        u, out = float(u), []
        for k, block in enumerate(layers):
            if not block:
                continue
            zs = [[None if rows is None else horner(rows[m - anchors.start], u) for rows in coord]
                  for coord in block]
            p = []
            for b in range(2 * max(map(len, zs)) - 1):
                total = None
                for zc in zs:
                    for i in range(max(0, b + 1 - len(zc)), b // 2 + 1):
                        zi, zj = zc[i], zc[b - i]
                        if zi is None or zj is None:
                            continue
                        term = zi * zj if i == b - i else 2.0 * zi * zj
                        total = term if total is None else total + term
                if total is None:
                    p.append(-1.0 if b == 0 else 0.0)
                else:
                    p.append(w[k] * total - 1.0 if b == 0 else w[k] * total)
            out.append(p)
        return out

    return polys
