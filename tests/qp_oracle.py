"""Exact test oracle for small quadratic programs, numpy only.

Shared by the QP unit tests and the acceptance suite; it depends on no
third-party optimizer and on no success flag.
"""

import itertools

import numpy as np
from numpy.polynomial import polynomial as npoly

from gordankit import NonnegOrthant


def active_set_oracle(p):
    """Exact minimum of a QP with strictly convex objective and n <= 2.

    Orthant bounds count as constraints -x_i <= 0.  The global minimiser
    exists and satisfies the Fritz John conditions, so it is among: the
    unconstrained stationary point; for n = 1, the roots of each constraint;
    for n = 2, the points of each constraint curve g = 0 where
    det[grad f, grad g] = 0 (one active constraint, or a singular point of
    g), and the pairwise intersections of the constraint curves.  The oracle
    is the least objective value over the candidates feasible to 1e-9; any
    feasible candidate is an upper bound, so none can undercut the optimum.
    """
    n = p.objective.dim
    a, b, c = p.objective.a.entries, p.objective.b, p.objective.c
    quads = [(q.a.entries, q.b, q.c) for q in p.constraints.members]
    if isinstance(p.domain, NonnegOrthant):
        quads += [(np.zeros((n, n)), -np.eye(n)[i], 0.0) for i in range(n)]
    cands = [np.linalg.solve(a, -b)]
    if n == 1:
        for qa, qb, qc in quads:
            cands += [np.array([r]) for r in _real_roots([qc, qb[0], 0.5 * qa[0, 0]])]
    else:
        curves = [_conic(0.5 * qa, qb, qc) for qa, qb, qc in quads]
        for (qa, qb, _), g in zip(quads, curves):
            # det[a z + b, qa z + qb], zero where grad f and grad g are parallel.
            parallel = _conic(np.outer(a[0], qa[1]) - np.outer(a[1], qa[0]),
                              b[0] * qa[1] + qb[1] * a[0] - b[1] * qa[0] - qb[0] * a[1],
                              b[0] * qb[1] - b[1] * qb[0])
            cands += _conic_intersections(g, parallel)
        for g, h in itertools.combinations(curves, 2):
            cands += _conic_intersections(g, h)
    best = np.inf
    for x in cands:
        if max(0.5 * x @ qa @ x + qb @ x + qc for qa, qb, qc in quads) <= 1e-9:
            best = min(best, float(0.5 * x @ a @ x + b @ x + c))
    return best


def _real_roots(coef):
    """Real roots of a univariate polynomial, coefficients low to high."""
    r = npoly.polyroots(np.asarray(coef, dtype=float))
    return r.real[np.abs(r.imag) <= 1e-7 * (1.0 + np.abs(r))]


def _conic(m, l, k):
    """Coefficients C[i, j] of x**i * y**j for the plane conic z'mz + l'z + k."""
    return np.array([[k, l[1], m[1, 1]],
                     [l[0], m[0, 1] + m[1, 0], 0.0],
                     [m[0, 0], 0.0, 0.0]])


def _conic_intersections(p, q):
    """Real common zeros of two plane conics (coefficient arrays of _conic).

    Eliminates y with the Sylvester resultant at the true y-degrees; if that
    vanishes identically, x and y are swapped.  If it still vanishes the
    conics share a component and the intersection is not finite: raise.
    """
    scales = [np.abs(s).max() for s in (p, q)]
    if min(scales) == 0.0:
        raise ValueError("a conic vanishes identically; the intersection is not finite")
    p, q = (np.where(np.abs(s) <= 1e-13 * m, 0.0, s / m) for s, m in zip((p, q), scales))
    for swapped in (False, True):
        pp, qq = (p.T, q.T) if swapped else (p, q)
        res = _resultant_in_y(pp, qq)
        if res is None:
            continue
        pts = []
        for x0 in _real_roots(res):
            ys = [y for s in (pp, qq) for y in _real_roots([npoly.polyval(x0, s[:, j])
                                                            for j in range(3)])]
            pts += [_newton_polish(pp, qq, np.array([x0, y])) for y in ys]
        pts = [pt for pt in pts if np.abs(_residual(pp, qq, pt)).max() <= 1e-9]
        return [pt[::-1] for pt in pts] if swapped else pts
    raise ValueError("conics share a component; the intersection is not finite")


def _resultant_in_y(p, q):
    """Sylvester resultant of p and q in y, a polynomial in x (coefficients
    low to high), or None if it vanishes identically."""
    deg = [max((j for j in range(3) if s[:, j].any()), default=-1) for s in (p, q)]
    size = sum(deg)
    if size == 0:
        return None
    zero = np.zeros(1)
    rows = []
    for s, d, shifts in ((p, deg[0], deg[1]), (q, deg[1], deg[0])):
        for k in range(shifts):
            row = [zero] * size
            for j in range(d + 1):
                row[k + d - j] = s[:, j]
            rows.append(row)
    res = _poly_det(rows)
    return None if np.abs(res).max() <= 1e-10 else res


def _poly_det(rows):
    """Determinant of a square matrix of univariate polynomials."""
    if len(rows) == 1:
        return rows[0][0]
    det = np.zeros(1)
    for k, entry in enumerate(rows[0]):
        minor = _poly_det([row[:k] + row[k + 1:] for row in rows[1:]])
        det = npoly.polyadd(det, (-1) ** k * npoly.polymul(entry, minor))
    return det


def _residual(p, q, z):
    return np.array([npoly.polyval2d(z[0], z[1], s) for s in (p, q)])


def _newton_polish(p, q, pt, steps=8):
    """Newton steps on p = q = 0, each kept only if it shrinks the residual."""
    grads = [(npoly.polyder(s, axis=0), npoly.polyder(s, axis=1)) for s in (p, q)]
    for _ in range(steps):
        r = _residual(p, q, pt)
        jac = np.array([[npoly.polyval2d(pt[0], pt[1], d) for d in g] for g in grads])
        nxt = pt - np.linalg.lstsq(jac, r, rcond=None)[0]
        if not np.abs(_residual(p, q, nxt)).max() < np.abs(r).max():
            break
        pt = nxt
    return pt
