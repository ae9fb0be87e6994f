"""Fenchel conjugates of quadratics and of suprema of quadratic families.

The conjugate of a single quadratic has a closed form through the
eigenvalue-thresholded pseudo-inverse.  The conjugate of a supremum is
evaluated as min_t (sum_j t_j q_j)*(y) = -max_t inf_x sum_j t_j (q_j(x) - y.x),
the certificate search's maximization on the tilted family {q_j - y.x};
by weak duality each aggregate conjugate bounds (max_j q_j)*(y) from above.
A brute-force grid oracle gives a lower bound for comparison.  Infinite
values are tagged, never encoded as sentinel floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import EngineConfig, _maximize_infimum, _minimax_1d
from .errors import DimensionMismatchError
from .infimum import _simplex_quadform_min, quadratic_infimum
from .quadratics import (
    Box,
    QuadraticFamily,
    QuadraticFunction,
    Reals,
    SimplexWeight,
    aggregate,
    is_psd,
)
from .sampling import grid_points, shared_simplex_lattice
from .zmatrix import z_family_report

DEFAULT_BOX_HALFWIDTH = 8.0
MAX_BOX_DOUBLINGS = 3


@dataclass(frozen=True, eq=False)
class ConjugateValue:
    """A conjugate value: finite with an argsup witness, or +inf with a
    certifying direction of unbounded growth."""

    is_finite: bool
    value: Optional[float] = None
    argsup: Optional[np.ndarray] = None
    direction: Optional[np.ndarray] = None

    @staticmethod
    def finite(value: float, argsup: np.ndarray) -> "ConjugateValue":
        return ConjugateValue(True, float(value), argsup)

    @staticmethod
    def infinite(direction: Optional[np.ndarray]) -> "ConjugateValue":
        return ConjugateValue(False, None, None, direction)

    def as_float(self) -> float:
        return self.value if self.is_finite else math.inf

    def __repr__(self):
        if self.is_finite:
            return f"ConjugateValue({self.value!r})"
        return "ConjugateValue(+inf)"


def conjugate_quadratic(q: QuadraticFunction, y) -> ConjugateValue:
    """The Fenchel conjugate sup_x (y.x - q(x)) of a quadratic, in closed form.

    Finite exactly when A is positive semidefinite and y - b lies in its
    range; the witness is the maximizing point.  Otherwise +inf, with the
    certifying direction along which y.x - q(x) grows without bound.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != q.dim:
        raise DimensionMismatchError("argument dimension does not match the function")
    flipped = QuadraticFunction(q.a, q.b - y, q.c)
    res = quadratic_infimum(flipped, Reals(q.dim))
    if not res.is_finite:
        return ConjugateValue.infinite(res.direction)
    return ConjugateValue.finite(-res.value, res.argmin)


@dataclass(frozen=True, eq=False)
class ConjugateSupResult:
    value: ConjugateValue
    t: SimplexWeight
    z_route: bool
    convex_route: bool
    lattice_resolution: int


def conjugate_sup_min(fam: QuadraticFamily, y, cfg: EngineConfig) -> ConjugateSupResult:
    """min over simplex weights of the aggregate's conjugate at ``y``.

    The search starts from a lattice of resolution at most 64; the value is
    the closed-form conjugate of the aggregate at the weight it returns.
    Under the applicability hypothesis (the shifted family is infsup-convex,
    automatic for all-convex members, or for bordered-Z families with
    nonnegative ``y``), this minimum equals the conjugate of the pointwise
    supremum.  The hypothesis is the caller's responsibility; the result
    records which route, if any, the data satisfies.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != fam.dim:
        raise DimensionMismatchError("argument dimension does not match the family")
    z_route = bool(z_family_report(fam).family_is_z and y.min() >= 0.0)
    convex_route = all(is_psd(q.a) for q in fam.members)

    r = min(cfg.simplex_grid_resolution, 64)
    tilted = QuadraticFamily(tuple(QuadraticFunction(q.a, q.b - y, q.c) for q in fam.members))
    t, _ = _maximize_infimum(tilted, Reals(fam.dim), shared_simplex_lattice(fam.size, r),
                             stop_at=math.inf)

    weight = SimplexWeight(t)
    value = conjugate_quadratic(aggregate(fam, t), y)
    if not value.is_finite:
        # One aggregate's direction of growth does not certify the supremum's.
        value = ConjugateValue.infinite(None)
    return ConjugateSupResult(value, weight, z_route, convex_route, r)


@dataclass(frozen=True, eq=False)
class BruteConjugate:
    value: float
    argmax: np.ndarray
    box: Box
    doublings: int
    boundary_hit: bool


def brute_conjugate_sup(fam: QuadraticFamily, y, box: Optional[Box] = None,
                        resolution: int = 129) -> BruteConjugate:
    """Grid maximum of y.x - max_j q_j(x), refined by local grid ascent.

    A lower bound on the conjugate of the supremum; the box doubles (up to
    three times) while the argmax sits on the boundary, so non-attained
    suprema are surfaced by the ``boundary_hit`` flag instead of being
    silently truncated.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != fam.dim:
        raise DimensionMismatchError("argument dimension does not match the family")
    n = fam.dim
    if box is None:
        box = Box(np.full(n, -DEFAULT_BOX_HALFWIDTH), np.full(n, DEFAULT_BOX_HALFWIDTH))
    if box.dim != n:
        raise DimensionMismatchError("box dimension does not match the family")

    def g(points: np.ndarray) -> np.ndarray:
        return points @ y - fam.eval_members(points).max(axis=0)

    doublings = 0
    while True:
        budget_axis = max(9, int(200000 ** (1.0 / n)))
        res_axis = max(3, min(resolution, budget_axis)) if n > 1 else max(3, resolution)
        pts = grid_points(box, res_axis)
        vals = g(pts)
        idx = int(np.argmax(vals))
        x = pts[idx].copy()
        spacing = (box.hi - box.lo) / (res_axis - 1)
        on_boundary = bool(np.any(x <= box.lo + 0.5 * spacing) or np.any(x >= box.hi - 0.5 * spacing))
        if not on_boundary:
            # Zoom around the incumbent, then min-norm supergradient ascent
            # with exact line search; coordinate moves alone stall on
            # slanted ridges of g.
            incumbent = float(vals[idx])
            span = spacing.copy()
            for _zoom in range(2):
                lo_z = np.maximum(box.lo, x - 4.0 * span)
                hi_z = np.minimum(box.hi, x + 4.0 * span)
                res_z = max(3, min(33, int(50000 ** (1.0 / n))))
                zpts = grid_points(Box(lo_z, hi_z), res_z)
                zvals = g(zpts)
                zi = int(np.argmax(zvals))
                if zvals[zi] > incumbent:
                    incumbent = float(zvals[zi])
                    x = zpts[zi].copy()
                span = (hi_z - lo_z) / (res_z - 1)
            x, best = _piecewise_ascent(fam, y, x, box)
            eps = 1e-9 * (box.hi - box.lo)
            on_boundary = bool(np.any(x <= box.lo + eps) or np.any(x >= box.hi - eps))
            if not on_boundary or doublings >= MAX_BOX_DOUBLINGS:
                return BruteConjugate(best, x, box, doublings, on_boundary)
        elif doublings >= MAX_BOX_DOUBLINGS:
            x, best = _piecewise_ascent(fam, y, x, box)
            return BruteConjugate(best, x, box, doublings, True)
        center = 0.5 * (box.lo + box.hi)
        half = box.hi - box.lo  # doubled halfwidth
        box = Box(center - half, center + half)
        doublings += 1


def _line_span(x: np.ndarray, d: np.ndarray, box: Box):
    tlo, thi = -np.inf, np.inf
    for k in range(len(x)):
        if d[k] > 1e-300:
            thi = min(thi, (box.hi[k] - x[k]) / d[k])
            tlo = max(tlo, (box.lo[k] - x[k]) / d[k])
        elif d[k] < -1e-300:
            thi = min(thi, (box.lo[k] - x[k]) / d[k])
            tlo = max(tlo, (box.hi[k] - x[k]) / d[k])
    return tlo, thi


def _piecewise_ascent(fam: QuadraticFamily, y: np.ndarray, x0: np.ndarray, box: Box,
                      iters: int = 200):
    """Maximize g(x) = y.x - max_j q_j(x) inside a box.

    Direction: the minimum-norm element of the convex hull of active-piece
    gradients of g (exact via quadratic-over-simplex minimization); step:
    exact 1-D minimax line search.  Finishes with coordinate sweeps.
    """
    a_s, b_s, _ = fam.coefficient_stacks()
    n = x0.shape[0]
    x = x0.copy()

    def g_at(pt):
        return float(pt @ y - fam.eval_members(pt.reshape(1, -1)).max())

    def line_max(d):
        dn = np.linalg.norm(d)
        if dn <= 1e-14 * (1.0 + np.linalg.norm(y)):
            return None
        d = d / dn
        alpha = 0.5 * np.einsum("i,mij,j->m", d, a_s, d)
        beta = np.einsum("mij,j->mi", a_s, x)[:, :] @ d + b_s @ d - y @ d
        vals_x = fam.eval_members(x.reshape(1, -1))[:, 0]
        gamma = vals_x - x @ y
        tlo, thi = _line_span(x, d, box)
        theta, val, unbounded = _minimax_1d(alpha, beta, gamma, tlo, thi)
        if unbounded:  # box is bounded; cannot happen
            return None
        return theta * d, -val

    best = g_at(x)
    for _ in range(iters):
        vals_x = fam.eval_members(x.reshape(1, -1))[:, 0]
        fx = vals_x.max()
        act = np.where(vals_x >= fx - 1e-7 * (1.0 + abs(fx)))[0]
        grads = y - (np.einsum("mij,j->mi", a_s[act], x) + b_s[act])
        if len(act) == 1:
            d = grads[0]
        else:
            _, tmin = _simplex_quadform_min(grads @ grads.T)
            d = tmin @ grads if tmin is not None else grads[0]
        step = line_max(d)
        if step is None:
            break
        move, val = step
        if val <= best + 1e-14 * (1.0 + abs(best)):
            break
        x = np.clip(x + move, box.lo, box.hi)
        best = val
    # Coordinate cleanup sweeps.
    for _ in range(6):
        improved = False
        for k in range(n):
            d = np.zeros(n)
            d[k] = 1.0
            step = line_max(d)
            if step is None:
                continue
            move, val = step
            if val > best + 1e-15 * (1.0 + abs(best)):
                x = np.clip(x + move, box.lo, box.hi)
                best = val
                improved = True
        if not improved:
            break
    return x, best
