"""Infima of quadratic functions over the supported domains.

The public entry point is :func:`quadratic_infimum`; it checks dimensions
and calls :func:`quadratic_infimum_raw`, the only code that maps a domain
and a size to a kernel.  :func:`batch_infimum` has vectorized kernels for
the reals and the small orthant and hands every other item to the same
dispatcher, so all three entry points share one routing table:

* reals, any n: exact (eigendecomposition, pseudo-inverse stationary point
  or a ray of unbounded descent);
* nonnegative orthant: exact for a positive definite form at any n, and
  for any form up to ``N_ENUM_DEFAULT`` coordinates; past that cap a form
  that is not positive definite (or whose active set fails its check) gets
  a projected-descent value with ``exact=False``;
* unit sphere, any n: exact (secular equation);
* box: exact while the 3^n faces fit ``BOX_FACE_BUDGET`` (n <= 9); past
  that cap, the minimum over a regular grid of about
  ``GRID_FALLBACK_BUDGET`` points with ``exact=False``;
* finite point sets, any size: exact.

On the orthant a positive definite quadratic form takes an active-set
route: block principal pivoting (Judice-Pires 1994, with Murty's 1974
least-index rule as the finite fallback) on the linear complementarity
problem w = Ax + b >= 0, x >= 0, x.w = 0 proposes a support, and the
support is accepted only when the enumeration's own stationary-point kernel
reproduces a KKT point there (KKT is sufficient for global optimality when
A is positive definite).  Everything else on the orthant, and every support
that fails that check, uses facial enumeration.  Unboundedness over the
orthant is decided by the ray criterion for quadratics on polyhedra: the
infimum is -inf iff the quadratic form is not copositive on the orthant or
some nonnegative null direction of a principal submatrix has negative
linear term.

Batched variants rank many aggregates at once; items near a tolerance
boundary are flagged so callers can re-verify them with the scalar path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .errors import DimensionMismatchError, UnsupportedDomainError
from .quadratics import (
    PINV_CUTOFF,
    TOL_PSD,
    Box,
    Domain,
    FinitePointSet,
    NonnegOrthant,
    QuadraticFunction,
    Reals,
    UnitSphere,
)
from .sampling import grid_min, halton_points

N_ENUM_DEFAULT = 14
BOX_FACE_BUDGET = 20000
GRID_FALLBACK_BUDGET = 200000
_STATLOC_TOL = 1e-9  # slack for accepting a stationary point as feasible
_BLOCK_SWAP_TRIES = 3  # block swaps that do not shrink the infeasible set before single swaps
_PIVOTS_PER_DIM = 10  # the active-set loop gives up after this many pivots per coordinate


@dataclass(frozen=True, eq=False)
class InfimumResult:
    """Value (possibly -inf) of an infimum, with a witness when attained.

    ``direction`` carries a ray of unbounded descent when the value is -inf.
    ``exact`` is False only past a size cap (see the module docstring): an
    orthant form that is not positive definite beyond ``N_ENUM_DEFAULT``
    coordinates (projected descent), or a box beyond ``BOX_FACE_BUDGET``
    faces (grid minimum).  ``value`` is then attained but may lie above the
    infimum.  Every entry point applies the same caps.
    """

    value: float
    argmin: Optional[np.ndarray]
    exact: bool
    direction: Optional[np.ndarray] = None
    note: str = ""

    @property
    def is_finite(self) -> bool:
        return bool(np.isfinite(self.value))


def _eval_raw(a: np.ndarray, b: np.ndarray, c: float, x: np.ndarray) -> float:
    return float(0.5 * x @ a @ x + b @ x + c)


def _stationary_point(a: np.ndarray, b: np.ndarray):
    """Minimizer of 1/2 x^T A x + b^T x over R^s, or a ray of unbounded descent.

    Returns (x, None) when ``a`` is PSD and ``b`` lies in its range, x being
    the pseudo-inverse solution.  Otherwise returns (None, d) with d a unit
    direction along which the quadratic is unbounded below: the bottom
    eigenvector when ``a`` has a negative eigenvalue, else minus the part of
    ``b`` outside the range of ``a``.
    """
    w, v = np.linalg.eigh(a)
    wmax = np.abs(w).max()
    if w[0] < -TOL_PSD * (1.0 + wmax):
        return None, v[:, 0].copy()
    keep = w > PINV_CUTOFF * max(1.0, wmax)
    beta = v.T @ b
    outside = beta.copy()
    outside[keep] = 0.0
    if np.linalg.norm(outside) > PINV_CUTOFF * (1.0 + np.linalg.norm(b)):
        d = -(v @ outside)
        return None, d / np.linalg.norm(d)
    if not np.any(keep):
        return np.zeros(b.shape[0]), None
    return -(v[:, keep] @ (beta[keep] / w[keep])), None


# --------------------------------------------------------------------------
# Nonnegative orthant


def _subsets(n: int):
    for mask in range(1, 1 << n):
        yield np.array([i for i in range(n) if mask >> i & 1], dtype=int)


def _simplex_quadform_min(a: np.ndarray):
    """Exact minimum of d^T A d over the probability simplex.

    Enumerates supports; on each support the interior stationary point
    solves a bordered linear system.  Returns (value, argmin embedded in n).
    """
    n = a.shape[0]
    scale = 1.0 + np.abs(a).max()
    best_val, best_d = np.inf, None
    for idx in _subsets(n):
        s = len(idx)
        sub = a[np.ix_(idx, idx)]
        kkt = np.zeros((s + 1, s + 1))
        kkt[:s, :s] = 2.0 * sub
        kkt[:s, s] = -1.0
        kkt[s, :s] = 1.0
        rhs = np.zeros(s + 1)
        rhs[s] = 1.0
        sol, _, _, _ = np.linalg.lstsq(kkt, rhs, rcond=None)
        if np.linalg.norm(kkt @ sol - rhs) > 1e-9 * scale:
            continue
        d = sol[:s]
        if d.min() < -1e-12:
            continue
        d = np.maximum(d, 0.0)
        total = d.sum()
        if total <= 0:
            continue
        d = d / total
        val = float(d @ sub @ d)
        if val < best_val:
            best_val = val
            best_d = np.zeros(n)
            best_d[idx] = d
    return best_val, best_d


def _null_direction_lp(sub: np.ndarray, b_sub: np.ndarray, tol: float):
    """Most negative b·d over nonneg unit-sum null vectors of ``sub``.

    Returns the minimizing d when the LP value is below -tol, else None.
    """
    w, v = np.linalg.eigh(sub)
    cut = PINV_CUTOFF * max(1.0, np.abs(w).max())
    range_basis = v[:, np.abs(w) > cut]
    if range_basis.shape[1] == sub.shape[0]:
        return None
    s = sub.shape[0]
    a_eq = np.vstack([range_basis.T, np.ones((1, s))])
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[-1] = 1.0
    res = linprog(b_sub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        return None
    if res.fun < -tol:
        return np.maximum(res.x, 0.0)
    return None


def _positive_definite(w: np.ndarray) -> bool:
    """Whether ascending eigenvalues ``w`` clear the pseudo-inverse cutoff."""
    return bool(w[0] > PINV_CUTOFF * max(1.0, np.abs(w).max()))


def _kkt_tolerances(a: np.ndarray, b: np.ndarray, x: np.ndarray):
    """Slack on x >= 0 and, per coordinate, on (Ax + b) >= 0 at ``x``."""
    tol_x = _STATLOC_TOL * (1.0 + np.abs(x).max(initial=0.0))
    tol_w = _STATLOC_TOL * (1.0 + np.abs(a) @ np.abs(x) + np.abs(b))
    return tol_x, tol_w


def _orthant_active_set(a: np.ndarray, b: np.ndarray, c: float):
    """Exact orthant infimum of a positive definite form from a verified support.

    Block principal pivoting proposes the support F of the LCP solution: it
    swaps every infeasible index (x_i < 0 on F, w_i < 0 off F) at once, and
    after ``_BLOCK_SWAP_TRIES`` block swaps that do not shrink the
    infeasible set it swaps only the least such index (Murty's rule, finite
    for positive definite A).  The support is then re-solved with
    :func:`_stationary_point` and accepted only if x >= 0 on F and
    Ax + b >= 0 off F hold within tolerance.  Returns (value, argmin), or
    None when the loop hits its cap or the check fails.
    """
    n = b.shape[0]
    free = np.zeros(n, dtype=bool)
    best_count, tries = n + 1, _BLOCK_SWAP_TRIES
    for _ in range(_PIVOTS_PER_DIM * (n + 1)):
        x = np.zeros(n)
        if np.any(free):
            try:
                x[free] = np.linalg.solve(a[np.ix_(free, free)], -b[free])
            except np.linalg.LinAlgError:
                return None
        w = a @ x + b
        tol_x, tol_w = _kkt_tolerances(a, b, x)
        bad = np.where(free, x < -tol_x, w < -tol_w)
        count = int(bad.sum())
        if count == 0:
            break
        if count < best_count:
            best_count, tries = count, _BLOCK_SWAP_TRIES
            free ^= bad
        elif tries > 0:
            tries -= 1
            free ^= bad
        else:
            first = int(np.argmax(bad))
            free[first] = not free[first]
    else:
        return None

    x = np.zeros(n)
    if np.any(free):
        idx = np.where(free)[0]
        xh, _ = _stationary_point(a[np.ix_(idx, idx)], b[idx])
        if xh is None or xh.min() < -_STATLOC_TOL * (1.0 + np.abs(xh).max()):
            return None
        x[idx] = np.maximum(xh, 0.0)
    _, tol_w = _kkt_tolerances(a, b, x)
    w = a @ x + b
    if np.any(w[~free] < -tol_w[~free]):
        return None
    return _eval_raw(a, b, c, x), x


def _orthant_enumeration(a: np.ndarray, b: np.ndarray, c: float, w_full: np.ndarray):
    """Facial enumeration over all 2^n supports; ``w_full`` are A's eigenvalues."""
    n = b.shape[0]
    wmax = np.abs(w_full).max()
    scale_a = 1.0 + wmax
    tol_ray = max(TOL_PSD * (1.0 + np.linalg.norm(b)), 1e-12)
    a_psd = w_full[0] >= -TOL_PSD * scale_a

    if not a_psd:
        copo_min, copo_dir = _simplex_quadform_min(a)
        if copo_min < -TOL_PSD * scale_a:
            return -np.inf, None, copo_dir
        zero_dirs_possible = copo_min <= TOL_PSD * scale_a
        subset_nulls = True
    else:
        cut = PINV_CUTOFF * max(1.0, wmax)
        zero_dirs_possible = w_full[0] <= cut
        subset_nulls = False  # PSD: zero directions lie in the full null space

    if zero_dirs_possible:
        if subset_nulls:
            for idx in _subsets(n):
                d = _null_direction_lp(a[np.ix_(idx, idx)], b[idx], tol_ray)
                if d is not None:
                    full = np.zeros(n)
                    full[idx] = d
                    return -np.inf, None, full
        else:
            d = _null_direction_lp(a, b, tol_ray)
            if d is not None:
                return -np.inf, None, d

    best_val = c
    best_x = np.zeros(n)
    for idx in _subsets(n):
        xh, _ = _stationary_point(a[np.ix_(idx, idx)], b[idx])
        if xh is None or xh.min() < -_STATLOC_TOL * (1.0 + np.abs(xh).max()):
            continue
        x = np.zeros(n)
        x[idx] = np.maximum(xh, 0.0)
        val = _eval_raw(a, b, c, x)
        if val < best_val:
            best_val, best_x = val, x
    return best_val, best_x, None


def _orthant_descent(a: np.ndarray, b: np.ndarray, c: float):
    """Projected-gradient fallback for dimensions beyond the enumeration cap."""
    n = b.shape[0]
    lips = 1.0 + np.abs(np.linalg.eigvalsh(a)).max()
    starts = np.vstack([np.zeros((1, n)), halton_points(31, n) * 8.0])
    best_val, best_x = np.inf, None
    for x in starts:
        x = x.copy()
        for _ in range(300):
            g = a @ x + b
            x = np.maximum(x - g / lips, 0.0)
        val = _eval_raw(a, b, c, x)
        if val < best_val:
            best_val, best_x = val, x
    return best_val, best_x


# --------------------------------------------------------------------------
# Unit sphere


def _sphere_infimum(a: np.ndarray, b: np.ndarray, c: float):
    n = b.shape[0]
    if n == 1:
        lo = _eval_raw(a, b, c, np.array([-1.0]))
        hi = _eval_raw(a, b, c, np.array([1.0]))
        return (lo, np.array([-1.0])) if lo <= hi else (hi, np.array([1.0]))
    w, v = np.linalg.eigh(a)
    beta = v.T @ b
    bnorm = np.linalg.norm(b)
    scale = 1.0 + np.abs(w).max()
    if bnorm <= 1e-14 * scale:
        x = v[:, 0].copy()
        return _eval_raw(a, b, c, x), x
    lam0 = w[0]
    min_space = w <= lam0 + 1e-12 * scale
    beta_min_norm = np.linalg.norm(beta[min_space])

    def norm2_of_candidate(mu):
        denom = w + mu
        y = np.zeros_like(beta)
        nz = np.abs(denom) > 1e-300
        y[nz] = -beta[nz] / denom[nz]
        return float(y @ y), y

    if beta_min_norm <= 1e-12 * (1.0 + bnorm):
        # Hard case: the linear term has no component on the bottom eigenspace.
        denom = w[~min_space] + (-lam0)
        psi0 = float(np.sum((beta[~min_space] / denom) ** 2)) if denom.size else 0.0
        if psi0 <= 1.0:
            y = np.zeros_like(beta)
            y[~min_space] = -beta[~min_space] / denom
            tau = np.sqrt(max(0.0, 1.0 - psi0))
            first = int(np.argmax(min_space))
            y[first] = tau
            x = v @ y
            x = x / np.linalg.norm(x)
            return _eval_raw(a, b, c, x), x
    lo = -lam0
    hi = -lam0 + bnorm + 1.0
    while norm2_of_candidate(hi)[0] >= 1.0:
        hi = -lam0 + 2.0 * (hi + lam0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm2_of_candidate(mid)[0] > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * (1.0 + abs(hi)):
            break
    _, y = norm2_of_candidate(hi)
    ynorm = np.linalg.norm(y)
    if ynorm <= 1e-300:  # pragma: no cover - guarded by the hard case above
        y = np.zeros_like(beta)
        y[0] = 1.0
        ynorm = 1.0
    x = v @ (y / ynorm)
    return _eval_raw(a, b, c, x), x


# --------------------------------------------------------------------------
# Box


def _box_infimum(a: np.ndarray, b: np.ndarray, c: float, box: Box):
    n = b.shape[0]
    if 3**n > BOX_FACE_BUDGET:
        return _box_grid_descent(a, b, c, box)
    lo, hi = box.lo, box.hi
    best_val, best_x = np.inf, None
    for states in itertools.product((0, 1, 2), repeat=n):
        states = np.array(states)
        free = np.where(states == 2)[0]
        x = np.where(states == 0, lo, hi).astype(float)
        x[free] = 0.0
        if free.size == 0:
            val = _eval_raw(a, b, c, x)
            if val < best_val:
                best_val, best_x = val, x
            continue
        fixed = np.where(states != 2)[0]
        sub = a[np.ix_(free, free)]
        b_red = b[free] + (a[np.ix_(free, fixed)] @ x[fixed] if fixed.size else 0.0)
        xh, _ = _stationary_point(sub, b_red)
        if xh is None:
            continue
        slack = _STATLOC_TOL * (1.0 + np.abs(xh).max())
        if np.any(xh < lo[free] - slack) or np.any(xh > hi[free] + slack):
            continue
        x[free] = np.clip(xh, lo[free], hi[free])
        val = _eval_raw(a, b, c, x)
        if val < best_val:
            best_val, best_x = val, x
    return best_val, best_x, True


def _box_grid_descent(a: np.ndarray, b: np.ndarray, c: float, box: Box):
    """Minimum over a regular grid of about ``GRID_FALLBACK_BUDGET`` points."""
    res = max(3, int(round(GRID_FALLBACK_BUDGET ** (1.0 / b.shape[0]))))
    val, x = grid_min(lambda p: 0.5 * np.einsum("ki,ij,kj->k", p, a, p) + p @ b + c, box, res)
    return val, x, False


# --------------------------------------------------------------------------
# Public entry points


def quadratic_infimum(q: QuadraticFunction, dom: Domain) -> InfimumResult:
    """Infimum of ``q`` over ``dom``, with an argmin witness when attained."""
    if q.dim != dom.dim:
        raise DimensionMismatchError(
            f"function dimension {q.dim} does not match domain dimension {dom.dim}"
        )
    return quadratic_infimum_raw(q.a.entries, q.b, q.c, dom)


def quadratic_infimum_raw(a: np.ndarray, b: np.ndarray, c: float, dom: Domain) -> InfimumResult:
    """Infimum from raw coefficient arrays (no validation); the routing table.

    Every entry point of this module reaches its kernel through here, so
    the size caps of the module docstring are the same everywhere.
    """
    if isinstance(dom, Reals):
        x, d = _stationary_point(a, b)
        if x is None:
            return InfimumResult(-np.inf, None, True, d)
        return InfimumResult(c + 0.5 * float(b @ x), x, True)
    if isinstance(dom, NonnegOrthant):
        w_full = np.linalg.eigvalsh(a)
        if _positive_definite(w_full):
            found = _orthant_active_set(a, b, c)
            if found is not None:
                return InfimumResult(found[0], found[1], True)
        if dom.dim <= N_ENUM_DEFAULT:
            val, x, d = _orthant_enumeration(a, b, c, w_full)
            return InfimumResult(val, x, True, d)
        val, x = _orthant_descent(a, b, c)
        return InfimumResult(val, x, False, note="approximate (projected descent)")
    if isinstance(dom, UnitSphere):
        val, x = _sphere_infimum(a, b, c)
        return InfimumResult(val, x, True)
    if isinstance(dom, Box):
        val, x, exact = _box_infimum(a, b, c, dom)
        return InfimumResult(val, x, exact, note="" if exact else "approximate (grid)")
    if isinstance(dom, FinitePointSet):
        pts = dom.points
        vals = 0.5 * np.einsum("ki,ij,kj->k", pts, a, pts) + pts @ b + c
        i = int(np.argmin(vals))
        return InfimumResult(float(vals[i]), pts[i].copy(), True)
    raise UnsupportedDomainError(f"unsupported domain {type(dom).__name__}")


# --------------------------------------------------------------------------
# Batched rankings (values only; callers re-verify winners with the scalar path)


def batch_real_infimum(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Values of inf over R^n for stacked quadratics; returns (values, flags).

    ``flags`` marks items whose classification sits near a tolerance
    boundary and should be re-verified by :func:`quadratic_infimum`.
    """
    w, v = np.linalg.eigh(a)
    wmax = np.abs(w).max(axis=1)
    scale = 1.0 + wmax
    psd = w[:, 0] >= -TOL_PSD * scale
    cut = PINV_CUTOFF * np.maximum(1.0, wmax)
    keep = w > cut[:, None]
    beta = np.einsum("kij,ki->kj", v, b)
    out2 = np.sum(np.where(keep, 0.0, beta) ** 2, axis=1)
    bnorm = np.linalg.norm(b, axis=1)
    range_thresh = (PINV_CUTOFF * (1.0 + bnorm)) ** 2
    in_range = out2 <= range_thresh
    inv_w = np.where(keep, np.divide(1.0, w, out=np.zeros_like(w), where=keep), 0.0)
    xstar = -np.einsum("kij,kj->ki", v, beta * inv_w)
    vals = c + 0.5 * np.sum(b * xstar, axis=1)
    values = np.where(psd & in_range, vals, -np.inf)
    deg_psd = np.abs(w[:, 0]) <= 10.0 * TOL_PSD * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = out2 / np.maximum(range_thresh, 1e-300)
    deg_range = (ratio > 1e-2) & (ratio < 1e2)
    return values, deg_psd | deg_range


def batch_orthant_infimum(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Orthant analogue of :func:`batch_real_infimum`; returns (values, flags)."""
    k, n = b.shape
    w_full = np.linalg.eigvalsh(a)
    wmax = np.abs(w_full).max(axis=1)
    scale = 1.0 + wmax
    psd_full = w_full[:, 0] >= -TOL_PSD * scale
    cut_full = PINV_CUTOFF * np.maximum(1.0, wmax)
    flags = psd_full & (w_full[:, 0] <= cut_full)  # singular PSD: null rays need the LP
    values = c.astype(float).copy()

    for idx in _subsets(n):
        sub = a[:, idx][:, :, idx]
        b_sub = b[:, idx]
        ws, vs = np.linalg.eigh(sub)
        ws_max = np.abs(ws).max(axis=1)
        sub_scale = 1.0 + ws_max
        pd = ws[:, 0] > TOL_PSD * sub_scale
        flags |= (ws[:, 0] >= -TOL_PSD * sub_scale) & ~pd
        if not np.any(pd):
            continue
        xh = np.linalg.solve(sub[pd], -b_sub[pd][..., None])[..., 0]
        ok = xh.min(axis=1) >= -_STATLOC_TOL * (1.0 + np.abs(xh).max(axis=1))
        val = c[pd] + 0.5 * np.sum(b_sub[pd] * xh, axis=1)
        val = np.where(ok, val, np.inf)
        values[pd] = np.minimum(values[pd], val)

    nonpsd = ~psd_full
    if np.any(nonpsd):
        copo = np.full(k, np.inf)
        sel = np.where(nonpsd)[0]
        for idx in _subsets(n):
            s = len(idx)
            sub = a[np.ix_(sel, idx, idx)]
            kkt = np.zeros((sel.size, s + 1, s + 1))
            kkt[:, :s, :s] = 2.0 * sub
            kkt[:, :s, s] = -1.0
            kkt[:, s, :s] = 1.0
            rhs = np.zeros(s + 1)
            rhs[s] = 1.0
            det = np.linalg.det(kkt)
            solvable = np.abs(det) > 1e-10 * (1.0 + np.abs(sub).max(axis=(1, 2))) ** s
            flags[sel[~solvable]] = True
            if not np.any(solvable):
                continue
            rhs_stack = np.broadcast_to(rhs[:, None], (s + 1, 1)).copy()
            sol = np.linalg.solve(kkt[solvable], rhs_stack)[..., 0]
            d = sol[:, :s]
            feas = d.min(axis=1) >= -1e-12
            qf = np.einsum("ki,kij,kj->k", d, sub[solvable], d)
            qf = np.where(feas, qf, np.inf)
            target = copo[sel[solvable]]
            copo[sel[solvable]] = np.minimum(target, qf)
        unbounded = copo < -TOL_PSD * scale
        flags |= np.abs(copo) <= TOL_PSD * scale
        values[unbounded] = -np.inf
    return values, flags


def batch_infimum(a: np.ndarray, b: np.ndarray, c: np.ndarray, dom: Domain):
    """Infimum values of stacked quadratics over ``dom``; (values, flags).

    The reals and the orthant up to ``N_ENUM_DEFAULT`` coordinates have
    vectorized kernels; every other item goes through
    :func:`quadratic_infimum_raw` and is never flagged.
    """
    if isinstance(dom, Reals):
        return batch_real_infimum(a, b, c)
    if isinstance(dom, NonnegOrthant) and dom.dim <= N_ENUM_DEFAULT:
        return batch_orthant_infimum(a, b, c)
    values = np.empty(len(c))
    for i in range(len(c)):
        values[i] = quadratic_infimum_raw(a[i], b[i], float(c[i]), dom).value
    return values, np.zeros(len(c), dtype=bool)
