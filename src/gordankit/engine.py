"""The Gordan-type alternative engine for finite quadratic families.

Given a family {q_1, ..., q_m} and a feasible set X, exactly one of the
following holds for infsup-convex families: (a1) some x in X has
sup_j q_j(x) < alpha, or (a2) some simplex weight t has
inf_X sum_j t_j q_j >= alpha.  On any family weak duality,
inf_X sum_j t_j q_j <= sum_j t_j q_j(x) <= max_j q_j(x) for every x in X
and every t, keeps the two apart.  Reported margins and infima are relative
to the level alpha.

One decision sequence (:func:`_decide`) serves :func:`decide_alternative`
and the QP level tests: a feasible search, a certificate search, and a
second feasible search seeded at the aggregate's argmin, which runs only
when the certificate search returned one.  It reports a feasible point, a
certificate, or an explicit indeterminate band when neither search clears
its threshold.

The certificate search stops at the first certifying weight: it tries the
barycentre 1/m, then refines the best weight of a simplex lattice pairwise
(:func:`_maximize_infimum`, which also evaluates conjugates of suprema).
Every certificate rests on one exact infimum at the reported weight.

Searches are deterministic: identical inputs and seed give identical
outcomes byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.optimize import linprog

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    UnsupportedDomainError,
)
from .infimum import InfimumResult, batch_infimum, quadratic_infimum, quadratic_infimum_raw
from .quadratics import (
    Box,
    Domain,
    FinitePointSet,
    NonnegOrthant,
    QuadraticFamily,
    QuadraticFunction,
    Reals,
    SimplexWeight,
    SymMatrix,
    UnitSphere,
    aggregate,
    project_onto,
    sym_eigen,
)
from .sampling import halton_points, shared_simplex_lattice, sphere_sample

SEARCH_BOX_HALFWIDTH = 8.0
LATTICE_SOFT_BUDGET = 250_000
LATTICE_BLOCK = 4096  # lattice weights aggregated and ranked per batch call
GOLDEN_ITERS = 60  # golden-section steps per 1-D maximization


@dataclass(frozen=True)
class EngineConfig:
    """Search budgets, tolerances, and the decision level alpha."""

    simplex_grid_resolution: int = 32
    multistart_count: int = 64
    refine_iters: int = 200
    tol_cert: float = 1e-8
    delta_strict: float = 1e-7
    tol_band: float = 1e-6
    seed: int = 0
    alpha: float = 0.0

    def __post_init__(self):
        if min(self.simplex_grid_resolution, self.multistart_count, self.refine_iters) < 1:
            raise ValueError("resolutions and counts must be positive")
        if min(self.tol_cert, self.delta_strict, self.tol_band) <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class FeasiblePoint:
    """Alternative (a1): a point with sup_j q_j(x) - alpha = margin < 0."""

    x: np.ndarray
    margin: float


@dataclass(frozen=True, eq=False)
class Certificate:
    """Alternative (a2): simplex multipliers whose aggregate has inf - alpha >= 0."""

    weights: SimplexWeight
    inf_value: float


@dataclass(frozen=True, eq=False)
class Indeterminate:
    """Neither search cleared its threshold; carries both near-witnesses."""

    best_point: Optional[np.ndarray]
    best_sup: float
    best_weight: SimplexWeight
    best_inf: float


AlternativeOutcome = Union[FeasiblePoint, Certificate, Indeterminate]


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Outcome of testing both alternatives independently at one level."""

    alpha: float
    a1_holds: bool
    a2_holds: bool
    feasible_point: Optional[np.ndarray]
    feasible_margin: float
    certificate_weight: SimplexWeight
    certificate_inf: float
    exhaustive: bool

    @property
    def verdict(self) -> str:
        if self.a1_holds:
            return "a1"
        if self.a2_holds:
            return "a2"
        return "both-fail"


# --------------------------------------------------------------------------
# Aggregate helpers


def _aggregate_stacks(fam: QuadraticFamily, weights: np.ndarray):
    a_s, b_s, c_s = fam.coefficient_stacks()
    m, n, _ = a_s.shape
    return (
        (weights @ a_s.reshape(m, -1)).reshape(-1, n, n),
        weights @ b_s,
        weights @ c_s,
    )


def _aggregate_infimum(fam: QuadraticFamily, t: np.ndarray, dom: Domain) -> InfimumResult:
    a_s, b_s, c_s = fam.coefficient_stacks()
    a = np.einsum("m,mij->ij", t, a_s)
    return quadratic_infimum_raw((a + a.T) / 2.0, t @ b_s, float(t @ c_s), dom)


def _aggregate_inf_scalar(fam: QuadraticFamily, t: np.ndarray, dom: Domain) -> float:
    return _aggregate_infimum(fam, t, dom).value


def _effective_resolution(m: int, resolution: int) -> int:
    if m <= 1:
        return 1
    r = resolution
    while r > 2 and math.comb(r + m - 1, m - 1) > LATTICE_SOFT_BUDGET:
        r = max(2, r // 2)
    return r


# --------------------------------------------------------------------------
# Feasible-point search


def _anchor_points(dom: Domain, n: int) -> np.ndarray:
    eye = np.eye(n)
    if isinstance(dom, UnitSphere):
        pts = np.vstack([eye, -eye, np.ones((1, n)) / np.sqrt(n)])
    elif isinstance(dom, Box):
        mid = 0.5 * (dom.lo + dom.hi)
        pts = np.vstack([mid, dom.lo, dom.hi, np.atleast_2d(mid) + eye * 0.25 * (dom.hi - dom.lo)])
    else:
        pts = np.vstack([np.zeros((1, n)), eye, -eye, np.ones((1, n))])
    return project_onto(dom, pts)


def _start_points(dom: Domain, n: int, cfg: EngineConfig, extra: Optional[np.ndarray]) -> np.ndarray:
    raw = halton_points(cfg.multistart_count, n)
    if isinstance(dom, Box):
        starts = dom.lo + raw * (dom.hi - dom.lo)
    else:
        starts = (2.0 * raw - 1.0) * SEARCH_BOX_HALFWIDTH
    pieces = [_anchor_points(dom, n), project_onto(dom, starts)]
    if isinstance(dom, UnitSphere):
        pieces.append(sphere_sample(n, cfg.multistart_count, cfg.seed))
    if extra is not None and len(extra):
        pieces.append(project_onto(dom, np.atleast_2d(extra)))
    return np.vstack(pieces)


def _subgradient_descent(fam: QuadraticFamily, dom: Domain, starts: np.ndarray, iters: int):
    a_s, b_s, c_s = fam.coefficient_stacks()
    rows = np.arange(starts.shape[0])

    def members(x):
        ax = x @ a_s  # (m, k, n): A_j x for every member and start, shared by values and gradients
        return 0.5 * (ax * x).sum(axis=2) + b_s @ x.T + c_s[:, None], ax

    x = starts.copy()
    vals, ax = members(x)
    phi = vals.max(axis=0)
    k_best = int(np.argmin(phi))
    best_phi, best_x = float(phi[k_best]), x[k_best].copy()
    step0 = 2.0
    for k in range(1, iters + 1):
        active = np.argmax(vals, axis=0)  # ties break to the lowest member index
        g = ax[active, rows] + b_s[active]
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        x = project_onto(dom, x - (step0 / k) * g / np.maximum(norms, 1e-30))
        vals, ax = members(x)
        phi = vals.max(axis=0)
        k_best = int(np.argmin(phi))
        if phi[k_best] < best_phi:
            best_phi, best_x = float(phi[k_best]), x[k_best].copy()
    return best_x, best_phi


def _minimax_1d(alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray, lo: float, hi: float):
    """Exact minimum of max_i(alpha_i t^2 + beta_i t + gamma_i) over [lo, hi].

    Returns (t, value, unbounded); when unbounded, t is a direction sign.
    """
    scale = 1.0 + max(np.abs(alpha).max(), np.abs(beta).max())
    tiny = 1e-13 * scale
    amax = alpha.max()
    if hi == np.inf:
        if amax < -tiny:
            return 1.0, -np.inf, True
        if amax <= tiny:
            flat = alpha >= -tiny
            if beta[flat].max() < -tiny:
                return 1.0, -np.inf, True
    if lo == -np.inf:
        if amax < -tiny:
            return -1.0, -np.inf, True
        if amax <= tiny:
            flat = alpha >= -tiny
            if (-beta[flat]).max() < -tiny:
                return -1.0, -np.inf, True

    cands = [0.0]
    if np.isfinite(lo):
        cands.append(lo)
    if np.isfinite(hi):
        cands.append(hi)
    m = len(alpha)
    for i in range(m):
        if alpha[i] > tiny:
            cands.append(-beta[i] / (2.0 * alpha[i]))
        for j in range(i + 1, m):
            da, db, dg = alpha[i] - alpha[j], beta[i] - beta[j], gamma[i] - gamma[j]
            if abs(da) > tiny:
                disc = db * db - 4.0 * da * dg
                if disc >= 0.0:
                    root = math.sqrt(disc)
                    cands.append((-db + root) / (2.0 * da))
                    cands.append((-db - root) / (2.0 * da))
            elif abs(db) > tiny:
                cands.append(-dg / db)
    t = np.array(sorted(set(float(np.clip(v, lo, hi)) for v in cands if np.isfinite(v))))
    vals = (alpha[:, None] * t * t + beta[:, None] * t + gamma[:, None]).max(axis=0)
    idx = int(np.argmin(vals))
    return float(t[idx]), float(vals[idx]), False


def _coordinate_bounds(dom: Domain, x: np.ndarray, k: int):
    if isinstance(dom, Reals):
        return -np.inf, np.inf
    if isinstance(dom, NonnegOrthant):
        return -x[k], np.inf
    if isinstance(dom, Box):
        return dom.lo[k] - x[k], dom.hi[k] - x[k]
    raise UnsupportedDomainError(type(dom).__name__)


def _coordinate_minimax_polish(fam: QuadraticFamily, dom: Domain, x0: np.ndarray, sweeps: int = 16):
    """Sweep exact 1-D minimax minimizations along coordinates."""
    a_s, b_s, _ = fam.coefficient_stacks()
    x = x0.copy()
    phi = fam.sup_at(x)
    n = x.shape[0]
    for _ in range(sweeps):
        improved = False
        for k in range(n):
            vals = fam.eval_members(x.reshape(1, -1))[:, 0]
            alpha = 0.5 * a_s[:, k, k]
            beta = a_s[:, k, :] @ x + b_s[:, k]
            gamma = vals
            lo, hi = _coordinate_bounds(dom, x, k)
            t, val, unbounded = _minimax_1d(alpha, beta, gamma, lo, hi)
            if unbounded:
                step = 1.0 + abs(x[k])
                target = min(-1.0, phi - 10.0)
                for _ in range(200):
                    cand = x.copy()
                    cand[k] += t * step
                    cand_phi = fam.sup_at(cand)
                    if cand_phi <= target:
                        return cand, cand_phi
                    step *= 2.0
                continue
            if val < phi - 1e-15 * (1.0 + abs(phi)):
                x[k] += t
                phi = fam.sup_at(x)
                improved = True
        if not improved:
            break
    return x, phi


def _sphere_polish(fam: QuadraticFamily, x0: np.ndarray, sweeps: int = 3):
    x = x0 / np.linalg.norm(x0)
    phi = fam.sup_at(x)
    n = x.shape[0]
    if n == 1:
        for cand in (np.array([1.0]), np.array([-1.0])):
            v = fam.sup_at(cand)
            if v < phi:
                x, phi = cand, v
        return x, phi
    for _ in range(sweeps):
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                r = math.hypot(x[i], x[j])
                if r < 1e-14:
                    continue
                base = math.atan2(x[j], x[i])
                span, center = 2.0 * math.pi, 0.0
                best_t, best_v = 0.0, phi
                for _level in range(3):
                    thetas = center + np.linspace(-span / 2, span / 2, 129)
                    cand = np.repeat(x.reshape(1, -1), len(thetas), axis=0)
                    cand[:, i] = r * np.cos(base + thetas)
                    cand[:, j] = r * np.sin(base + thetas)
                    v = fam.eval_members(cand).max(axis=0)
                    idx = int(np.argmin(v))
                    if v[idx] < best_v:
                        best_v, best_t = float(v[idx]), float(thetas[idx])
                    center, span = float(thetas[idx]), 2.0 * span / 128.0
                if best_v < phi - 1e-15 * (1.0 + abs(phi)):
                    x[i] = r * math.cos(base + best_t)
                    x[j] = r * math.sin(base + best_t)
                    x = x / np.linalg.norm(x)
                    phi = fam.sup_at(x)
                    improved = True
        if not improved:
            break
    return x, phi


def _search_feasible(fam: QuadraticFamily, dom: Domain, cfg: EngineConfig,
                     extra_seeds: Optional[np.ndarray] = None):
    """Best effort at minimizing sup_j q_j over the domain; returns (x, sup)."""
    if isinstance(dom, FinitePointSet):
        vals = fam.eval_members(dom.points).max(axis=0)
        idx = int(np.argmin(vals))
        return dom.points[idx].copy(), float(vals[idx])
    starts = _start_points(dom, fam.dim, cfg, extra_seeds)
    x, phi = _subgradient_descent(fam, dom, starts, cfg.refine_iters)
    if isinstance(dom, UnitSphere):
        return _sphere_polish(fam, x)
    x2, phi2 = _coordinate_minimax_polish(fam, dom, x)
    if phi2 <= phi:
        return x2, phi2
    return x, phi


# --------------------------------------------------------------------------
# Certificate search


def _game_lp_certificate(fam: QuadraticFamily, dom: FinitePointSet):
    """Exact max_t min_p of the aggregate over a finite domain (matrix game)."""
    values = fam.eval_members(dom.points)  # (m, p)
    m, p = values.shape
    c = np.zeros(m + 1)
    c[m] = -1.0
    a_ub = np.hstack([-values.T, np.ones((p, 1))])
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    bounds = [(0, None)] * m + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(p), A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - bounded feasible LP by construction
        t = np.full(m, 1.0 / m)
    else:
        t = np.maximum(res.x[:m], 0.0)
    t = t / t.sum()
    inf_val = float((t @ values).min())
    return t, inf_val, None, True


def _golden_max(h, lo: float, hi: float):
    """Golden-section maximum of a concave extended-real function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = h(c1), h(c2)
    for _ in range(GOLDEN_ITERS):
        if b - a < 1e-14 * (1.0 + abs(a) + abs(b)):
            break
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = h(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = h(c1)
    cands = [(f1, c1), (f2, c2)]
    best = max(cands, key=lambda z: (z[0], -z[1]))
    return best[1], best[0]


def simplex_pairwise_max(h, t0: np.ndarray, h0: float, stop_at: float = math.inf):
    """Maximize a concave extended-real ``h`` over the simplex from ``t0``.

    ``h0`` is ``h(t0)``.  Pairwise mass transfer: each slice
    t_i + t_j = s is concave, so a coarse slice grid brackets its finite
    region and golden-section finishes it.  A move is kept only if it gains
    more than 1e-15 relative (any finite value beats a start at -inf); the
    search stops after a sweep without a move, after three sweeps, or once
    the value reaches ``stop_at`` (a start already there is returned as
    it is).  Returns ``(t, h(t))``.
    """
    m = len(t0)
    if m == 1 or h0 >= stop_at:
        return t0, h0
    t = t0.copy()
    best = h0
    for _ in range(3):
        improved = False
        for i in range(m):
            for j in range(i + 1, m):
                s = t[i] + t[j]
                if s <= 1e-15:
                    continue

                def slice_h(theta):
                    cand = t.copy()
                    cand[i] = theta
                    cand[j] = s - theta
                    return h(cand)

                grid = np.linspace(0.0, s, 33)
                gv = np.array([slice_h(g) for g in grid])
                gi = int(np.argmax(gv))
                lo = grid[max(0, gi - 1)]
                hi = grid[min(len(grid) - 1, gi + 1)]
                theta, val = _golden_max(slice_h, lo, hi)
                if gv[gi] > val:  # e.g. h finite only at the grid point itself
                    theta, val = grid[gi], gv[gi]
                floor = best + 1e-15 * (1.0 + abs(best)) if best > -math.inf else best
                if val > floor:
                    t[i], t[j] = theta, s - theta
                    best = val
                    improved = True
                if best >= stop_at:
                    return t, best
        if not improved:
            break
    return t, best


def _refine_weight(fam: QuadraticFamily, dom: Domain, t0: np.ndarray, inf0: float,
                   stop_at: float):
    """Refine a weight for the (concave) aggregate infimum until it reaches ``stop_at``."""
    return simplex_pairwise_max(lambda t: _aggregate_inf_scalar(fam, t, dom), t0, inf0,
                                stop_at=stop_at)


def _lattice_infima(fam: QuadraticFamily, lattice: np.ndarray, dom: Domain) -> np.ndarray:
    """Aggregate infimum at every lattice weight, ``LATTICE_BLOCK`` weights at a time.

    Batch values near a tolerance boundary are re-verified with the scalar path.
    """
    values = np.empty(len(lattice))
    for start in range(0, len(lattice), LATTICE_BLOCK):
        block = lattice[start:start + LATTICE_BLOCK]
        vals, flags = batch_infimum(*_aggregate_stacks(fam, block), dom)
        for i in np.where(flags)[0]:
            vals[i] = _aggregate_inf_scalar(fam, block[i], dom)
        values[start:start + len(block)] = vals
    return values


def _maximize_infimum(fam: QuadraticFamily, dom: Domain, lattice: np.ndarray, stop_at: float):
    """Maximize the aggregate infimum over the simplex, starting from ``lattice``.

    The best lattice weight is refined pairwise until its infimum reaches
    ``stop_at``; when every lattice aggregate is unbounded below, the
    refinement starts from the barycentre instead.  Returns ``(t, inf)``.
    """
    values = _lattice_infima(fam, lattice, dom)
    best_idx = int(np.argmax(values))
    if np.isfinite(values[best_idx]):
        t0, inf0 = lattice[best_idx].copy(), float(values[best_idx])
    else:
        t0 = np.full(fam.size, 1.0 / fam.size)
        inf0 = _aggregate_inf_scalar(fam, t0, dom)
    return _refine_weight(fam, dom, t0, inf0, stop_at)


def _search_certificate(fam: QuadraticFamily, dom: Domain, cfg: EngineConfig,
                        seed_weight: Optional[np.ndarray] = None):
    """First certifying simplex weight found; returns (t, inf, argmin, exact).

    The search order is: the barycentre 1/m, then the best weight of the
    simplex lattice (plus ``seed_weight``), then pairwise refinement of that
    weight until its aggregate infimum reaches 0.  Any weight whose exact
    aggregate infimum is at least 0 is a complete witness for (a2), so the
    search stops at the barycentre when it certifies; the reported weight
    is then not the maximizer of the aggregate infimum.  ``inf`` and
    ``argmin`` come from one :func:`quadratic_infimum` call at the final
    weight; ``exact`` is its flag, and a caller may only certify when it is
    True.  Finite point sets are decided by the exact matrix-game LP.
    """
    m = fam.size
    if isinstance(dom, FinitePointSet):
        return _game_lp_certificate(fam, dom)
    bary = np.full(m, 1.0 / m)
    res = quadratic_infimum(aggregate(fam, bary), dom)
    if m == 1 or (res.exact and res.value >= 0.0):
        return bary, res.value, res.argmin, res.exact
    lattice = shared_simplex_lattice(m, _effective_resolution(m, cfg.simplex_grid_resolution))
    if seed_weight is not None:
        lattice = np.vstack([lattice, seed_weight.reshape(1, -1)])
    t, _ = _maximize_infimum(fam, dom, lattice, stop_at=0.0)
    res = quadratic_infimum(aggregate(fam, t), dom)
    return t, res.value, res.argmin, res.exact


# --------------------------------------------------------------------------
# The alternative


def _check_dims(fam: QuadraticFamily, dom: Domain):
    if fam.dim != dom.dim:
        raise DimensionMismatchError(
            f"family dimension {fam.dim} does not match domain dimension {dom.dim}"
        )


def _decide(fam: QuadraticFamily, dom: Domain, cfg: EngineConfig,
            extra_seeds: Optional[np.ndarray] = None,
            seed_weight: Optional[np.ndarray] = None) -> AlternativeOutcome:
    """The decision sequence at level 0 on a family already shifted by alpha.

    The second feasible search needs the argmin of the certificate search's
    aggregate; without one it would repeat the first search.
    """
    x1, sup1 = _search_feasible(fam, dom, cfg, extra_seeds=extra_seeds)
    if sup1 < -cfg.delta_strict:
        return FeasiblePoint(x1, sup1)

    t, inf_val, agg_argmin, exact = _search_certificate(fam, dom, cfg, seed_weight=seed_weight)
    if exact and inf_val >= -cfg.tol_cert:
        return Certificate(SimplexWeight(t), inf_val)

    if agg_argmin is not None:
        x2, sup2 = _search_feasible(fam, dom, cfg, extra_seeds=np.atleast_2d(agg_argmin))
        if sup2 < -cfg.delta_strict:
            return FeasiblePoint(x2, sup2)
        if sup2 < sup1:
            x1, sup1 = x2, sup2
    return Indeterminate(x1, sup1, SimplexWeight(t), inf_val)


def decide_alternative(fam: QuadraticFamily, dom: Domain, cfg: EngineConfig) -> AlternativeOutcome:
    """Decide which alternative holds at level ``cfg.alpha``.

    Returns a FeasiblePoint (margin and infima reported relative to alpha),
    a Certificate whose aggregate infimum re-verifies against the stated
    tolerance, or an Indeterminate carrying both near-witnesses.
    """
    _check_dims(fam, dom)
    return _decide(fam.shifted(cfg.alpha), dom, cfg)


def characterization_probe(fam: QuadraticFamily, dom: Domain, alpha: float,
                           cfg: EngineConfig) -> ProbeReport:
    """Search both alternatives independently at level ``alpha``.

    A both-fail report is evidence that the family is not infsup-convex on
    the domain; both-hold is impossible and raises InternalConsistencyError.
    On finite point sets both searches are exhaustive (enumeration and an
    exact matrix-game LP); elsewhere the report is search-based.
    """
    _check_dims(fam, dom)
    shifted = fam.shifted(alpha)
    x, sup_val = _search_feasible(shifted, dom, cfg)
    t, inf_val, _, exact = _search_certificate(shifted, dom, cfg)
    a1 = bool(sup_val < -cfg.delta_strict)
    a2 = bool(exact and inf_val >= -cfg.tol_cert)
    if a1 and a2:
        raise InternalConsistencyError(
            f"both alternatives verified at alpha={alpha}: sup={sup_val!r}, inf={inf_val!r}"
        )
    return ProbeReport(
        alpha=alpha,
        a1_holds=a1,
        a2_holds=a2,
        feasible_point=x,
        feasible_margin=sup_val,
        certificate_weight=SimplexWeight(t),
        certificate_inf=inf_val,
        exhaustive=isinstance(dom, FinitePointSet),
    )


# --------------------------------------------------------------------------
# Two-matrix alternative (eigenvalue pencil)


def yuan_pencil_max(a1: SymMatrix, a2: SymMatrix):
    """Maximize g(t) = lambda_min(t A1 + (1-t) A2) over [0, 1].

    g is concave (minimum eigenvalue of an affine matrix family), so
    golden-section search on [0, 1] brackets its maximizer to below 1e-12
    in ``GOLDEN_ITERS`` steps; the endpoints 0 and 1, which golden-section
    never evaluates, are compared as well.
    """
    if a1.n != a2.n:
        raise DimensionMismatchError("pencil matrices must have equal dimensions")
    m1, m2 = a1.entries, a2.entries

    def g(t):
        return float(np.linalg.eigvalsh(t * m1 + (1.0 - t) * m2)[0])

    t_mid, g_mid = _golden_max(g, 0.0, 1.0)
    cands = [0.0, t_mid, 1.0]
    vals = [g(0.0), g_mid, g(1.0)]
    idx = int(np.argmax(vals))
    return cands[idx], vals[idx]


def _form_family(a1: SymMatrix, a2: SymMatrix) -> QuadraticFamily:
    n = a1.n
    zero = np.zeros(n)
    return QuadraticFamily((
        QuadraticFunction(a1, zero, 0.0),
        QuadraticFunction(a2, zero, 0.0),
    ))


def yuan_alternative(a1: SymMatrix, a2: SymMatrix, dom: Domain, cfg: EngineConfig) -> AlternativeOutcome:
    """The two-matrix alternative: a jointly negative point or a PSD pencil.

    The certificate carries the optimal pencil weight (t, 1-t) and the exact
    minimum of the aggregated form over the unit sphere (half the pencil's
    minimum eigenvalue).  The feasible side searches the sphere seeded with
    eigenvectors of the optimal pencil matrix and of both inputs; over the
    reals a strictly negative value is amplified by scaling.
    """
    if not isinstance(dom, (Reals, UnitSphere)):
        raise UnsupportedDomainError("the two-matrix alternative runs on Reals or UnitSphere")
    if a1.n != a2.n or a1.n != dom.dim:
        raise DimensionMismatchError("matrix and domain dimensions must agree")
    t_star, lam_star = yuan_pencil_max(a1, a2)
    weights = SimplexWeight(np.array([t_star, 1.0 - t_star]))
    if lam_star >= -cfg.tol_cert:
        return Certificate(weights, 0.5 * lam_star)

    fam = _form_family(a1, a2)
    n = a1.n
    seeds = [sphere_sample(n, cfg.multistart_count, cfg.seed)]
    pencil = SymMatrix(t_star * a1.entries + (1.0 - t_star) * a2.entries)
    for mat in (pencil, a1, a2):
        _, vecs = sym_eigen(mat)
        seeds.append(vecs.T)
        seeds.append(-vecs.T)
    starts = np.vstack(seeds)
    vals = fam.eval_members(starts).max(axis=0)
    best = int(np.argmin(vals))
    x, phi = _sphere_polish(fam, starts[best])
    if phi < 0.0 and isinstance(dom, Reals):
        target = 10.0 * cfg.delta_strict
        scale = max(1.0, math.sqrt(target / -phi) * 2.0)
        x = x * scale
        phi = fam.sup_at(x)
    if phi < -cfg.delta_strict:
        return FeasiblePoint(x, phi)
    return Indeterminate(x, phi, weights, 0.5 * lam_star)
