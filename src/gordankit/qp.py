"""Quadratic programs with bordered-Z-matrix data, solved by level-set bisection.

Each level gamma is decided on the family {q - gamma} + constraints by two
warm fast paths and then the engine's decision sequence, whose second
feasible search needs an argmin from the certificate search.  A feasible
point means the level is achievable; a certificate t means it is too low,
by weak duality: inf_X (t_0 (q - gamma) + sum_j t_j g_j) <=
max(q(x) - gamma, max_j g_j(x)) for every x in X.  ``cfg.alpha`` is
ignored; the Slater check decides the constraints at level 0.  Optimality
is certified by Fritz John multipliers (normalized y + sum u = 1), found by
the engine's pairwise simplex search (``simplex_pairwise_max``) and
verified through exact aggregate infima, and by KKT checks with sampled
cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .engine import (
    AlternativeOutcome,
    Certificate,
    EngineConfig,
    FeasiblePoint,
    _aggregate_infimum,
    _decide,
    _search_certificate,
    _search_feasible,
    decide_alternative,
    simplex_pairwise_max,
)
from .errors import (
    DimensionMismatchError,
    IndeterminateOutcomeError,
    UnsupportedDomainError,
)
from .infimum import _simplex_quadform_min, quadratic_infimum
from .quadratics import (
    ConeWeight,
    Domain,
    NonnegOrthant,
    QuadraticFamily,
    QuadraticFunction,
    Reals,
    SimplexWeight,
    aggregate,
    eval_quadratic,
    is_psd,
)
from .sampling import rng_stream, shared_simplex_lattice
from .zmatrix import bordered, is_z_matrix, z_family_report

TOL_BISECT = 1e-8
ATTAIN_TOL = 1e-6
ACTIVE_TOL = 1e-5
MAX_BISECT = 120
UNBOUNDED_SPAN = 1e8


@dataclass(frozen=True, eq=False)
class QpProblem:
    """Minimize a quadratic over {x in X : q_j(x) <= 0 for all j}.

    The bordered matrices of the objective and of every constraint must be
    Z-matrices, and X must be the reals or the nonnegative orthant (any
    other set between them has no exact optimality check here and is
    rejected).
    """

    objective: QuadraticFunction
    constraints: QuadraticFamily
    domain: Domain

    def __post_init__(self):
        if not isinstance(self.domain, (Reals, NonnegOrthant)):
            raise UnsupportedDomainError(
                "QP domain must be Reals or NonnegOrthant"
            )
        if self.objective.dim != self.constraints.dim or self.objective.dim != self.domain.dim:
            raise DimensionMismatchError("objective, constraints, and domain dimensions differ")
        flag, offenders = is_z_matrix(bordered(self.objective))
        report = z_family_report(self.constraints)
        if flag and report.family_is_z:
            return
        # Convex data also makes every level family infsup-convex, so the
        # level-set machinery stays exact; everything else is rejected.
        if is_psd(self.objective.a) and all(is_psd(q.a) for q in self.constraints.members):
            return
        if not flag:
            raise ValueError(
                f"objective bordered matrix is not a Z-matrix (offenders {offenders}) "
                "and the data is not convex"
            )
        bad = [i for i, r in enumerate(report.members) if not r.is_z]
        raise ValueError(
            f"constraints {bad} fail the bordered Z-matrix condition and the data is not convex"
        )

    def constraint_values(self, x) -> np.ndarray:
        return self.constraints.eval_members(np.asarray(x, dtype=float).reshape(1, -1))[:, 0]


@dataclass(frozen=True, eq=False)
class FritzJohnCertificate:
    """Multipliers (y, u) >= 0 with y + sum(u) = 1 for the Fritz John conditions."""

    y: float
    u: ConeWeight

    def __post_init__(self):
        if self.y < -1e-12:
            raise ValueError("objective multiplier must be nonnegative")
        total = self.y + float(self.u.u.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"multipliers must be normalized to 1, got {total!r}")
        object.__setattr__(self, "y", max(0.0, float(self.y)))


@dataclass(frozen=True, eq=False)
class KktCertificate:
    u: ConeWeight
    x0: np.ndarray


@dataclass(frozen=True, eq=False)
class LevelsetResult:
    status: str  # "converged" | "infeasible" | "unbounded"
    value: float
    x0: Optional[np.ndarray]
    iterations: int
    bracket: tuple
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class FjSearchResult:
    found: bool
    certificate: Optional[FritzJohnCertificate]
    residuals: dict
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class KktReport:
    valid: bool
    residuals: dict
    sampled_ok: bool
    sample_count: int


def slater_check(p: QpProblem, cfg: EngineConfig) -> Optional[np.ndarray]:
    """A strictly feasible point for the constraints, or None when certified out.

    The constraints are tested at level 0 whatever ``cfg.alpha`` is.
    Raises IndeterminateOutcomeError when the constraint alternative lands
    in the tolerance band.
    """
    outcome = decide_alternative(p.constraints, p.domain, replace(cfg, alpha=0.0))
    if isinstance(outcome, FeasiblePoint):
        return outcome.x
    if isinstance(outcome, Certificate):
        return None
    raise IndeterminateOutcomeError("Slater check landed in the tolerance band", outcome)


def _level_family(p: QpProblem, gamma: float) -> QuadraticFamily:
    members = (p.objective.shifted(gamma),) + p.constraints.members
    return QuadraticFamily(members)


def _level_config(cfg: EngineConfig) -> EngineConfig:
    """A lighter search budget for the many per-level tests; warm seeds
    carry most of the work between bisection steps."""
    return replace(cfg, multistart_count=min(cfg.multistart_count, 32),
                   refine_iters=min(cfg.refine_iters, 120))


def _test_level(p: QpProblem, gamma: float, cfg: EngineConfig,
                warm_x: Optional[np.ndarray], warm_t: Optional[np.ndarray]) -> AlternativeOutcome:
    """Decide a level: a FeasiblePoint means it is achievable, a Certificate
    that it is too low, and an Indeterminate leaves it unresolved."""
    cfg = _level_config(cfg)
    fam = _level_family(p, gamma)
    # Warm fast paths: re-evaluating the previous witness or certificate at
    # the new level settles most bisection steps without a fresh search.
    if warm_x is not None:
        sup_val = fam.sup_at(warm_x)
        if sup_val < -cfg.delta_strict:
            return FeasiblePoint(np.asarray(warm_x, dtype=float).copy(), sup_val)
    if warm_t is not None:
        res = _aggregate_infimum(fam, warm_t, p.domain)
        if res.exact and res.value >= -cfg.tol_cert:
            return Certificate(SimplexWeight(warm_t), res.value)
    seeds = None if warm_x is None else np.atleast_2d(warm_x)
    return _decide(fam, p.domain, cfg, extra_seeds=seeds, seed_weight=warm_t)


def _kkt_newton_polish(p: QpProblem, x0: np.ndarray, iters: int = 30):
    """Refine a near-optimal point by Newton steps on the active KKT system.

    Fixes the active sets read off at ``x0`` (constraints near zero, and on
    the orthant also coordinates near zero) and solves stationarity plus
    active-constraint equations.  Returns (x, u_active_map) on success,
    None when the step diverges or verification fails.
    """
    n = p.objective.dim
    cons = p.constraint_values(x0)
    scale = 1.0 + float(np.abs(cons).max())
    act = np.where(cons >= -ACTIVE_TOL * scale)[0]
    if isinstance(p.domain, NonnegOrthant):
        free = np.where(x0 > ACTIVE_TOL * (1.0 + np.abs(x0).max()))[0]
    else:
        free = np.arange(n)
    x = x0.copy()
    if isinstance(p.domain, NonnegOrthant):
        fixed_mask = np.ones(n, dtype=bool)
        fixed_mask[free] = False
        x[fixed_mask] = 0.0
    u = np.zeros(len(act))
    a_obj, b_obj = p.objective.a.entries, p.objective.b
    a_c, b_c, _ = p.constraints.coefficient_stacks()
    nf, na = len(free), len(act)
    if na > nf:
        act = act[:nf]
        na = nf
        u = u[:na]
    for _ in range(iters):
        grad = a_obj @ x + b_obj
        grads_act = a_c[act] @ x + b_c[act]
        f_top = grad[free] + (u @ grads_act[:, free] if na else 0.0)
        f_bot = p.constraint_values(x)[act]
        f = np.concatenate([np.atleast_1d(f_top), f_bot])
        if np.linalg.norm(f) <= 1e-13 * scale:
            break
        h = a_obj + (np.einsum("m,mij->ij", u, a_c[act]) if na else 0.0)
        jac = np.zeros((nf + na, nf + na))
        jac[:nf, :nf] = h[np.ix_(free, free)]
        if na:
            jac[:nf, nf:] = grads_act[:, free].T
            jac[nf:, :nf] = grads_act[:, free]
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 1e6:
            return None
        x[free] += step[:nf]
        u += step[nf:]
    cons = p.constraint_values(x)
    feasible = cons.max() <= 1e-10 * scale
    if isinstance(p.domain, NonnegOrthant):
        feasible &= x.min() >= -1e-10
        x = np.maximum(x, 0.0)
    if not feasible or np.any(u < -1e-7):
        return None
    u_map = {int(j): max(0.0, float(v)) for j, v in zip(act, u)}
    return x, u_map


def solve_levelset(p: QpProblem, cfg: EngineConfig, tol_bisect: float = TOL_BISECT) -> LevelsetResult:
    """Bisection on the objective level, driven by the alternative engine.

    The bracket starts at [inf_X q, q(feasible point)]; a feasible-point
    outcome at level gamma shrinks the upper end to the witness value, a
    certificate raises the lower end.  Ends when the bracket is below
    ``tol_bisect`` or the level test lands in its tolerance band, then
    polishes the incumbent with Newton steps on the active KKT system.
    """
    diagnostics: dict = {}
    fam = p.constraints
    x_f, v_f = _search_feasible(fam, p.domain, cfg)
    if v_f > cfg.tol_cert:
        _, inf_val, _, _ = _search_certificate(fam, p.domain, cfg)
        diagnostics["constraint_certificate_inf"] = inf_val
        diagnostics["best_constraint_sup"] = v_f
        return LevelsetResult("infeasible", math.inf, None, 0, (math.nan, math.nan), diagnostics)

    upper = eval_quadratic(p.objective, x_f)
    x_best = x_f.copy()
    lower_res = quadratic_infimum(p.objective, p.domain)
    iterations = 0
    warm_t: Optional[np.ndarray] = None
    if np.isfinite(lower_res.value):
        lower = lower_res.value
        if lower_res.argmin is not None:
            g_at_min = fam.eval_members(lower_res.argmin.reshape(1, -1)).max()
            if g_at_min <= 0.0:
                # The unconstrained minimizer is feasible: done.
                x0 = lower_res.argmin
                return LevelsetResult("converged", eval_quadratic(p.objective, x0), x0, 0,
                                      (lower, lower), diagnostics)
    else:
        gap = 1.0
        lower = None
        upper0 = upper
        while gap <= UNBOUNDED_SPAN * (1.0 + abs(upper0)):
            gamma = upper0 - gap
            outcome = _test_level(p, gamma, cfg, x_best, warm_t)
            iterations += 1
            if isinstance(outcome, Certificate):
                lower = gamma
                warm_t = outcome.weights.t
                break
            if isinstance(outcome, FeasiblePoint):
                x_best = outcome.x
                upper = min(upper, eval_quadratic(p.objective, outcome.x))
            gap *= 8.0
        if lower is None:
            diagnostics["last_witness_value"] = upper
            return LevelsetResult("unbounded", -math.inf, x_best, iterations,
                                  (-math.inf, upper), diagnostics)

    band_hits = 0
    offset = False  # after a band hit: an off-centre level usually leaves the band
    history = [(lower, upper)]
    while offset or (upper - lower > tol_bisect and iterations < MAX_BISECT):
        gamma = lower + 0.75 * (upper - lower) if offset else 0.5 * (lower + upper)
        outcome = _test_level(p, gamma, cfg, x_best, warm_t)
        iterations += 1
        if isinstance(outcome, FeasiblePoint):
            x_best = outcome.x
            upper = min(upper, eval_quadratic(p.objective, outcome.x))
        elif isinstance(outcome, Certificate):
            lower = gamma
            warm_t = outcome.weights.t
        else:  # in the band: retry once at the off-centre level
            if offset:
                break
            band_hits += 1
            diagnostics["band_at"] = gamma
            if band_hits >= 2:
                break
            offset = True
            continue
        offset = False
        history.append((lower, upper))

    polished = _kkt_newton_polish(p, x_best)
    if polished is not None:
        x_new, u_map = polished
        val_new = eval_quadratic(p.objective, x_new)
        if val_new <= eval_quadratic(p.objective, x_best) + tol_bisect:
            x_best = x_new
            diagnostics["kkt_polish_multipliers"] = u_map
    value = eval_quadratic(p.objective, x_best)
    diagnostics["band_hits"] = band_hits
    diagnostics["bracket_history"] = history
    return LevelsetResult("converged", value, x_best, iterations, (lower, upper), diagnostics)


# --------------------------------------------------------------------------
# Fritz John search


def _attains_inf_gap(p: QpProblem, weights: np.ndarray, x0: np.ndarray) -> float:
    """agg(x0) - inf_X(agg) for the weighted sum y*q + sum u_j q_j (>= 0)."""
    ext = QuadraticFamily((p.objective,) + p.constraints.members)
    agg = aggregate(ext, weights)
    inf_res = quadratic_infimum(agg, p.domain)
    if not np.isfinite(inf_res.value):
        return math.inf
    return eval_quadratic(agg, x0) - inf_res.value


def _fj_residual(p: QpProblem, weights: np.ndarray, x0: np.ndarray, cons_at_x0: np.ndarray) -> float:
    gap = _attains_inf_gap(p, weights, x0)
    slack = abs(float(weights[1:] @ cons_at_x0))
    return max(gap, slack)


def _stationarity_matrix(p: QpProblem, x0: np.ndarray, act: np.ndarray) -> np.ndarray:
    cols = [p.objective.gradient(x0)]
    for j in act:
        cols.append(p.constraints.members[j].gradient(x0))
    return np.stack(cols, axis=1)


def _algebraic_candidates(p: QpProblem, x0: np.ndarray, act: np.ndarray):
    """Simplex weights minimizing the stationarity residual at x0.

    Over the reals this is an exact quadratic-over-simplex minimization;
    on the orthant, rows at zero coordinates may be nonnegative instead of
    zero, handled by an active-row cutting loop.
    """
    g = _stationarity_matrix(p, x0, act)
    n = x0.shape[0]
    if isinstance(p.domain, NonnegOrthant):
        zero_rows = np.where(x0 <= ACTIVE_TOL * (1.0 + np.abs(x0).max()))[0]
    else:
        zero_rows = np.array([], dtype=int)
    free_rows = np.setdiff1d(np.arange(n), zero_rows)
    candidates = []
    forced = np.array([], dtype=int)
    for _ in range(len(zero_rows) + 1):
        rows = np.concatenate([free_rows, forced])
        sub = g[rows] if len(rows) else np.zeros((1, g.shape[1]))
        _, w = _simplex_quadform_min(sub.T @ sub)
        if w is None:
            break
        candidates.append(w)
        viol = [k for k in zero_rows if k not in forced and float(g[k] @ w) < -1e-10]
        if not viol:
            break
        forced = np.concatenate([forced, [viol[0]]])
    return candidates


def fritz_john_search(p: QpProblem, x0, cfg: EngineConfig) -> FjSearchResult:
    """Search normalized multipliers (y, u) certifying x0 by the Fritz John conditions.

    The residual max(attains-its-infimum gap, |complementary slackness|)
    is convex in the weights.  The best of the simplex lattice and of exact
    stationarity solves on the active set is refined by
    :func:`simplex_pairwise_max` on the negated residual.  The result is
    verified by its gap (value at x0 minus the exact aggregate infimum) and
    its slackness; when they do not verify, the best residuals are reported,
    which signals that x0 is likely not optimal.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != p.objective.dim:
        raise DimensionMismatchError("x0 dimension mismatch")
    cons = p.constraint_values(x0)
    scale = 1.0 + float(np.abs(cons).max())
    if cons.max() > ACTIVE_TOL * scale:
        raise ValueError(f"x0 violates the constraints by {cons.max():.3e}")
    m = p.constraints.size
    act = np.where(cons >= -ACTIVE_TOL * scale)[0]

    def expand(w_small: np.ndarray) -> np.ndarray:
        w = np.zeros(1 + m)
        w[0] = w_small[0]
        for pos, j in enumerate(act):
            w[1 + j] = w_small[1 + pos]
        return w

    def residual(w_small: np.ndarray) -> float:
        return _fj_residual(p, expand(w_small), x0, cons)

    cands = list(shared_simplex_lattice(1 + len(act), min(cfg.simplex_grid_resolution, 16)))
    cands.extend(_algebraic_candidates(p, x0, act))
    values = [residual(w) for w in cands]
    k = int(np.argmin(values))
    w_small, _ = simplex_pairwise_max(lambda w: -residual(w), cands[k], -values[k])
    best_w = expand(w_small)

    gap = _attains_inf_gap(p, best_w, x0)
    slack = abs(float(best_w[1:] @ cons))
    agg = aggregate(QuadraticFamily((p.objective,) + p.constraints.members), best_w)
    grad_norm = float(np.linalg.norm(agg.gradient(x0)))
    tol_fj = max(ATTAIN_TOL, 100.0 * cfg.tol_cert)
    found = bool(gap <= tol_fj and slack <= max(cfg.tol_cert * scale, 1e-10))
    cert = None
    if found:
        cert = FritzJohnCertificate(float(best_w[0]), ConeWeight(best_w[1:]))
    residuals = {
        "attain_gap": gap,
        "slackness": slack,
        "stationarity_norm": grad_norm,
        "objective_multiplier": float(best_w[0]),
    }
    return FjSearchResult(found, cert, residuals, {"active_set": act.tolist()})


def kkt_check(p: QpProblem, cert: KktCertificate, cfg: EngineConfig,
              sample_count: int = 10_000) -> KktReport:
    """Verify the KKT conditions at (x0, u) and cross-check against samples.

    Valid iff (1) q + sum u_j q_j attains its infimum over X at x0 within
    tolerance, (2) x0 is feasible, and (3) complementary slackness holds.
    Validity implies optimality, which is additionally spot-checked on
    sampled feasible points.
    """
    x0 = np.asarray(cert.x0, dtype=float).reshape(-1)
    u = cert.u.u
    if u.shape[0] != p.constraints.size or x0.shape[0] != p.objective.dim:
        raise DimensionMismatchError("certificate shapes do not match the problem")
    cons = p.constraint_values(x0)
    scale = 1.0 + float(np.abs(cons).max())
    weights = np.concatenate([[1.0], u])
    gap = _attains_inf_gap(p, weights, x0)
    feas = float(cons.max())
    slack = abs(float(u @ cons))
    cond1 = gap <= max(ATTAIN_TOL, 100.0 * cfg.tol_cert)
    cond2 = feas <= cfg.tol_cert * scale
    cond3 = slack <= max(cfg.tol_cert * scale, 1e-10)
    valid = bool(cond1 and cond2 and cond3)

    pts = sample_feasible(p, sample_count, cfg.seed, center=x0)
    v0 = eval_quadratic(p.objective, x0)
    if len(pts):
        vals = 0.5 * np.einsum("ki,ij,kj->k", pts, p.objective.a.entries, pts) \
            + pts @ p.objective.b + p.objective.c
        sample_gap = float(v0 - vals.min())
        sampled_ok = bool(sample_gap <= 1e-6)
    else:
        sample_gap = 0.0
        sampled_ok = True
    residuals = {
        "attain_gap": gap,
        "feasibility": feas,
        "slackness": slack,
        "sample_suboptimality": sample_gap,
    }
    return KktReport(valid, residuals, sampled_ok, int(len(pts)))


def sample_feasible(p: QpProblem, count: int, seed: int,
                    center: Optional[np.ndarray] = None, max_rounds: int = 40) -> np.ndarray:
    """Up to ``count`` feasible points, by rejection from boxes of varied width."""
    n = p.objective.dim
    rng = rng_stream(seed, stream=505)
    collected = []
    total = 0
    width = 8.0
    for round_idx in range(max_rounds):
        draw = rng.uniform(-width, width, size=(max(count, 256), n))
        if isinstance(p.domain, NonnegOrthant):
            draw = np.abs(draw)
        if center is not None and round_idx % 2 == 1:
            local = center + rng.normal(scale=max(width / 16.0, 1e-3), size=(max(count, 256), n))
            if isinstance(p.domain, NonnegOrthant):
                local = np.maximum(local, 0.0)
            draw = local
        vals = p.constraints.eval_members(draw).max(axis=0)
        ok = draw[vals <= 0.0]
        if len(ok):
            collected.append(ok)
            total += len(ok)
        if total >= count:
            break
        width = width * 0.5 if round_idx % 3 == 2 else width
        if width < 1e-3:
            width = 8.0
    if not collected:
        return np.empty((0, n))
    return np.vstack(collected)[:count]
