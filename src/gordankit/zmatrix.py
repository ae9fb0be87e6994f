"""Z-matrix machinery for quadratic families.

A symmetric matrix is a Z-matrix when its strictly upper-triangular entries
are nonpositive.  Applied to the bordered matrix [[A, b], [b^T, 2c]] of a
quadratic function, this condition makes finite families infsup-convex on
any set containing the nonnegative orthant, with an explicit aggregation
point witnessing the defining inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import EngineConfig, _search_feasible
from .errors import DimensionMismatchError
from .infimum import GRID_FALLBACK_BUDGET
from .quadratics import (
    Box,
    Domain,
    FinitePointSet,
    NonnegOrthant,
    QuadraticFamily,
    QuadraticFunction,
    SimplexWeight,
    SymMatrix,
    UnitSphere,
    weight_vector,
)
from .sampling import grid_points, rng_stream, shared_simplex_lattice

FALSIFY_SAMPLES = 500


def bordered(q: QuadraticFunction) -> SymMatrix:
    """The (n+1) x (n+1) symmetric block matrix [[A, b], [b^T, 2c]]."""
    n = q.dim
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = q.a.entries
    out[:n, n] = q.b
    out[n, :n] = q.b
    out[n, n] = 2.0 * q.c
    return SymMatrix(out)


def is_z_matrix(m: SymMatrix, tol: float = 0.0):
    """True iff every strictly upper-triangular entry is <= tol.

    Returns ``(flag, offenders)`` where offenders lists (k, l, value) with
    k < l and value > tol.
    """
    iu = np.triu_indices(m.n, k=1)
    vals = m.entries[iu]
    bad = vals > tol
    offenders = [(int(k), int(l), float(v)) for k, l, v in zip(iu[0][bad], iu[1][bad], vals[bad])]
    return (len(offenders) == 0), offenders


@dataclass(frozen=True, eq=False)
class MemberZReport:
    is_z: bool
    offenders: tuple


@dataclass(frozen=True, eq=False)
class ZFamilyReport:
    members: tuple
    family_is_z: bool


def z_family_report(fam: QuadraticFamily, tol: float = 0.0) -> ZFamilyReport:
    """Per-member bordered Z-matrix verdicts for a family."""
    reports = []
    for q in fam.members:
        flag, offenders = is_z_matrix(bordered(q), tol)
        reports.append(MemberZReport(flag, tuple(offenders)))
    return ZFamilyReport(tuple(reports), all(r.is_z for r in reports))


def aggregation_point(points: Sequence, t: SimplexWeight) -> np.ndarray:
    """The coordinatewise quadratic mean x0_k = sqrt(sum_j t_j x_k^(j)^2).

    The point lies in the nonnegative orthant by construction and does not
    depend on the family member.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tv = weight_vector(t)
    if tv.shape[0] != pts.shape[0]:
        raise DimensionMismatchError(
            f"weight length {tv.shape[0]} does not match point count {pts.shape[0]}"
        )
    return np.sqrt(tv @ (pts**2))


@dataclass(frozen=True, eq=False)
class InfsupViolation:
    m: int
    t: SimplexWeight
    points: np.ndarray
    lhs: float
    rhs: float


@dataclass(frozen=True, eq=False)
class FalsifyReport:
    status: str  # "violation-found" | "violation-suspected" | "verified-on-samples"
    violation: Optional[InfsupViolation]
    samples_checked: int
    lhs_bound: float
    lhs_certified: bool


def _lhs_lower_bound(fam: QuadraticFamily, dom: Domain, cfg: EngineConfig):
    """A lower bound on inf_X sup_j q_j, certified on finite and box domains.

    On a finite point set the enumeration is exact.  On a box the bound is
    the grid minimum minus a Lipschitz slack (gradient bound over the box
    times half the cell diagonal).  On other domains the search minimum is
    an upper bound only, so verdicts derived from it are suspicions.
    """
    if isinstance(dom, FinitePointSet):
        vals = fam.eval_members(dom.points).max(axis=0)
        return float(vals.min()), True
    if isinstance(dom, Box):
        res = max(3, int(round(GRID_FALLBACK_BUDGET ** (1.0 / dom.dim))))
        pts = grid_points(dom, res)
        vals = fam.eval_members(pts).max(axis=0)
        radius = float(np.linalg.norm(np.maximum(np.abs(dom.lo), np.abs(dom.hi))))
        a_s, b_s, _ = fam.coefficient_stacks()
        lip = max(
            float(np.linalg.norm(a_s[i], 2) * radius + np.linalg.norm(b_s[i]))
            for i in range(fam.size)
        )
        half_diag = 0.5 * float(np.linalg.norm((dom.hi - dom.lo) / (res - 1)))
        return float(vals.min()) - lip * half_diag, True
    _, sup_val = _search_feasible(fam, dom, cfg)
    return float(sup_val), False


def _sample_point_tuples(dom: Domain, dim: int, m: int, count: int, rng):
    if isinstance(dom, FinitePointSet):
        pts = dom.points
        if pts.shape[0] ** m <= count:
            idx = np.stack(np.meshgrid(*([np.arange(pts.shape[0])] * m), indexing="ij"),
                           axis=-1).reshape(-1, m)
            return pts[idx]
        sel = rng.integers(0, pts.shape[0], size=(count, m))
        return pts[sel]
    if isinstance(dom, Box):
        return dom.lo + rng.random(size=(count, m, dim)) * (dom.hi - dom.lo)
    pts = rng.uniform(-3.0, 3.0, size=(count, m, dim))
    if isinstance(dom, NonnegOrthant):
        return np.abs(pts)
    if isinstance(dom, UnitSphere):
        norms = np.linalg.norm(pts, axis=2, keepdims=True)
        return pts / np.maximum(norms, 1e-30)
    return pts


def infsup_falsify(fam: QuadraticFamily, dom: Domain, cfg: EngineConfig,
                   samples: int = FALSIFY_SAMPLES) -> FalsifyReport:
    """Search for an infsup-convexity violation by sampling weights and points.

    A violation is a weight t and points x_1..x_m with
    inf_X sup_j q_j > max_j sum_i t_i q_j(x_i).  Exact verdicts are issued
    only where the left side carries a certified lower bound (finite point
    sets, boxes via a Lipschitz-slack grid bound); on other domains a
    violation is reported as suspected with the sampled evidence.
    """
    if fam.dim != dom.dim:
        raise DimensionMismatchError("family and domain dimensions must match")
    lhs, certified = _lhs_lower_bound(fam, dom, cfg)
    rng = rng_stream(cfg.seed, stream=404)
    best: Optional[InfsupViolation] = None
    checked = 0
    for m in range(1, 5):
        lattice = shared_simplex_lattice(m, min(cfg.simplex_grid_resolution, 16))
        per_m = max(1, samples // 4)
        tuples = _sample_point_tuples(dom, fam.dim, m, per_m, rng)
        for pts in tuples:
            vals = fam.eval_members(np.atleast_2d(pts))  # (members, m)
            rhs_all = (lattice @ vals.T).max(axis=1)  # (lattice,)
            checked += lattice.shape[0]
            idx = int(np.argmin(rhs_all))
            rhs = float(rhs_all[idx])
            if lhs > rhs + cfg.tol_band:
                if best is None or rhs < best.rhs:
                    best = InfsupViolation(m, SimplexWeight(lattice[idx]),
                                           np.atleast_2d(pts).copy(), lhs, rhs)
    if best is not None:
        status = "violation-found" if certified else "violation-suspected"
        return FalsifyReport(status, best, checked, lhs, certified)
    return FalsifyReport("verified-on-samples", None, checked, lhs, certified)
