import numpy as np
import pytest

from gordankit import (
    Certificate,
    ConeWeight,
    FritzJohnCertificate,
    IndeterminateOutcomeError,
    KktCertificate,
    NonnegOrthant,
    QpProblem,
    QuadraticFamily,
    QuadraticFunction,
    Reals,
    SymMatrix,
    UnsupportedDomainError,
    eval_quadratic,
    fritz_john_search,
    kkt_check,
    sample_feasible,
    slater_check,
    solve_levelset,
)
from gordankit.sampling import random_z_family, rng_stream
from qp_oracle import active_set_oracle


def _half_square():
    return QuadraticFunction(SymMatrix([[1.0]]), [0.0], 0.0)


def _p_affine():
    # minimize x^2/2 subject to 1 - x <= 0
    return QpProblem(_half_square(), QuadraticFamily((QuadraticFunction.linear([-1.0], 1.0),)), Reals(1))


def _p_ball():
    # minimize x^2/2 subject to x^2/2 - 1 <= 0
    return QpProblem(_half_square(),
                     QuadraticFamily((QuadraticFunction(SymMatrix([[1.0]]), [0.0], -1.0),)),
                     Reals(1))


def _p_linear_obj():
    # minimize x subject to x^2/2 - 1 <= 0 (convex route, non-Z objective)
    return QpProblem(QuadraticFunction.linear([1.0]),
                     QuadraticFamily((QuadraticFunction(SymMatrix([[1.0]]), [0.0], -1.0),)),
                     Reals(1))


class TestQpProblem:
    def test_rejects_unsupported_domain(self):
        from gordankit import Box

        with pytest.raises(UnsupportedDomainError):
            QpProblem(_half_square(), QuadraticFamily((QuadraticFunction.linear([-1.0], 1.0),)),
                      Box([0.0], [1.0]))

    def test_rejects_non_z_nonconvex(self):
        # Indefinite objective with a positive off-diagonal: neither route.
        bad = QuadraticFunction(SymMatrix([[0.0, 1.0], [1.0, 0.0]]), [0.0, 0.0], 0.0)
        cons = QuadraticFamily((QuadraticFunction.linear([-1.0, 0.0], 0.0),))
        with pytest.raises(ValueError, match="Z-matrix"):
            QpProblem(bad, cons, Reals(2))

    def test_accepts_convex_non_z(self):
        _p_linear_obj()


class TestSlaterCheck:
    def test_parabola_has_interior_point(self, cfg):
        p = _p_ball()
        x = slater_check(p, cfg)
        assert x is not None
        assert p.constraints.sup_at(x) < -cfg.delta_strict

    def test_affine_constraint(self, cfg):
        x = slater_check(_p_affine(), cfg)
        assert x is not None and x[0] > 1.0

    def test_no_slater_point_for_opposing_slopes(self, cfg):
        cons = QuadraticFamily((QuadraticFunction.linear([1.0]), QuadraticFunction.linear([-1.0])))
        p = QpProblem(_half_square(), cons, Reals(1))
        assert slater_check(p, cfg) is None


class TestSolveLevelset:
    def test_affine_constraint_value_half(self, cfg):
        res = solve_levelset(_p_affine(), cfg)
        assert res.status == "converged"
        assert res.value == pytest.approx(0.5, abs=1e-7)
        assert res.x0[0] == pytest.approx(1.0, abs=1e-6)

    def test_inactive_constraint_value_zero(self, cfg):
        res = solve_levelset(_p_ball(), cfg)
        assert res.status == "converged"
        assert res.value == pytest.approx(0.0, abs=1e-8)
        assert abs(res.x0[0]) <= 1e-4

    def test_linear_objective_sqrt_two(self, cfg):
        res = solve_levelset(_p_linear_obj(), cfg)
        assert res.status == "converged"
        assert res.value == pytest.approx(-np.sqrt(2.0), abs=1e-7)
        assert res.x0[0] == pytest.approx(-np.sqrt(2.0), abs=1e-6)

    def test_infeasible_reported(self, cfg):
        cons = QuadraticFamily((QuadraticFunction(SymMatrix([[1.0]]), [0.0], 1.0),))  # x^2/2 + 1 <= 0
        p = QpProblem(_half_square(), cons, Reals(1))
        res = solve_levelset(p, cfg)
        assert res.status == "infeasible"
        assert res.value == np.inf and res.x0 is None

    def test_unbounded_reported(self, cfg):
        obj = QuadraticFunction.linear([-1.0])
        cons = QuadraticFamily((QuadraticFunction(SymMatrix([[1.0]]), [0.0], -1.0),))
        # minimize -x over x >= 0 with no cap... constraint caps |x| <= sqrt2: bounded.
        # Use constraint that never binds growth: -x <= 0.
        p = QpProblem(obj, QuadraticFamily((QuadraticFunction.linear([-1.0], 0.0),)), Reals(1))
        res = solve_levelset(p, cfg)
        assert res.status == "unbounded"
        assert res.value == -np.inf

    def test_inexact_warm_certificate_is_not_reused(self, cfg):
        # Past the orthant enumeration cap, a Z-matrix objective with the tiny
        # negative eigenvalue -1e-6 (eigenvector (1, 1, 0, ...)) is unbounded
        # below on x >= 0, but the projected descent stops short of it.  The
        # warm weight's inexact aggregate value sits above 0 and must not be
        # taken as a certificate: the level -1e-3 is achievable.
        from gordankit.infimum import N_ENUM_DEFAULT, quadratic_infimum
        from gordankit.qp import _level_family, _test_level

        n = N_ENUM_DEFAULT + 1
        a = np.eye(n)
        a[0, 1] = a[1, 0] = -(1.0 + 1e-6)
        obj = QuadraticFunction(SymMatrix(a), np.zeros(n), 0.0)
        cons = QuadraticFamily((QuadraticFunction.linear(-np.eye(n)[0], 0.0),))
        p = QpProblem(obj, cons, NonnegOrthant(n))
        gamma, warm_t = -1e-3, np.array([1.0, 0.0])
        inexact = quadratic_infimum(_level_family(p, gamma).members[0], p.domain)
        assert not inexact.exact and inexact.value >= 0.0
        outcome = _test_level(p, gamma, cfg, None, warm_t)
        assert not isinstance(outcome, Certificate)

    def test_bracket_is_ordered(self, cfg):
        res = solve_levelset(_p_affine(), cfg)
        lo, hi = res.bracket
        assert lo <= hi + 1e-12

    def test_bracket_endpoints_monotone(self, cfg):
        res = solve_levelset(_p_affine(), cfg)
        hist = res.diagnostics["bracket_history"]
        assert len(hist) >= 2
        lows = [h[0] for h in hist]
        highs = [h[1] for h in hist]
        assert all(a <= b + 1e-15 for a, b in zip(lows, lows[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(highs, highs[1:]))

    def test_low_dim_value_matches_polished_grid_oracle(self, cfg):
        from gordankit.sampling import grid_points
        from gordankit import Box

        checked = 0
        for seed in range(20):
            p = _random_bounded_qp(seed)
            n = p.objective.dim
            if n > 2:
                continue
            try:
                if slater_check(p, cfg) is None:
                    continue
            except IndeterminateOutcomeError:
                continue
            res = solve_levelset(p, cfg)
            if res.status != "converged":
                continue
            lo = np.minimum(res.x0 - 3.0, -6.0)
            hi = np.maximum(res.x0 + 3.0, 6.0)
            if isinstance(p.domain, NonnegOrthant):
                lo = np.maximum(lo, 0.0)
            pts = grid_points(Box(lo, hi), max(41, int(200000 ** (1 / n))))
            feas = p.constraints.eval_members(pts).max(axis=0) <= 0.0
            vals = (0.5 * np.einsum("ki,ij,kj->k", pts, p.objective.a.entries, pts)
                    + pts @ p.objective.b + p.objective.c)
            oracle = active_set_oracle(p)
            # Soundness of the oracle: an enumeration that missed the global
            # minimiser would sit above some feasible grid point.
            assert oracle <= float(vals[feas].min()) + 1e-12, (seed, oracle, vals[feas].min())
            assert abs(res.value - oracle) <= 1e-8, (seed, res.value, oracle)
            checked += 1
        assert checked >= 5


class TestFritzJohnSearch:
    def test_balanced_multipliers_at_optimum(self, cfg):
        res = fritz_john_search(_p_affine(), np.array([1.0]), cfg)
        assert res.found
        assert res.certificate.y == pytest.approx(0.5, abs=1e-6)
        assert res.certificate.u.u[0] == pytest.approx(0.5, abs=1e-6)
        assert res.residuals["attain_gap"] <= 1e-8
        assert res.residuals["slackness"] <= 1e-10

    def test_inactive_constraint_pure_objective(self, cfg):
        res = fritz_john_search(_p_ball(), np.array([0.0]), cfg)
        assert res.found
        assert res.certificate.y == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(res.certificate.u.u, [0.0])

    def test_non_optimal_point_has_no_certificate(self, cfg):
        res = fritz_john_search(_p_affine(), np.array([2.0]), cfg)
        assert not res.found
        assert res.certificate is None
        assert max(res.residuals["attain_gap"], res.residuals["slackness"]) > 1e-3

    def test_rejects_infeasible_base_point(self, cfg):
        with pytest.raises(ValueError, match="violates"):
            fritz_john_search(_p_affine(), np.array([0.0]), cfg)

    def test_normalization_invariant(self, cfg):
        res = fritz_john_search(_p_affine(), np.array([1.0]), cfg)
        total = res.certificate.y + res.certificate.u.u.sum()
        assert total == pytest.approx(1.0, abs=1e-9)


class TestKktCheck:
    def test_valid_at_optimum(self, cfg):
        rep = kkt_check(_p_affine(), KktCertificate(ConeWeight([1.0]), np.array([1.0])), cfg)
        assert rep.valid and rep.sampled_ok
        assert rep.residuals["attain_gap"] <= 1e-10
        assert rep.residuals["slackness"] <= 1e-12

    def test_infeasible_point_invalid(self, cfg):
        rep = kkt_check(_p_affine(), KktCertificate(ConeWeight([0.0]), np.array([0.0])), cfg)
        assert not rep.valid
        assert rep.residuals["feasibility"] == pytest.approx(1.0)

    def test_wrong_multiplier_invalid(self, cfg):
        rep = kkt_check(_p_affine(), KktCertificate(ConeWeight([0.0]), np.array([1.0])), cfg)
        assert not rep.valid
        assert rep.residuals["attain_gap"] > 1e-3


class TestFritzJohnCertificateType:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            FritzJohnCertificate(0.9, ConeWeight([0.9]))
        cert = FritzJohnCertificate(0.25, ConeWeight([0.5, 0.25]))
        assert cert.y + cert.u.u.sum() == pytest.approx(1.0)


def _random_bounded_qp(seed):
    """A random bordered-Z QP with a strengthened objective diagonal so the
    objective is convex (hence the program bounded), plus a Slater point."""
    rng = rng_stream(seed, 20)
    n = int(rng.integers(1, 4))
    mc = int(rng.integers(1, 3))
    cons = random_z_family(n, mc, seed * 2 + 1)
    obj = random_z_family(n, 1, seed * 2 + 2).members[0]
    a = obj.a.entries.copy()
    off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    a[np.diag_indices(n)] = off + rng.uniform(0.5, 1.5)
    obj = QuadraticFunction(SymMatrix(a), obj.b, obj.c)
    dom = Reals(n) if seed % 2 == 0 else NonnegOrthant(n)
    return QpProblem(obj, cons, dom)


class TestRoundTrip:
    def test_solver_fj_kkt_chain(self, cfg):
        solved = 0
        for seed in range(14):
            p = _random_bounded_qp(seed)
            try:
                x_slater = slater_check(p, cfg)
            except IndeterminateOutcomeError:
                continue
            if x_slater is None:
                continue
            res = solve_levelset(p, cfg)
            if res.status != "converged":
                continue
            solved += 1
            fj = fritz_john_search(p, res.x0, cfg)
            assert fj.found, (seed, fj.residuals)
            assert fj.certificate.y > cfg.tol_cert
            u = fj.certificate.u.u / fj.certificate.y
            rep = kkt_check(p, KktCertificate(ConeWeight(u), res.x0), cfg)
            assert rep.valid, (seed, rep.residuals)
            assert rep.sampled_ok
            # Slackness sign structure per constraint.
            cons_vals = p.constraint_values(res.x0)
            assert np.all(np.abs(u * cons_vals) <= 1e-6)
        assert solved >= 5

    def test_sample_feasible_returns_feasible_points(self, cfg):
        p = _p_ball()
        pts = sample_feasible(p, 500, 3)
        assert len(pts) == 500
        assert p.constraints.eval_members(pts).max() <= 0.0
