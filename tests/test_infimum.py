import numpy as np
import pytest
from scipy.optimize import minimize

from gordankit import (
    Box,
    FinitePointSet,
    NonnegOrthant,
    QuadraticFunction,
    Reals,
    SymMatrix,
    UnitSphere,
    eval_quadratic,
    quadratic_infimum,
)
from gordankit import infimum
from gordankit.infimum import (
    N_ENUM_DEFAULT,
    batch_infimum,
    batch_orthant_infimum,
    batch_real_infimum,
    quadratic_infimum_raw,
)
from gordankit.sampling import grid_points, rng_stream, sphere_sample


def _quad(a, b, c):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return QuadraticFunction(SymMatrix(a), b, c)


def _same_result(r1, r2):
    assert r1.value == r2.value and r1.exact == r2.exact
    for f1, f2 in ((r1.argmin, r2.argmin), (r1.direction, r2.direction)):
        assert (f1 is None and f2 is None) or np.array_equal(f1, f2)


class TestRealsInfimum:
    def test_convex_parabola(self):
        res = quadratic_infimum(_quad([[1.0]], [0.0], 0.0), Reals(1))
        assert res.value == 0.0 and res.exact
        assert abs(res.argmin[0]) == 0.0

    def test_unbounded_linear(self):
        res = quadratic_infimum(QuadraticFunction.linear([1.0]), Reals(1))
        assert res.value == -np.inf
        # The reported ray really descends.
        q = QuadraticFunction.linear([1.0])
        assert eval_quadratic(q, 100.0 * res.direction) < -50.0

    def test_indefinite_unbounded(self):
        q = _quad([[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0], 0.0)
        res = quadratic_infimum(q, Reals(2))
        assert res.value == -np.inf
        d = res.direction
        assert 0.5 * d @ np.array([[1.0, 2.0], [2.0, 1.0]]) @ d < 0
        _same_result(res, quadratic_infimum_raw(q.a.entries, q.b, q.c, Reals(2)))

    def test_shifted_minimum(self):
        # c - b^2/(2a) by completing the square.
        res = quadratic_infimum(_quad([[2.0]], [-4.0], 1.0), Reals(1))
        assert res.value == pytest.approx(1.0 - 4.0, abs=1e-14)
        assert res.argmin[0] == pytest.approx(2.0, abs=1e-14)

    def test_singular_in_range(self):
        res = quadratic_infimum(_quad(np.diag([2.0, 0.0]), [-4.0, 0.0], 0.0), Reals(2))
        assert res.value == pytest.approx(-4.0, abs=1e-14)

    def test_singular_out_of_range(self):
        res = quadratic_infimum(_quad(np.diag([2.0, 0.0]), [0.0, 1.0], 0.0), Reals(2))
        assert res.value == -np.inf


class TestOrthantInfimum:
    def test_vertex_solution(self):
        res = quadratic_infimum(_quad([[1.0]], [-2.0], 0.0), NonnegOrthant(1))
        assert res.value == pytest.approx(-2.0, abs=1e-14)
        assert res.argmin[0] == pytest.approx(2.0, abs=1e-14)

    def test_positive_slope_pins_at_zero(self):
        res = quadratic_infimum(QuadraticFunction.linear([1.0], 0.5), NonnegOrthant(1))
        assert res.value == 0.5 and res.argmin[0] == 0.0

    def test_negative_slope_unbounded(self):
        res = quadratic_infimum(QuadraticFunction.linear([-1.0]), NonnegOrthant(1))
        assert res.value == -np.inf

    def test_copositive_indefinite_bounded(self):
        # x1*x2 is indefinite yet nonnegative on the orthant.
        res = quadratic_infimum(_quad([[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0], 0.25), NonnegOrthant(2))
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_negative_curvature_direction_unbounded(self):
        q = _quad([[-0.5]], [3.0], 0.0)
        res = quadratic_infimum(q, NonnegOrthant(1))
        assert res.value == -np.inf
        assert eval_quadratic(q, 1e4 * res.direction) < -1e6
        _same_result(res, quadratic_infimum_raw(q.a.entries, q.b, q.c, NonnegOrthant(1)))

    def test_active_set_matches_convex_oracle(self):
        # Independent oracle: projected convex minimization (L-BFGS-B).
        rng = rng_stream(21, 0)
        for _ in range(120):
            n = int(rng.integers(1, 7))
            g = rng.normal(size=(n, n))
            a = g @ g.T
            b = rng.normal(size=n)
            c = float(rng.normal())
            res = quadratic_infimum(_quad(a, b, c), NonnegOrthant(n))
            sol = minimize(
                lambda x: 0.5 * x @ a @ x + b @ x + c,
                np.ones(n),
                jac=lambda x: a @ x + b,
                bounds=[(0.0, None)] * n,
                method="L-BFGS-B",
                options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 2000},
            )
            assert res.value <= sol.fun + 1e-9
            assert res.value >= sol.fun - 1e-6

    def test_argmin_is_feasible_witness(self):
        rng = rng_stream(22, 0)
        for _ in range(150):
            n = int(rng.integers(1, 5))
            m = rng.normal(size=(n, n))
            q = _quad(m + m.T, rng.normal(size=n), float(rng.normal()))
            res = quadratic_infimum(q, NonnegOrthant(n))
            if np.isfinite(res.value):
                assert res.argmin.min() >= -1e-12
                assert eval_quadratic(q, res.argmin) == pytest.approx(res.value, abs=1e-10)
            else:
                d = res.direction
                assert d is not None and d.min() >= -1e-12

    def test_dominance_chain(self):
        rng = rng_stream(23, 0)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = rng.normal(size=(n, n))
            q = _quad(m + m.T, rng.normal(size=n), float(rng.normal()))
            v_real = quadratic_infimum(q, Reals(n)).value
            v_orth = quadratic_infimum(q, NonnegOrthant(n)).value
            assert v_real <= v_orth + 1e-10
            for _ in range(10):
                x = np.abs(rng.normal(size=n))
                assert v_orth <= eval_quadratic(q, x) + 1e-10


def _pd_case(rng, kind: str, n: int, cond: float = 1e10):
    """A positive definite orthant instance (a, b) of one of four kinds.

    Condition number 1e10 sits at the pseudo-inverse cutoff (1e-10 relative),
    so such matrices land on either side of the positive definite test.
    """
    if kind == "gaussian":
        g = rng.normal(size=(n, n))
        return g @ g.T + 0.1 * np.eye(n), rng.normal(size=n)
    if kind == "integer":
        # Small integers: ties between supports and exactly zero gradients.
        g = rng.integers(-2, 3, size=(n, n)).astype(float)
        return g @ g.T + np.eye(n), rng.integers(-2, 3, size=n).astype(float)
    if kind == "ill-conditioned":
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eig = np.logspace(-np.log10(cond), 0, n) if n > 1 else np.ones(1)
        a = (q * eig) @ q.T
        return (a + a.T) / 2.0, rng.normal(size=n)
    # M-matrix: nonpositive off-diagonal, strictly diagonally dominant.
    a = -rng.uniform(0.0, 1.0, size=(n, n))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + rng.uniform(0.01, 1.0, size=n))
    return a, rng.normal(size=n)


def _kkt_residual(a, b, x):
    """Largest violation of x >= 0, Ax + b >= 0 and x . (Ax + b) = 0."""
    w = a @ x + b
    return max(-x.min(), -w.min(), float(np.abs(x * w).max()))


class TestOrthantActiveSet:
    def test_matches_enumeration_on_pd_data(self):
        rng = rng_stream(24, 0)
        kinds = ("gaussian", "integer", "ill-conditioned", "m-matrix")
        checked = declined = 0
        for trial in range(1200):
            kind = kinds[trial % 4]
            n = int(rng.integers(1, 11)) if trial % 6 == 0 else int(rng.integers(1, 8))
            a, b = _pd_case(rng, kind, n)
            c = float(rng.normal())
            w = np.linalg.eigvalsh(a)
            if not infimum._positive_definite(w):
                continue
            enum_val, _, _ = infimum._orthant_enumeration(a, b, c, w)
            tol = 1e-12 * (1.0 + abs(enum_val))
            found = infimum._orthant_active_set(a, b, c)
            if found is None:
                # Only data at the cutoff may fail the check; it then enumerates.
                assert kind == "ill-conditioned", (trial, kind, n)
                declined += 1
            else:
                assert abs(found[0] - enum_val) <= tol, (trial, kind, n)
            routed = quadratic_infimum_raw(a, b, c, NonnegOrthant(n)).value
            assert abs(routed - enum_val) <= tol, (trial, kind, n)
            checked += 1
        assert checked >= 1000
        assert declined <= checked // 20

    @pytest.mark.parametrize("n", [20, 30])
    def test_high_dimension_kkt_oracle(self, n):
        rng = rng_stream(25, n)
        for kind in ("gaussian", "ill-conditioned", "m-matrix"):
            for _ in range(5):
                a, b = _pd_case(rng, kind, n, cond=1e8)
                c = float(rng.normal())
                res = quadratic_infimum(_quad(a, b, c), NonnegOrthant(n))
                assert res.exact, kind
                x = res.argmin
                scale = 1.0 + np.abs(a).max() * np.abs(x).max() + np.abs(b).max()
                assert _kkt_residual(a, b, x) <= 1e-8 * scale, kind
                assert res.value == pytest.approx(0.5 * x @ a @ x + b @ x + c, abs=1e-12 * scale)
                raw = quadratic_infimum_raw(a, b, c, NonnegOrthant(n)).value
                assert raw == pytest.approx(res.value, abs=1e-12 * (1.0 + abs(res.value)))
                # No sampled orthant point beats the certified value.
                pts = np.abs(rng.normal(size=(200, n))) * rng.uniform(0.0, 2.0, size=(200, 1))
                vals = 0.5 * np.einsum("ki,ij,kj->k", pts, a, pts) + pts @ b + c
                assert res.value <= vals.min() + 1e-9

    def test_singular_and_indefinite_data_use_the_enumeration(self, monkeypatch):
        calls = []
        real = infimum._orthant_active_set

        def spy(a, b, c):
            calls.append(a.shape[0])
            return real(a, b, c)

        monkeypatch.setattr(infimum, "_orthant_active_set", spy)
        rng = rng_stream(26, 0)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            g = rng.normal(size=(n, n - 1))
            singular = _quad(g @ g.T, rng.normal(size=n), 0.0)
            m = rng.normal(size=(n, n))
            indefinite = _quad(m + m.T - 3.0 * np.eye(n), rng.normal(size=n), 0.0)
            for q in (singular, indefinite):
                res = quadratic_infimum(q, NonnegOrthant(n))
                assert res.exact
                quadratic_infimum_raw(q.a.entries, q.b, q.c, NonnegOrthant(n))
        assert calls == []
        g = rng.normal(size=(3, 3))
        quadratic_infimum(_quad(g @ g.T + np.eye(3), rng.normal(size=3), 0.0), NonnegOrthant(3))
        assert calls == [3]

    def test_large_singular_data_is_marked_inexact(self):
        # Past the enumeration cap only positive definite data is exact; the
        # projected-descent fallback runs (and says so) at any dimension.
        n = 17
        g = rng_stream(27, 0).normal(size=(n, n - 2))
        res = quadratic_infimum(_quad(g @ g.T, np.ones(n), 0.0), NonnegOrthant(n))
        assert not res.exact
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_failed_verification_falls_back_to_enumeration(self, monkeypatch):
        monkeypatch.setattr(infimum, "_orthant_active_set", lambda a, b, c: None)
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        res = quadratic_infimum(_quad(a, [-1.0, 1.0], 0.0), NonnegOrthant(2))
        assert res.exact
        assert res.value == pytest.approx(-0.25, abs=1e-15)
        assert res.argmin == pytest.approx([0.5, 0.0], abs=1e-15)


class TestSphereInfimum:
    def test_homogeneous_is_half_min_eigenvalue(self):
        q = _quad(np.diag([2.0, -4.0]), [0.0, 0.0], 1.0)
        res = quadratic_infimum(q, UnitSphere(2))
        assert res.value == pytest.approx(1.0 - 2.0, abs=1e-12)

    def test_one_dimensional_sphere(self):
        q = _quad([[2.0]], [5.0], 0.0)
        res = quadratic_infimum(q, UnitSphere(1))
        assert res.value == pytest.approx(1.0 - 5.0, abs=1e-14)
        assert res.argmin[0] == -1.0

    def test_matches_dense_sampling_low_dim(self):
        rng = rng_stream(31, 0)
        for trial in range(30):
            n = int(rng.integers(2, 4))
            m = rng.normal(size=(n, n))
            q = _quad(m + m.T, rng.normal(size=n), float(rng.normal()))
            res = quadratic_infimum(q, UnitSphere(n))
            pts = sphere_sample(n, 40000, trial)
            vals = 0.5 * np.einsum("ki,ij,kj->k", pts, q.a.entries, pts) + pts @ q.b + q.c
            assert res.value <= vals.min() + 1e-9
            assert res.value >= vals.min() - 0.02  # sampling resolution slack

    def test_global_optimality_certificate(self):
        # Exact condition for the spherical minimizer x*: there is a
        # multiplier mu with (A + mu I) x* = -b and A + mu I >= 0.
        rng = rng_stream(32, 0)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            m = rng.normal(size=(n, n))
            q = _quad(m + m.T, rng.normal(size=n), float(rng.normal()))
            res = quadratic_infimum(q, UnitSphere(n))
            x = res.argmin
            scale = 1.0 + np.abs(q.a.entries).max() + np.abs(q.b).max()
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)
            mu = -float(x @ (q.a.entries @ x + q.b))
            resid = np.linalg.norm((q.a.entries + mu * np.eye(n)) @ x + q.b)
            assert resid <= 1e-7 * scale
            assert np.linalg.eigvalsh(q.a.entries)[0] + mu >= -1e-7 * scale
            assert eval_quadratic(q, x) == pytest.approx(res.value, abs=1e-9)


class TestBoxAndFiniteInfimum:
    def test_box_matches_fine_grid(self):
        rng = rng_stream(41, 0)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            m = rng.normal(size=(n, n))
            q = _quad(m + m.T, rng.normal(size=n), float(rng.normal()))
            lo = -np.abs(rng.normal(size=n)) - 1.0
            hi = np.abs(rng.normal(size=n)) + 1.0
            box = Box(lo, hi)
            res = quadratic_infimum(q, box)
            assert res.exact
            pts = grid_points(box, max(5, int(round(100000 ** (1 / n)))))
            vals = 0.5 * np.einsum("ki,ij,kj->k", pts, q.a.entries, pts) + pts @ q.b + q.c
            assert res.value <= vals.min() + 1e-9
            assert res.value >= vals.min() - 0.05

    def test_finite_point_set(self):
        q = _quad([[2.0]], [0.0], 0.0)
        res = quadratic_infimum(q, FinitePointSet([[-3.0], [0.5], [2.0]]))
        assert res.value == pytest.approx(0.25, abs=1e-15)
        assert res.argmin[0] == 0.5


class TestBatchInfimum:
    def test_batch_matches_scalar_reals_and_orthant(self):
        rng = rng_stream(51, 0)
        k, n = 300, 3
        a = rng.normal(size=(k, n, n))
        a = (a + a.transpose(0, 2, 1)) / 2.0
        g = rng.normal(size=(k // 2, n, n))
        a[: k // 2] = np.einsum("kij,klj->kil", g, g)
        b = rng.normal(size=(k, n))
        c = rng.normal(size=k)
        for dom, batch in ((Reals(n), batch_real_infimum), (NonnegOrthant(n), batch_orthant_infimum)):
            vals, flags = batch(a, b, c)
            for i in range(k):
                if flags[i]:
                    continue
                sv = quadratic_infimum(_quad(a[i], b[i], c[i]), dom).value
                if np.isinf(sv) or np.isinf(vals[i]):
                    assert np.isinf(sv) and np.isinf(vals[i])
                else:
                    assert vals[i] == pytest.approx(sv, rel=1e-9, abs=1e-9)

    def test_batch_finite_point_set(self):
        dom = FinitePointSet([[0.0], [1.0], [2.0]])
        a = np.zeros((2, 1, 1))
        b = np.array([[1.0], [-1.0]])
        c = np.array([0.0, 0.0])
        vals, flags = batch_infimum(a, b, c, dom)
        assert np.array_equal(vals, [0.0, -2.0])
        assert not flags.any()


class TestOneRoutingTable:
    @staticmethod
    def _singular_past_cap(n=N_ENUM_DEFAULT + 1):
        # PSD with the null direction 1/sqrt(n) and b > 0: the infimum is c at 0,
        # but the form is not positive definite, so past the cap it is inexact.
        u = np.ones(n) / np.sqrt(n)
        rng = rng_stream(61, 0)
        g = (np.eye(n) - np.outer(u, u)) @ rng.normal(size=(n, n - 1))
        return g @ g.T / n, np.abs(rng.normal(size=n)), 1.0

    def test_past_the_cap_every_entry_point_descends(self, monkeypatch):
        calls = []
        real = infimum._orthant_enumeration

        def spy(*args):
            calls.append(args[0].shape[0])
            return real(*args)

        monkeypatch.setattr(infimum, "_orthant_enumeration", spy)
        a, b, c = self._singular_past_cap()
        dom = NonnegOrthant(b.shape[0])
        res = quadratic_infimum(_quad(a, b, c), dom)
        raw = quadratic_infimum_raw(a, b, c, dom)
        vals, flags = batch_infimum(np.stack([a, a]), np.stack([b, b]), np.array([c, c]), dom)
        assert not res.exact and not raw.exact
        assert res.value == raw.value == vals[0] == vals[1] == pytest.approx(c, abs=1e-12)
        assert not flags.any()
        assert calls == []
