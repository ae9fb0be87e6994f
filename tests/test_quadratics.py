import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gordankit import (
    ConeWeight,
    DimensionMismatchError,
    QuadraticFamily,
    QuadraticFunction,
    SimplexWeight,
    SymMatrix,
    WeightError,
    aggregate,
    eval_quadratic,
    is_psd,
    sym_eigen,
)
from gordankit.quadratics import (
    domain_from_json,
    domain_to_json,
    quadratic_from_json,
    quadratic_to_json,
)
from gordankit.sampling import random_convex_family, rng_stream


class TestSymMatrix:
    def test_symmetrizes_input(self):
        m = SymMatrix([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        assert m.entries[0, 1] == m.entries[1, 0]

    def test_symmetrization_is_idempotent_bit_exact(self):
        rng = rng_stream(7, 0)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            raw = rng.normal(size=(n, n))
            first = SymMatrix(raw + raw.T)
            second = SymMatrix(first.entries)
            assert np.array_equal(first.entries, second.entries)

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetry"):
            SymMatrix([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymMatrix([[np.nan]])

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            SymMatrix([[1.0, 2.0]])

    def test_entries_are_read_only(self):
        m = SymMatrix.identity(2)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestSymEigen:
    def test_identity(self):
        w, _ = sym_eigen(SymMatrix.identity(2))
        assert np.allclose(w, [1.0, 1.0])

    def test_diagonal(self):
        w, _ = sym_eigen(SymMatrix(np.diag([-3.0, 5.0])))
        assert np.allclose(w, [-3.0, 5.0])

    def test_characteristic_polynomial_case(self):
        # Independent oracle: roots of det(M - t I) = t^2 - 2t - 3.
        roots = np.sort(np.roots([1.0, -2.0, -3.0]))
        w, v = sym_eigen(SymMatrix([[1.0, 2.0], [2.0, 1.0]]))
        assert np.allclose(w, roots)
        assert np.allclose(v @ np.diag(w) @ v.T, [[1.0, 2.0], [2.0, 1.0]])

    def test_residual_bound_on_random_matrices(self):
        rng = rng_stream(11, 0)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            m = rng.normal(size=(n, n))
            sym = SymMatrix(m + m.T)
            w, v = sym_eigen(sym)
            scale = 1.0 + np.abs(sym.entries).max()
            resid = np.abs(sym.entries @ v - v @ np.diag(w)).max()
            assert resid <= 1e-10 * scale
            assert np.all(np.diff(w) >= -1e-14 * scale)


class TestIsPsd:
    def test_identity_true(self):
        assert is_psd(SymMatrix.identity(3))

    def test_negative_identity_false(self):
        assert not is_psd(SymMatrix(-np.eye(3)))

    def test_indefinite_false(self):
        # Minimum eigenvalue is -1 (characteristic polynomial oracle above).
        assert not is_psd(SymMatrix([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            is_psd(SymMatrix.identity(1), tol=-1.0)


class TestEvalQuadratic:
    def test_pure_square(self):
        q = QuadraticFunction(SymMatrix([[2.0]]), [0.0], 0.0)
        assert eval_quadratic(q, [3.0]) == 9.0

    def test_linear(self):
        q = QuadraticFunction.linear([1.0], -1.0)
        assert eval_quadratic(q, [1.0]) == 0.0

    def test_two_dimensional(self):
        q = QuadraticFunction(SymMatrix(np.eye(2)), [-1.0, -1.0], 2.0)
        assert eval_quadratic(q, [1.0, 1.0]) == 1.0

    def test_dimension_mismatch(self):
        q = QuadraticFunction.linear([1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            eval_quadratic(q, [1.0])


class TestAggregate:
    def test_vertex_weight_returns_member(self):
        q1 = QuadraticFunction(SymMatrix([[1.0]]), [2.0], 3.0)
        q2 = QuadraticFunction(SymMatrix([[5.0]]), [-1.0], 0.0)
        fam = QuadraticFamily((q1, q2))
        agg = aggregate(fam, SimplexWeight([1.0, 0.0]))
        assert np.array_equal(agg.a.entries, q1.a.entries)
        assert np.array_equal(agg.b, q1.b)
        assert agg.c == q1.c

    def test_cancellation(self):
        fam = QuadraticFamily((QuadraticFunction.linear([1.0]), QuadraticFunction.linear([-1.0])))
        agg = aggregate(fam, SimplexWeight([0.5, 0.5]))
        assert agg.b[0] == 0.0 and agg.c == 0.0

    def test_weighted_matrix_sum(self):
        q1 = QuadraticFunction(SymMatrix([[1.0]]), [0.0], 0.0)
        q2 = QuadraticFunction(SymMatrix([[-1.0]]), [0.0], 0.0)
        agg = aggregate(QuadraticFamily((q1, q2)), SimplexWeight([0.75, 0.25]))
        assert agg.a.entries[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert eval_quadratic(agg, [1.0]) == pytest.approx(0.25, abs=1e-15)

    def test_length_mismatch(self):
        fam = QuadraticFamily((QuadraticFunction.linear([1.0]),))
        with pytest.raises(DimensionMismatchError):
            aggregate(fam, np.array([0.5, 0.5]))

    @given(st.integers(0, 10_000))
    def test_pointwise_linearity(self, seed):
        rng = rng_stream(seed, 1)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        members = []
        for _ in range(m):
            g = rng.normal(size=(n, n))
            members.append(QuadraticFunction(SymMatrix(g + g.T), rng.normal(size=n), rng.normal()))
        fam = QuadraticFamily(tuple(members))
        w = rng.dirichlet(np.ones(m))
        agg = aggregate(fam, SimplexWeight(w))
        for _ in range(5):
            x = rng.normal(size=n)
            direct = sum(wj * eval_quadratic(qj, x) for wj, qj in zip(w, fam.members))
            assert eval_quadratic(agg, x) == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestWeights:
    def test_simplex_clamps_noise(self):
        w = SimplexWeight([0.5 + 1e-12, 0.5, -1e-12])
        assert w.t.min() >= 0.0
        assert w.t.sum() == pytest.approx(1.0, abs=1e-15)

    def test_simplex_rejects_bad_sum(self):
        with pytest.raises(WeightError):
            SimplexWeight([0.5, 0.25])

    def test_simplex_rejects_negative(self):
        with pytest.raises(WeightError):
            SimplexWeight([1.5, -0.5])

    def test_cone_weight_nonneg(self):
        w = ConeWeight([0.0, 2.0, 1e-12])
        assert w.u.min() >= 0.0
        with pytest.raises(WeightError):
            ConeWeight([-1.0])

    @given(st.integers(0, 5_000))
    def test_simplex_normalization_exact(self, seed):
        rng = rng_stream(seed, 2)
        m = int(rng.integers(1, 7))
        t = rng.dirichlet(np.ones(m))
        w = SimplexWeight(t + rng.uniform(-1e-10, 1e-10, size=m))
        assert abs(w.t.sum() - 1.0) <= 1e-15


class TestFamily:
    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            QuadraticFamily(())

    def test_dim_consistency(self):
        with pytest.raises(DimensionMismatchError):
            QuadraticFamily((QuadraticFunction.linear([1.0]), QuadraticFunction.linear([1.0, 2.0])))

    def test_eval_members_matches_scalar(self):
        rng = rng_stream(3, 3)
        g = rng.normal(size=(2, 2))
        fam = QuadraticFamily((
            QuadraticFunction(SymMatrix(g + g.T), rng.normal(size=2), 1.5),
            QuadraticFunction.linear(rng.normal(size=2), -0.5),
        ))
        pts = rng.normal(size=(7, 2))
        table = fam.eval_members(pts)
        for j, q in enumerate(fam.members):
            for k in range(7):
                assert table[j, k] == pytest.approx(eval_quadratic(q, pts[k]), rel=1e-14)

    def test_eval_members_memory_stays_per_member(self):
        # 200,000 points: temporaries must stay (k, n)-sized, one member at a
        # time. A stacked (m, k, n) product peaks near 7x the input's size.
        fam = random_convex_family(3, 3, 5)
        pts = rng_stream(11, 0).normal(size=(200_000, 3))
        tracemalloc.start()
        try:
            table = fam.eval_members(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * pts.nbytes, f"peak {peak / 1e6:.1f} MB"
        for j, q in enumerate(fam.members):
            for k in range(0, len(pts), 1000):
                assert table[j, k] == pytest.approx(eval_quadratic(q, pts[k]), rel=1e-12)


class TestJsonEncoding:
    def test_quadratic_round_trip(self):
        q = QuadraticFunction(SymMatrix([[1.0, -0.5], [-0.5, 2.0]]), [3.0, -4.0], 0.25)
        q2 = quadratic_from_json(quadratic_to_json(q))
        assert np.array_equal(q2.a.entries, q.a.entries)
        assert np.array_equal(q2.b, q.b)
        assert q2.c == q.c

    def test_quadratic_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            quadratic_from_json({"A": [[1.0]], "b": [0.0], "c": 0.0, "d": 1})

    @pytest.mark.parametrize("dom_json", [
        {"type": "reals", "dim": 2},
        {"type": "nonneg_orthant", "dim": 3},
        {"type": "unit_sphere", "dim": 2},
        {"type": "box", "lo": [0.0, -1.0], "hi": [1.0, 1.0]},
        {"type": "finite_points", "points": [[-1.0], [1.0]]},
    ])
    def test_domain_round_trip(self, dom_json):
        dom = domain_from_json(dom_json)
        assert domain_to_json(dom) == dom_json

    def test_domain_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            domain_from_json({"type": "torus", "dim": 2})
