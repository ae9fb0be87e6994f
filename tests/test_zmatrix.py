import numpy as np
import pytest

from gordankit import (
    Box,
    FinitePointSet,
    NonnegOrthant,
    QuadraticFamily,
    QuadraticFunction,
    Reals,
    SimplexWeight,
    SymMatrix,
    aggregation_point,
    bordered,
    infsup_falsify,
    is_z_matrix,
    random_z_family,
    z_family_report,
)
from gordankit.sampling import rng_stream


class TestBordered:
    def test_pure_square(self):
        q = QuadraticFunction(SymMatrix([[1.0]]), [0.0], 0.0)
        assert np.array_equal(bordered(q).entries, [[1.0, 0.0], [0.0, 0.0]])

    def test_affine(self):
        q = QuadraticFunction.linear([-1.0], 1.0)
        assert np.array_equal(bordered(q).entries, [[0.0, -1.0], [-1.0, 2.0]])

    def test_identity_slope(self):
        q = QuadraticFunction.linear([1.0])
        assert np.array_equal(bordered(q).entries, [[0.0, 1.0], [1.0, 0.0]])


class TestIsZMatrix:
    def test_diagonal_is_z(self):
        flag, offenders = is_z_matrix(SymMatrix([[1.0, 0.0], [0.0, 0.0]]))
        assert flag and offenders == []

    def test_negative_offdiag_is_z(self):
        flag, _ = is_z_matrix(SymMatrix([[0.0, -1.0], [-1.0, 2.0]]))
        assert flag

    def test_positive_offdiag_reported(self):
        flag, offenders = is_z_matrix(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert not flag
        assert offenders == [(0, 1, 1.0)]

    def test_family_report_conjunction(self):
        fam = QuadraticFamily((QuadraticFunction.linear([-1.0]), QuadraticFunction.linear([1.0])))
        report = z_family_report(fam)
        assert [r.is_z for r in report.members] == [True, False]
        assert report.family_is_z is False

    def test_bordered_z_iff_nonpositive_offdiag_and_slope(self):
        rng = rng_stream(8, 0)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            m = rng.normal(size=(n, n))
            a = m + m.T
            b = rng.normal(size=n)
            q = QuadraticFunction(SymMatrix(a), b, float(rng.normal()))
            flag, _ = is_z_matrix(bordered(q))
            iu = np.triu_indices(n, k=1)
            expected = bool(np.all(a[iu] <= 0.0) and np.all(b <= 0.0))
            assert flag == expected


class TestAggregationPoint:
    def test_quadratic_mean_fixture(self):
        x0 = aggregation_point([[1.0, 0.0], [0.0, 1.0]], SimplexWeight([0.5, 0.5]))
        assert np.allclose(x0, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)
        assert x0[0] == pytest.approx(0.70711, abs=5e-6)

    def test_single_point_identity(self):
        x0 = aggregation_point([[2.0, 3.0]], SimplexWeight([1.0]))
        assert np.array_equal(x0, [2.0, 3.0])

    def test_sign_discarded_by_squaring(self):
        x0 = aggregation_point([[-1.0], [1.0]], SimplexWeight([0.5, 0.5]))
        assert x0[0] == pytest.approx(1.0, abs=1e-15)

    def test_lies_in_orthant(self):
        rng = rng_stream(9, 0)
        for _ in range(50):
            pts = rng.uniform(-3, 3, size=(4, 3))
            t = rng.dirichlet(np.ones(4))
            assert aggregation_point(pts, SimplexWeight(t)).min() >= 0.0


def _aggregation_gaps(fam, pts, t):
    """The aggregation point x0 and q_j(x0) - sum_i t_i q_j(x_i) for every member."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x0 = aggregation_point(pts, t)
    lhs = fam.eval_members(x0.reshape(1, -1))[:, 0]
    return x0, lhs - fam.eval_members(pts) @ t.t


class TestVerifyAggregationInequality:
    def test_parabola_equality_case(self):
        fam = QuadraticFamily((QuadraticFunction(SymMatrix([[1.0]]), [0.0], 0.0),))
        _, gaps = _aggregation_gaps(fam, [[-1.0], [1.0]], SimplexWeight([0.5, 0.5]))
        assert gaps.max() == pytest.approx(0.0, abs=1e-12)

    def test_negative_slope_strict_case(self):
        fam = QuadraticFamily((QuadraticFunction.linear([-1.0]),))
        x0, gaps = _aggregation_gaps(fam, [[1.0], [4.0]], SimplexWeight([0.5, 0.5]))
        assert gaps.max() <= 0.0
        assert x0[0] == pytest.approx(np.sqrt(8.5), abs=1e-12)
        assert -x0[0] <= -2.5 + 1e-12

    def test_fails_for_non_z_family(self):
        # A positive slope breaks the bordered Z condition: x0 = 1 for the
        # points -1 and 1, so q(x0) = 1 exceeds the average value 0.
        fam = QuadraticFamily((QuadraticFunction.linear([1.0]),))
        assert not z_family_report(fam).family_is_z
        _, gaps = _aggregation_gaps(fam, [[-1.0], [1.0]], SimplexWeight([0.5, 0.5]))
        assert gaps.max() == pytest.approx(1.0, abs=1e-12)

    def test_thousand_random_z_families(self):
        rng = rng_stream(10, 0)
        worst = -np.inf
        for i in range(1000):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 6))
            k = int(rng.integers(1, 5))
            fam = random_z_family(n, m, int(rng.integers(0, 2**63)))
            pts = rng.uniform(-3.0, 3.0, size=(k, n))
            t = SimplexWeight(rng.dirichlet(np.ones(k)))
            x0, gaps = _aggregation_gaps(fam, pts, t)
            assert gaps.max() <= 1e-9, (i, gaps.max())
            worst = max(worst, gaps.max())
            # Coordinatewise dominance |sum_j t_j x^(j)| <= x0 (Cauchy-Schwarz).
            assert np.all(np.abs(t.t @ pts) <= x0 + 1e-12)
        assert worst <= 1e-9


class TestInfsupFalsify:
    def test_two_point_violation(self, cfg):
        fam = QuadraticFamily((QuadraticFunction.linear([1.0]), QuadraticFunction.linear([-1.0])))
        report = infsup_falsify(fam, FinitePointSet([[-1.0], [1.0]]), cfg)
        assert report.status == "violation-found"
        assert report.lhs_certified
        v = report.violation
        assert v.lhs == pytest.approx(1.0)
        assert v.rhs == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(v.t.t, [0.5, 0.5])
        assert sorted(v.points.reshape(-1).tolist()) == [-1.0, 1.0]

    def test_single_member_verified(self, cfg):
        fam = QuadraticFamily((QuadraticFunction(SymMatrix([[1.0]]), [0.0], 0.0),))
        report = infsup_falsify(fam, Reals(1), cfg)
        assert report.status == "verified-on-samples"

    def test_z_family_on_orthant_never_violates(self, cfg):
        for seed in range(20):
            fam = random_z_family(2, 3, seed)
            report = infsup_falsify(fam, NonnegOrthant(2), cfg)
            assert report.status == "verified-on-samples", seed

    def test_z_family_on_reals_never_violates(self, cfg):
        # The aggregation construction covers any domain containing the orthant.
        for seed in range(10):
            fam = random_z_family(2, 2, 500 + seed)
            report = infsup_falsify(fam, Reals(2), cfg)
            assert report.status == "verified-on-samples", seed

    def test_box_violation_is_certified(self, cfg):
        # Concave members -(x-1)^2 and -(x+1)^2 on [-1, 1]: the pointwise
        # max has infimum -1 at the origin, while weights (1/2, 1/2) at the
        # endpoints give max_j sum t q_j = -2.  Violation of size 1.
        fam = QuadraticFamily((
            QuadraticFunction(SymMatrix([[-2.0]]), [2.0], -1.0),
            QuadraticFunction(SymMatrix([[-2.0]]), [-2.0], -1.0),
        ))
        report = infsup_falsify(fam, Box([-1.0], [1.0]), cfg)
        assert report.status == "violation-found"
        assert report.lhs_certified
        assert report.lhs_bound == pytest.approx(-1.0, abs=1e-2)
        assert report.violation.rhs <= report.lhs_bound - cfg.tol_band
