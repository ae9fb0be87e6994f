import numpy as np
import pytest

from gordankit import (
    Box,
    EngineConfig,
    QuadraticFamily,
    QuadraticFunction,
    SymMatrix,
    aggregate,
    brute_conjugate_sup,
    conjugate_quadratic,
    conjugate_sup_min,
    eval_quadratic,
)
from gordankit.sampling import (
    random_convex_family,
    random_z_family,
    rng_stream,
    simplex_lattice_array,
)


def _slopes():
    return QuadraticFamily((QuadraticFunction.linear([1.0]), QuadraticFunction.linear([-1.0])))


class TestConjugateQuadratic:
    def test_self_conjugate_square(self):
        q = QuadraticFunction(SymMatrix([[1.0]]), [0.0], 0.0)
        val = conjugate_quadratic(q, [1.0])
        assert val.is_finite and val.value == pytest.approx(0.5, abs=1e-14)
        assert val.argsup[0] == pytest.approx(1.0, abs=1e-12)

    def test_linear_conjugate_is_indicator(self):
        q = QuadraticFunction.linear([1.0])
        hit = conjugate_quadratic(q, [1.0])
        assert hit.is_finite and hit.value == pytest.approx(0.0, abs=1e-14)
        miss = conjugate_quadratic(q, [0.0])
        assert not miss.is_finite

    def test_completed_square(self):
        q = QuadraticFunction(SymMatrix([[1.0]]), [1.0], 0.0)
        val = conjugate_quadratic(q, [3.0])
        assert val.value == pytest.approx(2.0, abs=1e-13)

    def test_nonconvex_is_infinite_with_direction(self):
        q = QuadraticFunction(SymMatrix([[-1.0]]), [0.0], 0.0)
        val = conjugate_quadratic(q, [0.0])
        assert not val.is_finite
        d = val.direction
        # y.x - q grows without bound along the reported ray.
        grow = [float(np.array([t]) @ d * 0.0 - eval_quadratic(q, t * d)) for t in (1.0, 10.0)]
        assert grow[1] > grow[0]

    def test_witness_consistency(self):
        rng = rng_stream(61, 0)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            g = rng.normal(size=(n, n))
            q = QuadraticFunction(SymMatrix(g @ g.T + 0.1 * np.eye(n)), rng.normal(size=n),
                                  float(rng.normal()))
            y = rng.normal(size=n)
            val = conjugate_quadratic(q, y)
            assert val.is_finite
            x = val.argsup
            assert float(y @ x - eval_quadratic(q, x)) == pytest.approx(val.value, abs=1e-9)

    def test_matches_brute_supremum_on_psd(self):
        rng = rng_stream(62, 0)
        for trial in range(500):
            n = int(rng.integers(1, 3))
            g = rng.normal(size=(n, n))
            q = QuadraticFunction(SymMatrix(g @ g.T + 0.05 * np.eye(n)), rng.normal(size=n),
                                  float(rng.normal()))
            y = rng.normal(size=n)
            val = conjugate_quadratic(q, y)
            fam = QuadraticFamily((q,))
            brute = brute_conjugate_sup(fam, y, resolution=201)
            if not brute.boundary_hit:
                assert val.value == pytest.approx(brute.value, abs=1e-6), trial


class TestConjugateSupMin:
    def test_opposing_slopes_at_zero(self, cfg):
        res = conjugate_sup_min(_slopes(), [0.0], cfg)
        assert res.value.is_finite and res.value.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(res.t.t, [0.5, 0.5])

    def test_opposing_slopes_matches_slope(self, cfg):
        res = conjugate_sup_min(_slopes(), [0.5], cfg)
        assert res.value.value == pytest.approx(0.0, abs=1e-12)
        assert res.t.t[0] == pytest.approx(0.75, abs=1e-9)

    def test_vertex_choice(self, cfg):
        q1 = QuadraticFunction(SymMatrix([[1.0]]), [0.0], 0.0)
        q2 = QuadraticFunction(SymMatrix([[1.0]]), [0.0], -1.0)
        res = conjugate_sup_min(QuadraticFamily((q1, q2)), [0.0], cfg)
        assert res.value.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(res.t.t, [1.0, 0.0])

    def test_reports_infinite_minimum(self, cfg):
        fam = QuadraticFamily((QuadraticFunction.linear([1.0]), QuadraticFunction.linear([2.0])))
        res = conjugate_sup_min(fam, [-1.0], cfg)
        assert not res.value.is_finite

    def test_finite_minimum_off_an_all_infinite_lattice(self):
        # q1 = x + 1, q2 = -3x + 1 at y = 0: the aggregate conjugate is finite
        # only at t = (0.75, 0.25), where it equals -1 = (max_j q_j)*(0).  The
        # resolution-2 lattice {(0, 1), (1/2, 1/2), (1, 0)} misses it, so the
        # search starts from the barycentre, as the certificate search does.
        fam = QuadraticFamily((QuadraticFunction.linear([1.0], 1.0),
                               QuadraticFunction.linear([-3.0], 1.0)))
        res = conjugate_sup_min(fam, [0.0], EngineConfig(simplex_grid_resolution=2))
        assert res.value.is_finite and res.value.value == pytest.approx(-1.0, abs=1e-9)
        assert np.abs(res.t.t - [0.75, 0.25]).max() <= 1e-9

    def test_route_flags(self, cfg):
        zfam = random_z_family(2, 2, 5)
        res = conjugate_sup_min(zfam, [0.5, 0.25], cfg)
        assert res.z_route
        cfam = random_convex_family(2, 2, 5)
        res2 = conjugate_sup_min(cfam, [0.5, 0.25], cfg)
        assert res2.convex_route


class TestBruteConjugateSup:
    def test_opposing_slopes(self):
        res = brute_conjugate_sup(_slopes(), [0.0], Box([-2.0], [2.0]))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_single_square(self):
        fam = QuadraticFamily((QuadraticFunction(SymMatrix([[1.0]]), [0.0], 0.0),))
        res = brute_conjugate_sup(fam, [1.0], Box([-4.0], [4.0]))
        assert res.value == pytest.approx(0.5, abs=1e-10)
        assert res.argmax[0] == pytest.approx(1.0, abs=1e-7)

    def test_two_member_sup(self):
        q1 = QuadraticFunction(SymMatrix([[1.0]]), [0.0], 0.0)
        q2 = QuadraticFunction(SymMatrix([[1.0]]), [0.0], -1.0)
        res = brute_conjugate_sup(QuadraticFamily((q1, q2)), [0.0], Box([-4.0], [4.0]))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_box_doubles_on_boundary(self):
        fam = QuadraticFamily((QuadraticFunction.linear([1.0]),))
        res = brute_conjugate_sup(fam, [0.0], Box([-1.0], [1.0]))
        assert res.doublings == 3 and res.boundary_hit


class TestFormulaProperties:
    def test_one_sided_bound_always(self, cfg):
        # brute <= conjugate(aggregate) for every lattice weight, with no
        # convexity hypothesis at all.
        rng = rng_stream(63, 0)
        for trial in range(40):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, 4))
            members = []
            for _ in range(m):
                g = rng.normal(size=(n, n))
                members.append(QuadraticFunction(SymMatrix(g + g.T), rng.normal(size=n),
                                                 float(rng.normal())))
            fam = QuadraticFamily(tuple(members))
            y = rng.normal(size=n)
            brute = brute_conjugate_sup(fam, y)
            for t in simplex_lattice_array(m, 8):
                agg = aggregate(fam, t)
                cv = conjugate_quadratic(agg, y)
                bound = cv.value if cv.is_finite else np.inf
                assert brute.value <= bound + 1e-8, trial

    def test_formula_equality_convex(self, cfg):
        for seed in range(25):
            fam = random_convex_family(2, 2, 40 + seed)
            y = rng_stream(seed, 71).normal(size=2)
            res = conjugate_sup_min(fam, y, cfg)
            brute = brute_conjugate_sup(fam, y, resolution=201)
            if res.value.is_finite and not brute.boundary_hit:
                assert res.value.value == pytest.approx(brute.value, abs=1e-4), seed

    def test_formula_equality_z_route(self, cfg):
        for seed in range(25):
            zf = random_z_family(2, 2, 80 + seed)
            a0 = zf.members[0].a.entries.copy()
            off = np.abs(a0).sum(axis=1) - np.abs(np.diag(a0))
            a0[np.diag_indices(2)] = off + 0.75
            fam = QuadraticFamily(
                (QuadraticFunction(SymMatrix(a0), zf.members[0].b, zf.members[0].c),)
                + zf.members[1:]
            )
            y = np.abs(rng_stream(seed, 72).normal(size=2))
            res = conjugate_sup_min(fam, y, cfg)
            brute = brute_conjugate_sup(fam, y, resolution=201)
            if res.value.is_finite and not brute.boundary_hit:
                assert res.z_route
                assert res.value.value == pytest.approx(brute.value, abs=1e-4), seed
