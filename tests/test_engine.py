import numpy as np
import pytest

from gordankit import (
    Box,
    Certificate,
    EngineConfig,
    FeasiblePoint,
    FinitePointSet,
    Indeterminate,
    NonnegOrthant,
    QuadraticFamily,
    QuadraticFunction,
    Reals,
    SimplexWeight,
    SymMatrix,
    UnitSphere,
    aggregate,
    characterization_probe,
    decide_alternative,
    quadratic_infimum,
    yuan_alternative,
    yuan_pencil_max,
)
from gordankit import engine, infimum
from gordankit.errors import DimensionMismatchError
from gordankit.infimum import batch_infimum
from gordankit.sampling import (
    random_convex_family,
    rng_stream,
    simplex_lattice_array,
    sphere_sample,
)


def _linear_family(*slopes_and_consts):
    return QuadraticFamily(tuple(QuadraticFunction.linear([s], c) for s, c in slopes_and_consts))


class TestEngineConfig:
    def test_defaults_valid(self):
        cfg = EngineConfig()
        assert cfg.simplex_grid_resolution == 32
        assert cfg.multistart_count == 64
        assert cfg.refine_iters == 200
        assert cfg.alpha == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"simplex_grid_resolution": 0},
        {"multistart_count": -1},
        {"tol_cert": 0.0},
        {"delta_strict": -1e-9},
        {"seed": -5},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)


class TestDecideAlternative:
    def test_feasible_point_single_parabola(self, cfg):
        fam = QuadraticFamily((QuadraticFunction(SymMatrix([[1.0]]), [0.0], -1.0),))
        out = decide_alternative(fam, Reals(1), cfg)
        assert isinstance(out, FeasiblePoint)
        assert out.margin == pytest.approx(-1.0, abs=1e-9)

    def test_certificate_for_opposing_slopes(self, cfg):
        out = decide_alternative(_linear_family((1.0, 0.0), (-1.0, 0.0)), Reals(1), cfg)
        assert isinstance(out, Certificate)
        assert np.allclose(out.weights.t, [0.5, 0.5])
        assert out.inf_value >= -cfg.tol_cert

    def test_feasible_point_for_shifted_slopes(self, cfg):
        out = decide_alternative(_linear_family((1.0, -1.0), (-1.0, -1.0)), Reals(1), cfg)
        assert isinstance(out, FeasiblePoint)
        assert out.margin == pytest.approx(-1.0, abs=1e-9)

    def test_alpha_shift_changes_outcome(self, cfg):
        from dataclasses import replace

        fam = _linear_family((1.0, 0.0), (-1.0, 0.0))
        # At level 0.5 the origin satisfies max(x, -x) = 0 < 0.5.
        out = decide_alternative(fam, Reals(1), replace(cfg, alpha=0.5))
        assert isinstance(out, FeasiblePoint)
        assert out.margin == pytest.approx(-0.5, abs=1e-9)
        # At level -0.5 no point has max < -0.5, but the zero aggregate
        # clears inf >= -0.5.
        out2 = decide_alternative(fam, Reals(1), replace(cfg, alpha=-0.5))
        assert isinstance(out2, Certificate)
        assert out2.inf_value == pytest.approx(0.5, abs=1e-9)

    def test_dimension_mismatch(self, cfg):
        fam = _linear_family((1.0, 0.0))
        with pytest.raises(DimensionMismatchError):
            decide_alternative(fam, Reals(2), cfg)

    def test_certificate_reverifies_via_public_api(self, cfg):
        fam = _linear_family((1.0, 0.0), (-1.0, 0.0))
        out = decide_alternative(fam, Reals(1), cfg)
        agg = aggregate(fam, out.weights)
        assert quadratic_infimum(agg, Reals(1)).value >= -cfg.tol_cert

    def test_positive_scaling_preserves_outcome_class(self, cfg):
        for seed in range(25):
            fam = random_convex_family(2, 2, seed)
            dom = Reals(2) if seed % 2 == 0 else NonnegOrthant(2)
            base = decide_alternative(fam, dom, cfg)
            if isinstance(base, Indeterminate):
                continue
            for beta in (0.25, 4.0):
                scaled = decide_alternative(fam.scaled(beta), dom, cfg)
                assert type(scaled) is type(base), (seed, beta)

    def test_determinism_bytes(self, cfg):
        fam = random_convex_family(3, 3, 77)
        a = decide_alternative(fam, NonnegOrthant(3), cfg)
        b = decide_alternative(fam, NonnegOrthant(3), cfg)
        assert type(a) is type(b)
        if isinstance(a, FeasiblePoint):
            assert a.x.tobytes() == b.x.tobytes() and a.margin == b.margin
        elif isinstance(a, Certificate):
            assert a.weights.t.tobytes() == b.weights.t.tobytes()
            assert a.inf_value == b.inf_value

    def test_exclusivity_on_random_families(self, cfg):
        # When one side is decided, an intensified opposite-side search must
        # not find a witness beyond the band.
        for seed in range(30):
            fam = random_convex_family(2, 2, 1000 + seed)
            dom = Reals(2) if seed % 2 == 0 else NonnegOrthant(2)
            out = decide_alternative(fam, dom, cfg)
            if isinstance(out, FeasiblePoint):
                lattice = simplex_lattice_array(fam.size, 64)
                a_s, b_s, c_s = fam.coefficient_stacks()
                from gordankit.infimum import batch_infimum

                a = np.einsum("km,mij->kij", lattice, a_s)
                vals, flags = batch_infimum(a, lattice @ b_s, lattice @ c_s, dom)
                assert vals.max() < cfg.tol_band
            elif isinstance(out, Certificate):
                pts = rng_stream(seed, 60).uniform(-8, 8, size=(4000, 2))
                if isinstance(dom, NonnegOrthant):
                    pts = np.abs(pts)
                sups = fam.eval_members(pts).max(axis=0)
                assert sups.min() > -cfg.tol_band


class TestCertificateSoundness:
    @staticmethod
    def _box_defect():
        # 1/2 |x - 0.37 * 1|^2 on [-1, 1]^10: 3^10 faces exceed the box budget,
        # so the box infimum is a grid value (0.6845), not the true 0.
        n = 10
        centre = np.full(n, 0.37)
        q = QuadraticFunction(SymMatrix(np.eye(n)), -centre, 0.5 * float(centre @ centre))
        return QuadraticFamily((q,)), Box(-np.ones(n), np.ones(n))

    def test_inexact_infimum_gives_no_certificate(self, cfg):
        fam, box = self._box_defect()
        assert not quadratic_infimum(fam.members[0], box).exact
        out = decide_alternative(fam, box, cfg)
        assert isinstance(out, Indeterminate)

    def test_inexact_infimum_is_not_a2(self, cfg):
        fam, box = self._box_defect()
        report = characterization_probe(fam, box, 0.0, cfg)
        assert not report.a2_holds

    def test_past_the_orthant_cap_no_route_enumerates(self, cfg, monkeypatch):
        # Members share the null direction 1/sqrt(n) and have b > 0: every
        # aggregate is singular PSD with infimum 1 at 0, which past the cap
        # only the (inexact) projected descent reports, on every route.
        n = infimum.N_ENUM_DEFAULT + 1
        u = np.ones(n) / np.sqrt(n)
        rng = rng_stream(61, 0)
        members = []
        for _ in range(2):
            g = (np.eye(n) - np.outer(u, u)) @ rng.normal(size=(n, n - 1))
            members.append(QuadraticFunction(SymMatrix(g @ g.T / n), np.abs(rng.normal(size=n)), 1.0))
        calls = []
        enumerate_faces = infimum._orthant_enumeration

        def spy(*args):
            calls.append(args[0].shape[0])
            return enumerate_faces(*args)

        monkeypatch.setattr(infimum, "_orthant_enumeration", spy)
        out = decide_alternative(QuadraticFamily(tuple(members)), NonnegOrthant(n), cfg)
        assert isinstance(out, Indeterminate)
        assert calls == []

    def test_reals_past_sixteen_dimensions(self, cfg):
        fam = random_convex_family(17, 2, 3).shifted(-3.0)
        out = decide_alternative(fam, Reals(17), cfg)
        assert isinstance(out, (FeasiblePoint, Certificate, Indeterminate))
        if isinstance(out, Certificate):
            agg = aggregate(fam, out.weights)
            res = quadratic_infimum(agg, Reals(17))
            assert res.exact and res.value >= -cfg.tol_cert

    def test_blocked_lattice_values_equal_one_batch(self):
        fam = random_convex_family(3, 4, 8)
        dom = Reals(3)
        lattice = simplex_lattice_array(4, 32)
        assert len(lattice) > engine.LATTICE_BLOCK
        blocked = engine._lattice_infima(fam, lattice, dom)
        whole, flags = batch_infimum(*engine._aggregate_stacks(fam, lattice), dom)
        for i in np.where(flags)[0]:
            whole[i] = engine._aggregate_inf_scalar(fam, lattice[i], dom)
        assert np.array_equal(blocked, whole)


class TestSimplexPairwiseMax:
    def test_min_of_affine_pieces_closed_form(self):
        # h = min(t1 + (t2 - 0.3), t1 - (t2 - 0.3), 1 - t1)
        #   = min(t1 - |t2 - 0.3|, 1 - t1): the maximum 1/2 is at t2 = 0.3,
        # t1 = 1/2, so t* = (0.5, 0.3, 0.2).
        def h(t):
            return min(t[0] + (t[1] - 0.3), t[0] - (t[1] - 0.3), 1.0 - t[0])

        t0 = np.full(3, 1.0 / 3.0)
        t, val = engine.simplex_pairwise_max(h, t0, h(t0))
        assert np.abs(t - [0.5, 0.3, 0.2]).max() <= 1e-9
        assert val == pytest.approx(0.5, abs=1e-9)
        assert val == h(t)
        assert np.array_equal(t0, np.full(3, 1.0 / 3.0))  # the start is not modified

    def test_finds_finite_region_inside_a_slice(self):
        # -inf outside t1 in [0.7, 0.9]; a search over the whole slice that
        # is not bracketed first moves away from the finite region on ties.
        def h(t):
            return -(t[0] - 0.85) ** 2 if 0.7 <= t[0] <= 0.9 else -np.inf

        t, val = engine.simplex_pairwise_max(h, np.array([0.5, 0.5]), -np.inf)
        assert np.abs(t - [0.85, 0.15]).max() <= 1e-9
        assert np.isfinite(val) and val == h(t)

    def test_stop_at_returns_once_reached(self):
        seen = []

        def h(t):
            seen.append(t.copy())
            return 1.0 - float(((t - [0.6, 0.3, 0.1]) ** 2).sum())

        t0 = np.array([0.1, 0.8, 0.1])  # h = 0.5; the pair (0, 1) slice reaches 1
        t, val = engine.simplex_pairwise_max(h, t0, h(t0), stop_at=0.9)
        assert val >= 0.9
        assert all(w[2] == 0.1 for w in seen)  # no pair after (0, 1) was searched
        seen.clear()
        t_full, val_full = engine.simplex_pairwise_max(h, t0, h(t0))
        assert any(w[2] != 0.1 for w in seen)
        assert val_full >= val

    def test_single_member_returns_start(self):
        def h(t):
            raise AssertionError("h must not be evaluated for m = 1")

        t0 = np.array([1.0])
        t, val = engine.simplex_pairwise_max(h, t0, 0.25)
        assert t is t0 and val == 0.25

    def test_start_at_stop_at_returns_start(self):
        def h(t):
            raise AssertionError("h must not be evaluated when the start reaches stop_at")

        t0 = np.array([0.2, 0.3, 0.5])
        t, val = engine.simplex_pairwise_max(h, t0, 0.0, stop_at=0.0)
        assert t is t0 and val == 0.0


@pytest.fixture
def infimum_calls(monkeypatch):
    """Count the engine's exact (scalar) and batch infimum calls."""
    calls = {"exact": 0, "batch": 0}

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "quadratic_infimum", counted("exact", engine.quadratic_infimum))
    monkeypatch.setattr(engine, "quadratic_infimum_raw",
                        counted("exact", engine.quadratic_infimum_raw))
    monkeypatch.setattr(engine, "batch_infimum", counted("batch", engine.batch_infimum))
    return calls


class TestCertificateSearchOrder:
    def test_barycentre_certificate_skips_the_lattice(self, cfg, infimum_calls):
        fam = random_convex_family(3, 3, 1).shifted(-3.0)
        out = decide_alternative(fam, Reals(3), cfg)
        assert isinstance(out, Certificate)
        assert np.array_equal(out.weights.t, np.full(3, 1.0 / 3.0))
        assert infimum_calls == {"exact": 1, "batch": 0}

    def test_unbounded_barycentre_falls_back_to_the_lattice(self, cfg, infimum_calls):
        # q1 = x + 1, q2 = -3x + 1: the aggregate t1 q1 + t2 q2 is bounded on
        # the reals only at t1 = 3 t2, i.e. t = (0.75, 0.25), where it equals 1.
        fam = _linear_family((1.0, 1.0), (-3.0, 1.0))
        bary = quadratic_infimum(aggregate(fam, SimplexWeight([0.5, 0.5])), Reals(1))
        assert bary.value == -np.inf
        out = decide_alternative(fam, Reals(1), cfg)
        assert isinstance(out, Certificate)
        assert np.abs(out.weights.t - [0.75, 0.25]).max() <= 1e-9
        assert out.inf_value == pytest.approx(1.0, abs=1e-9)
        assert infimum_calls["batch"] >= 1

    def test_all_unbounded_lattice_refines_from_the_barycentre(self, monkeypatch):
        # At resolution 2 the lattice is {(0, 1), (1/2, 1/2), (1, 0)}, all unbounded.
        fam = _linear_family((1.0, 1.0), (-3.0, 1.0))
        starts = []
        refine = engine._refine_weight

        def spy(fam, dom, t0, inf0, stop_at):
            starts.append((t0.copy(), inf0, stop_at))
            return refine(fam, dom, t0, inf0, stop_at)

        monkeypatch.setattr(engine, "_refine_weight", spy)
        t, inf_val, _, exact = engine._search_certificate(
            fam, Reals(1), EngineConfig(simplex_grid_resolution=2))
        assert len(starts) == 1
        assert np.array_equal(starts[0][0], [0.5, 0.5]) and starts[0][1] == -np.inf
        assert starts[0][2] == 0.0  # the refinement stops at the certificate level
        assert exact and np.abs(t - [0.75, 0.25]).max() <= 1e-9
        assert inf_val == pytest.approx(1.0, abs=1e-9)

    def test_orthant_n12_decides_at_the_barycentre(self, cfg, infimum_calls):
        fam = random_convex_family(12, 3, 1).shifted(-3.0)
        out = decide_alternative(fam, NonnegOrthant(12), cfg)
        assert isinstance(out, Certificate)
        assert infimum_calls["exact"] <= 2 and infimum_calls["batch"] == 0
        res = quadratic_infimum(aggregate(fam, out.weights), NonnegOrthant(12))
        assert res.exact and res.value >= -cfg.tol_cert

    def test_probe_reports_a2_through_the_barycentre(self, cfg, infimum_calls):
        fam = random_convex_family(2, 3, 4).shifted(-3.0)
        report = characterization_probe(fam, NonnegOrthant(2), 0.0, cfg)
        assert report.verdict == "a2"
        assert np.array_equal(report.certificate_weight.t, np.full(3, 1.0 / 3.0))
        assert infimum_calls == {"exact": 1, "batch": 0}


class TestFeasibleSearchWork:
    @pytest.mark.parametrize("dom", [
        Reals(3), NonnegOrthant(3), Box(-np.ones(3), np.ones(3)), UnitSphere(3),
    ], ids=["reals", "orthant", "box", "sphere"])
    def test_no_einsum_and_sup_matches(self, cfg, dom, monkeypatch):
        calls = []
        einsum = np.einsum

        def spy(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        fam = random_convex_family(3, 2, 2).shifted(3.0)
        x, sup = engine._search_feasible(fam, dom, cfg)
        assert calls == []
        assert sup < 0.0
        assert sup == fam.sup_at(x)


class TestCoordinatePolish:
    """Families whose feasible side lies far outside the multistart boxes:
    only the exact 1-D minimax steps of the coordinate polish, which follow
    an unbounded coordinate outwards, reach a point below zero."""

    @pytest.mark.parametrize("fam, dom", [
        (QuadraticFamily((QuadraticFunction(SymMatrix([[-1.0]]), [0.0], 1000.0),)), Reals(1)),
        (QuadraticFamily(tuple(
            QuadraticFunction(SymMatrix(np.diag([-1.0, 1.0])), [0.0, s], 1000.0) for s in (1.0, -1.0)
        )), NonnegOrthant(2)),
    ], ids=["reals-1d", "orthant-pair"])
    def test_far_feasible_side_is_reached(self, cfg, fam, dom):
        out = decide_alternative(fam, dom, cfg)
        assert isinstance(out, FeasiblePoint)
        assert out.margin == fam.sup_at(out.x) < 0.0


class TestFinitePointSetEngine:
    def test_enumeration_is_exact(self, cfg):
        fam = _linear_family((1.0, 0.0), (-1.0, 0.0))
        dom = FinitePointSet([[-1.0], [1.0]])
        out = decide_alternative(fam, dom, cfg)
        # No feasible point (min over the two points of max(x,-x) is 1),
        # but the zero aggregate at t = 1/2 has min 0 >= 0: a certificate.
        assert isinstance(out, Certificate)
        assert np.allclose(out.weights.t, [0.5, 0.5])
        assert out.inf_value == pytest.approx(0.0, abs=1e-12)

    def test_both_fail_goes_indeterminate_at_half_level(self, cfg):
        from dataclasses import replace

        fam = _linear_family((1.0, 0.0), (-1.0, 0.0))
        dom = FinitePointSet([[-1.0], [1.0]])
        out = decide_alternative(fam, dom, replace(cfg, alpha=0.5))
        assert isinstance(out, Indeterminate)
        assert out.best_sup == pytest.approx(0.5)   # 1 - alpha
        assert out.best_inf == pytest.approx(-0.5, abs=1e-9)  # 0 - alpha

    def test_no_repeated_feasible_search_without_an_argmin(self, cfg, monkeypatch):
        # The game LP returns no argmin, so a second feasible search would
        # only repeat the first: one search, and the same band as above.
        from dataclasses import replace

        calls = []
        search = engine._search_feasible

        def spy(*args, **kwargs):
            calls.append(kwargs.get("extra_seeds"))
            return search(*args, **kwargs)

        monkeypatch.setattr(engine, "_search_feasible", spy)
        fam = _linear_family((1.0, 0.0), (-1.0, 0.0))
        dom = FinitePointSet([[-1.0], [1.0]])
        out = decide_alternative(fam, dom, replace(cfg, alpha=0.5))
        assert calls == [None]
        assert isinstance(out, Indeterminate)
        assert out.best_sup == pytest.approx(0.5)
        assert abs(out.best_point[0]) == 1.0
        assert out.best_inf == pytest.approx(-0.5, abs=1e-9)
        assert np.allclose(out.best_weight.t, [0.5, 0.5])


class TestYuanPencil:
    def test_identity_vs_negation(self):
        t, lam = yuan_pencil_max(SymMatrix.identity(2), SymMatrix(-np.eye(2)))
        assert t == pytest.approx(1.0, abs=1e-9)
        assert lam == pytest.approx(1.0, abs=1e-9)

    def test_constant_pencil(self):
        t, lam = yuan_pencil_max(SymMatrix(-np.eye(2)), SymMatrix(-np.eye(2)))
        assert lam == pytest.approx(-1.0, abs=1e-12)

    def test_diagonal_crossing_fixture(self):
        t, lam = yuan_pencil_max(SymMatrix(np.diag([1.0, -1.0])), SymMatrix(np.diag([-1.0, 1.0])))
        assert t == pytest.approx(0.5, abs=1e-9)
        assert lam == pytest.approx(0.0, abs=1e-10)

    def test_concavity_of_pencil_minimum(self):
        rng = rng_stream(13, 0)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            g1, g2 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
            a1, a2 = g1 + g1.T, g2 + g2.T

            def g(t):
                return np.linalg.eigvalsh(t * a1 + (1 - t) * a2)[0]

            t1, t2 = rng.uniform(0, 1, size=2)
            assert g((t1 + t2) / 2) >= (g(t1) + g(t2)) / 2 - 1e-9


class TestYuanAlternative:
    def test_psd_first_matrix(self, cfg):
        out = yuan_alternative(SymMatrix.identity(2), SymMatrix(-np.eye(2)), Reals(2), cfg)
        assert isinstance(out, Certificate)
        assert out.weights.t[0] == pytest.approx(1.0, abs=1e-9)

    def test_jointly_negative(self, cfg):
        out = yuan_alternative(SymMatrix(-np.eye(2)), SymMatrix(-np.eye(2)), UnitSphere(2), cfg)
        assert isinstance(out, FeasiblePoint)
        assert out.margin == pytest.approx(-0.5, abs=1e-9)

    def test_diagonal_crossing(self, cfg):
        out = yuan_alternative(SymMatrix(np.diag([1.0, -1.0])), SymMatrix(np.diag([-1.0, 1.0])),
                               Reals(2), cfg)
        assert isinstance(out, Certificate)
        assert out.weights.t[0] == pytest.approx(0.5, abs=1e-6)

    def test_agreement_with_dense_oracle(self, cfg):
        # N = 3 and 4 only: on the 2-sphere exclusivity has no convexity
        # guarantee, so those instances are probed but never asserted.
        rng = rng_stream(14, 0)
        for trial in range(40):
            n = 3 + trial % 2
            g1, g2 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
            a1, a2 = SymMatrix(g1 + g1.T), SymMatrix(g2 + g2.T)
            tgrid = np.linspace(0.0, 1.0, 2000)
            stacked = tgrid[:, None, None] * a1.entries + (1 - tgrid)[:, None, None] * a2.entries
            gvals = np.linalg.eigvalsh(stacked)[:, 0]
            pts = sphere_sample(n, 4000, trial)
            forms = np.maximum(
                0.5 * np.einsum("ki,ij,kj->k", pts, a1.entries, pts),
                0.5 * np.einsum("ki,ij,kj->k", pts, a2.entries, pts),
            )
            out = yuan_alternative(a1, a2, UnitSphere(n), cfg)
            if gvals.max() >= 1e-3:
                assert isinstance(out, Certificate), trial
            elif gvals.max() < -1e-3 and forms.min() < -1e-3:
                assert isinstance(out, FeasiblePoint), trial


class TestCharacterizationProbe:
    def test_both_fail_on_two_point_set(self, cfg):
        fam = _linear_family((1.0, 0.0), (-1.0, 0.0))
        report = characterization_probe(fam, FinitePointSet([[-1.0], [1.0]]), 0.5, cfg)
        assert report.verdict == "both-fail"
        assert report.exhaustive
        assert report.feasible_margin == pytest.approx(0.5)  # 1 - alpha
        assert report.certificate_inf == pytest.approx(-0.5, abs=1e-9)  # 0 - alpha

    def test_a1_for_negative_parabola(self, cfg):
        fam = QuadraticFamily((QuadraticFunction(SymMatrix([[1.0]]), [0.0], -1.0),))
        report = characterization_probe(fam, Reals(1), 0.0, cfg)
        assert report.verdict == "a1" and not report.exhaustive

    def test_a2_for_opposing_slopes(self, cfg):
        report = characterization_probe(_linear_family((1.0, 0.0), (-1.0, 0.0)), Reals(1), 0.0, cfg)
        assert report.verdict == "a2"
        assert np.allclose(report.certificate_weight.t, [0.5, 0.5])

