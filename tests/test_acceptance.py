"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import time
from dataclasses import replace

import numpy as np

from gordankit import (
    Box,
    Certificate,
    ConeWeight,
    EngineConfig,
    FeasiblePoint,
    FinitePointSet,
    Indeterminate,
    KktCertificate,
    NonnegOrthant,
    QpProblem,
    QuadraticFamily,
    QuadraticFunction,
    Reals,
    SimplexWeight,
    SymMatrix,
    UnitSphere,
    aggregation_point,
    brute_conjugate_sup,
    characterization_probe,
    conjugate_sup_min,
    decide_alternative,
    fritz_john_search,
    infsup_falsify,
    kkt_check,
    quadratic_infimum,
    slater_check,
    solve_levelset,
    yuan_alternative,
    yuan_pencil_max,
)
from gordankit.engine import _search_feasible
from gordankit.infimum import batch_infimum
from gordankit.sampling import (
    grid_points,
    random_convex_family,
    random_z_family,
    rng_stream,
    simplex_lattice_array,
    sphere_sample,
)
from qp_oracle import active_set_oracle

CFG = EngineConfig()


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Exclusivity on random convex families


def test_criterion_1_exclusivity_suite():
    start = time.time()
    rng = rng_stream(101, 0)
    n_definite = 0
    n_total = 500
    for i in range(n_total):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        fam = random_convex_family(n, m, 10_000 + i)
        dom = Reals(n) if i % 2 == 0 else NonnegOrthant(n)
        out = decide_alternative(fam, dom, CFG)
        if isinstance(out, Indeterminate):
            continue
        n_definite += 1
        if isinstance(out, FeasiblePoint):
            # Opposite side: the full r=64 lattice must carry no certificate
            # beyond the band.
            lattice = simplex_lattice_array(m, 64)
            a_s, b_s, c_s = fam.coefficient_stacks()
            a = np.einsum("km,mij->kij", lattice, a_s)
            vals, flags = batch_infimum(a, lattice @ b_s, lattice @ c_s, dom)
            best = int(np.argmax(vals))
            if flags[best] or vals[best] >= -CFG.tol_band:
                agg_a = np.einsum("m,mij->ij", lattice[best], a_s)
                q = QuadraticFunction(SymMatrix(agg_a), lattice[best] @ b_s,
                                      float(lattice[best] @ c_s))
                exact = quadratic_infimum(q, dom).value
                assert exact < CFG.tol_band, (i, exact, out.margin)
            assert vals[~flags].max(initial=-np.inf) < CFG.tol_band, i
        else:
            # Opposite side: an intensified multistart search must find no
            # strictly feasible point beyond the band.
            probe_cfg = replace(CFG, multistart_count=256)
            _, sup_val = _search_feasible(fam, dom, probe_cfg)
            assert sup_val > -CFG.tol_band, (i, sup_val, out.inf_value)
    elapsed = time.time() - start
    ok = n_definite >= 0.95 * n_total and elapsed < 60.0
    _report(1, ok, f"{n_definite}/{n_total} definite, no counter-witnesses, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Two-matrix alternative agrees with the dense oracle


def test_criterion_2_yuan_agreement():
    rng = rng_stream(202, 0)
    n = 3
    tgrid = np.linspace(0.0, 1.0, 10_000)
    mismatches = 0
    compared = 0
    for trial in range(200):
        g1, g2 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        a1, a2 = SymMatrix(g1 + g1.T), SymMatrix(g2 + g2.T)
        stacked = tgrid[:, None, None] * a1.entries + (1.0 - tgrid)[:, None, None] * a2.entries
        gmax = float(np.linalg.eigvalsh(stacked)[:, 0].max())
        pts = sphere_sample(n, 10_000, 3000 + trial)
        forms = np.maximum(
            0.5 * np.einsum("ki,ij,kj->k", pts, a1.entries, pts),
            0.5 * np.einsum("ki,ij,kj->k", pts, a2.entries, pts),
        )
        out = yuan_alternative(a1, a2, UnitSphere(n), CFG)
        if gmax >= 1e-3:
            compared += 1
            mismatches += not isinstance(out, Certificate)
        elif gmax < -1e-3 and forms.min() < -1e-3:
            compared += 1
            mismatches += not isinstance(out, FeasiblePoint)
    # Pencil concavity on ten thousand sampled triples.
    worst_slack = np.inf
    for _ in range(10_000 // 50):
        g1, g2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        a1, a2 = g1 + g1.T, g2 + g2.T
        t1 = rng.uniform(0, 1, size=50)
        t2 = rng.uniform(0, 1, size=50)

        def gvals(ts):
            stack = ts[:, None, None] * a1 + (1.0 - ts)[:, None, None] * a2
            return np.linalg.eigvalsh(stack)[:, 0]

        slack = gvals((t1 + t2) / 2.0) - (gvals(t1) + gvals(t2)) / 2.0
        worst_slack = min(worst_slack, float(slack.min()))
    ok = mismatches == 0 and compared > 100 and worst_slack >= -1e-9
    _report(2, ok, f"{compared} decisive oracle cases, {mismatches} mismatches, "
                   f"concavity slack {worst_slack:.2e}")


# ---------------------------------------------------------------------------
# 3. Aggregation-point inequality chain


def test_criterion_3_aggregation_inequality():
    rng = rng_stream(303, 0)
    worst_gap = -np.inf
    dominance_ok = True
    for i in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        fam = random_z_family(n, m, int(rng.integers(0, 2**63)))
        pts = rng.uniform(-3.0, 3.0, size=(k, n))
        t = SimplexWeight(rng.dirichlet(np.ones(k)))
        x0 = aggregation_point(pts, t)
        gap = float((fam.eval_members(x0.reshape(1, -1))[:, 0] - fam.eval_members(pts) @ t.t).max())
        assert gap <= 1e-9, (i, gap)
        worst_gap = max(worst_gap, gap)
        dominance_ok &= bool(np.all(np.abs(t.t @ pts) <= x0 + 1e-12))
    ok = worst_gap <= 1e-9 and dominance_ok
    _report(3, ok, f"1000/1000 inequalities hold, worst gap {worst_gap:.2e}, "
                   f"coordinate dominance holds")


# ---------------------------------------------------------------------------
# 4. Non-infsup-convexity detection on the two-point family


def test_criterion_4_infsup_detection():
    fam = QuadraticFamily((QuadraticFunction.linear([1.0]), QuadraticFunction.linear([-1.0])))
    dom = FinitePointSet([[-1.0], [1.0]])
    probe = characterization_probe(fam, dom, 0.5, CFG)
    falsity = infsup_falsify(fam, dom, CFG)
    v = falsity.violation
    ok = (
        probe.verdict == "both-fail"
        and probe.exhaustive
        and falsity.status == "violation-found"
        and v is not None
        and abs(v.lhs - 1.0) <= 1e-12
        and abs(v.rhs) <= 1e-12
        and np.allclose(v.t.t, [0.5, 0.5])
    )
    _report(4, ok, f"probe={probe.verdict}, falsifier lhs={v.lhs}, rhs={v.rhs}, "
                   f"t=({v.t.t[0]:g}, {v.t.t[1]:g})")


# ---------------------------------------------------------------------------
# 5. QP round trip against an exact (n <= 2) or grid + verified-polish (n = 3) oracle


def _bounded_z_qp(seed):
    rng = rng_stream(seed, 50)
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


def _objective(p, pts):
    return (0.5 * np.einsum("ki,ij,kj->k", pts, p.objective.a.entries, pts)
            + pts @ p.objective.b + p.objective.c)


def _oracle_value(p, x0):
    """The exact active-set oracle for n <= 2.  For n = 3, a 4-level refined
    feasible grid plus the SLSQP end point whenever it verifies feasible
    (constraints <= 1e-9, x >= 0 on the orthant), scored by the objective at
    that point; the optimizer's success flag is not consulted."""
    from scipy.optimize import minimize

    n = len(x0)
    if n <= 2:
        return active_set_oracle(p)
    lo = np.minimum(x0 - 3.0, -6.0)
    hi = np.maximum(x0 + 3.0, 6.0)
    if isinstance(p.domain, NonnegOrthant):
        lo = np.maximum(lo, 0.0)
    res = max(9, int(round(200000 ** (1.0 / n))))
    best = np.inf
    best_x = x0
    for _level in range(4):
        pts = grid_points(Box(lo, hi), res)
        feas = p.constraints.eval_members(pts).max(axis=0) <= 0.0
        if feas.any():
            vals = np.where(feas, _objective(p, pts), np.inf)
            i = int(np.argmin(vals))
            if vals[i] < best:
                best, best_x = float(vals[i]), pts[i]
        span = (hi - lo) / (res - 1)
        lo = best_x - 2.0 * span
        hi = best_x + 2.0 * span
        if isinstance(p.domain, NonnegOrthant):
            lo = np.maximum(lo, 0.0)
    # Independent local polish from the oracle's own incumbent; the grid has
    # already localized the global basin.
    cons = [
        {"type": "ineq",
         "fun": (lambda x, q=q: -(0.5 * x @ q.a.entries @ x + q.b @ x + q.c)),
         "jac": (lambda x, q=q: -(q.a.entries @ x + q.b))}
        for q in p.constraints.members
    ]
    bounds = [(0.0, None)] * n if isinstance(p.domain, NonnegOrthant) else None
    sol = minimize(
        lambda x: 0.5 * x @ p.objective.a.entries @ x + p.objective.b @ x + p.objective.c,
        best_x,
        jac=lambda x: p.objective.a.entries @ x + p.objective.b,
        constraints=cons,
        bounds=bounds,
        method="SLSQP",
        options={"maxiter": 400, "ftol": 1e-14},
    )
    x = sol.x.reshape(1, -1)
    feasible = p.constraints.eval_members(x).max() <= 1e-9
    if isinstance(p.domain, NonnegOrthant):
        feasible = feasible and x.min() >= 0.0
    if feasible:
        best = min(best, float(_objective(p, x)[0]))
    return best


def test_criterion_5_qp_round_trip():
    start = time.time()
    solved = 0
    seed = 0
    oracle_worst = 0.0
    sample_worst = -np.inf
    while solved < 100 and seed < 600:
        seed += 1
        p = _bounded_z_qp(seed)
        try:
            x_slater = slater_check(p, CFG)
        except Exception:
            continue
        if x_slater is None:
            continue
        res = solve_levelset(p, CFG)
        assert res.status == "converged", (seed, res.status)
        solved += 1
        oracle = _oracle_value(p, res.x0)
        oracle_worst = max(oracle_worst, abs(res.value - oracle))
        assert abs(res.value - oracle) <= 1e-4, (seed, res.value, oracle)
        fj = fritz_john_search(p, res.x0, CFG)
        assert fj.found and fj.certificate.y > CFG.tol_cert, (seed, fj.residuals)
        u = fj.certificate.u.u / fj.certificate.y
        rep = kkt_check(p, KktCertificate(ConeWeight(u), res.x0), CFG)
        assert rep.valid, (seed, rep.residuals)
        assert rep.sampled_ok, (seed, rep.residuals)
        sample_worst = max(sample_worst, rep.residuals["sample_suboptimality"])
    elapsed = time.time() - start
    ok = solved == 100
    _report(5, ok, f"{solved} QPs solved+certified, worst |value-oracle| {oracle_worst:.2e}, "
                   f"worst sampled suboptimality {sample_worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Conjugate-of-supremum formula


def _diag_dominant_z(n, m, seed):
    zf = random_z_family(n, m, seed)
    a0 = zf.members[0].a.entries.copy()
    off = np.abs(a0).sum(axis=1) - np.abs(np.diag(a0))
    a0[np.diag_indices(n)] = off + 0.75
    member0 = QuadraticFunction(SymMatrix(a0), zf.members[0].b, zf.members[0].c)
    return QuadraticFamily((member0,) + zf.members[1:])


def test_criterion_6_conjugate_formula():
    rng = rng_stream(606, 0)
    worst = 0.0
    compared = 0
    bound_checked = 0
    instances = []
    for s in range(50):
        n = int(rng.integers(1, 3))
        instances.append((random_convex_family(n, int(rng.integers(1, 4)), 600 + s),
                          rng.normal(size=n)))
    for s in range(50):
        n = int(rng.integers(1, 3))
        instances.append((_diag_dominant_z(n, int(rng.integers(1, 4)), 700 + s),
                          np.abs(rng.normal(size=n))))
    # Nonconvex families exercise the one-sided bound only.
    extra = []
    for s in range(20):
        n = int(rng.integers(1, 3))
        members = []
        for _ in range(int(rng.integers(1, 4))):
            g = rng.normal(size=(n, n))
            members.append(QuadraticFunction(SymMatrix(g + g.T), rng.normal(size=n),
                                             float(rng.normal())))
        extra.append((QuadraticFamily(tuple(members)), rng.normal(size=n)))

    from gordankit import aggregate, conjugate_quadratic

    for fam, y in instances + extra:
        brute = brute_conjugate_sup(fam, y, resolution=201)
        for t in simplex_lattice_array(fam.size, 8):
            cv = conjugate_quadratic(aggregate(fam, t), y)
            bound = cv.value if cv.is_finite else np.inf
            assert brute.value <= bound + 1e-8
            bound_checked += 1
    for fam, y in instances:
        res = conjugate_sup_min(fam, y, CFG)
        brute = brute_conjugate_sup(fam, y, resolution=201)
        if res.value.is_finite and not brute.boundary_hit:
            compared += 1
            gap = abs(res.value.value - brute.value)
            worst = max(worst, gap)
            assert gap <= 1e-3, (gap, y)
    ok = compared >= 90 and worst <= 1e-3
    _report(6, ok, f"{compared}/100 stabilized instances agree, worst gap {worst:.2e}, "
                   f"one-sided bound held on {bound_checked} lattice aggregates")


# ---------------------------------------------------------------------------
# 7. Byte determinism of the CLI over the fixture corpus


def test_criterion_7_cli_byte_determinism(tmp_path, capsys):
    import json

    from gordankit.cli import main

    corpus = {
        "alt.json": {
            "version": 1, "kind": "alternative", "dimension": 1,
            "domain": {"type": "reals", "dim": 1},
            "family": [{"A": [[0.0]], "b": [1.0], "c": 0.0},
                       {"A": [[0.0]], "b": [-1.0], "c": 0.0}],
            "config": {"seed": 42},
        },
        "alt2.json": {
            "version": 1, "kind": "alternative", "dimension": 2,
            "domain": {"type": "nonneg_orthant", "dim": 2},
            "family": [{"A": [[1.0, -0.25], [-0.25, 2.0]], "b": [-1.0, 0.5], "c": -0.25}],
            "config": {"seed": 7},
        },
        "yuan.json": {
            "version": 1, "kind": "yuan", "dimension": 2,
            "domain": {"type": "unit_sphere", "dim": 2},
            "family": [{"A": [[1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0], "c": 0.0},
                       {"A": [[-1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], "c": 0.0}],
        },
        "qp.json": {
            "version": 1, "kind": "qp", "dimension": 1,
            "domain": {"type": "reals", "dim": 1},
            "objective": {"A": [[1.0]], "b": [0.0], "c": 0.0},
            "family": [{"A": [[0.0]], "b": [-1.0], "c": 1.0}],
            "config": {"seed": 11},
        },
        "infsup.json": {
            "version": 1, "kind": "infsup", "dimension": 1,
            "domain": {"type": "finite_points", "points": [[-1.0], [1.0]]},
            "family": [{"A": [[0.0]], "b": [1.0], "c": 0.0},
                       {"A": [[0.0]], "b": [-1.0], "c": 0.0}],
            "config": {"seed": 5},
        },
        "conj.json": {
            "version": 1, "kind": "conjugate", "dimension": 1, "point": [0.5],
            "family": [{"A": [[0.0]], "b": [1.0], "c": 0.0},
                       {"A": [[0.0]], "b": [-1.0], "c": 0.0}],
        },
        "zcheck.json": {
            "version": 1, "kind": "zcheck", "dimension": 2,
            "family": [{"A": [[1.0, -0.5], [-0.5, 0.0]], "b": [-1.0, 0.0], "c": 0.5}],
        },
        "kkt.json": {
            "version": 1, "kind": "kkt-check", "dimension": 1,
            "domain": {"type": "reals", "dim": 1},
            "objective": {"A": [[1.0]], "b": [0.0], "c": 0.0},
            "family": [{"A": [[0.0]], "b": [-1.0], "c": 1.0}],
            "point": [1.0], "weights": [1.0],
        },
    }
    outputs = [{}, {}]
    for round_idx in range(2):
        for name, data in corpus.items():
            path = tmp_path / f"{round_idx}_{name}"
            path.write_text(json.dumps(data))
            code = main([data["kind"], str(path)])
            out = capsys.readouterr().out
            outputs[round_idx][name] = (code, out.encode())
    identical = all(outputs[0][k] == outputs[1][k] for k in corpus)
    ok = identical and all(outputs[0][k][0] in (0, 2) for k in corpus)
    _report(7, ok, f"{len(corpus)} CLI invocations byte-identical across reruns")


# ---------------------------------------------------------------------------
# 8. Hand-checkable fixtures


def test_criterion_8_fixtures():
    # QP with constraint 1 - x <= 0: value 1/2 at x = 1, KKT multiplier 1.
    p = QpProblem(QuadraticFunction(SymMatrix([[1.0]]), [0.0], 0.0),
                  QuadraticFamily((QuadraticFunction.linear([-1.0], 1.0),)),
                  Reals(1))
    res = solve_levelset(p, CFG)
    fj = fritz_john_search(p, res.x0, CFG)
    u_kkt = fj.certificate.u.u[0] / fj.certificate.y
    qp_ok = (
        res.status == "converged"
        and abs(res.value - 0.5) <= 1e-7
        and abs(res.x0[0] - 1.0) <= 1e-6
        and fj.found
        and abs(u_kkt - 1.0) <= 1e-5
        and kkt_check(p, KktCertificate(ConeWeight([u_kkt]), res.x0), CFG).valid
    )

    # Diagonal pencil: t* = 1/2, lambda* = 0.
    t_star, lam_star = yuan_pencil_max(SymMatrix(np.diag([1.0, -1.0])),
                                       SymMatrix(np.diag([-1.0, 1.0])))
    pencil_ok = abs(t_star - 0.5) <= 1e-9 and abs(lam_star) <= 1e-10

    # Aggregation point of the standard basis pair at equal weights.
    x0 = aggregation_point([[1.0, 0.0], [0.0, 1.0]], SimplexWeight([0.5, 0.5]))
    agg_ok = np.allclose(x0, np.sqrt(0.5), atol=1e-12)

    ok = qp_ok and pencil_ok and agg_ok
    _report(8, ok, f"qp value={res.value:.9f} u={u_kkt:.6f}; pencil t*={t_star:.12f} "
                   f"lam*={lam_star:.2e}; aggregation point=({x0[0]:.5f}, {x0[1]:.5f})")
