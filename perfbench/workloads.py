"""The four benchmark workloads: seeded corpora, operations and witness checks.

Every corpus is generated here from the workload seed with numpy's Philox
generator (members are drawn like the package's own generators draw them,
but not with their code), so a change to ``gordankit.sampling`` cannot
change the inputs.
Only the generated arrays and files are handed to the library.

A corpus is a list of *rounds*; each round has a fixed composition, so a run
that executes whole rounds always measures the same mix of problem shapes.
Each item knows how to run one operation and how to classify its result:
``verified`` (a decided result whose witness re-verifies), ``failed``
(raised, or the witness does not re-verify) or ``neutral`` (an explicit
indeterminate or an undecidable stage; neither verified nor failed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gordankit import cli, engine, infimum, qp, quadratics
from gordankit.errors import IndeterminateOutcomeError

VERIFIED, FAILED, NEUTRAL = "verified", "failed", "neutral"
CFG = engine.EngineConfig()
DOMAIN_TOL = 1e-12


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str]
    known_defect: bool = False


@dataclass
class Corpus:
    rounds: list  # list of lists of Item
    warmup: list  # Items run (untimed) during set-up
    digest: str
    trace_rounds: int  # rounds replayed by the traced run


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed % 2**64, stream]))


# Warm-up items come from this seed whatever the workload seed, so set-up
# does the same work on every seed.
WARMUP_SEED = 0


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                self._h.update(repr(part.shape).encode())
                self._h.update(np.ascontiguousarray(part, dtype=float).tobytes())
            elif isinstance(part, (bytes, bytearray)):
                self._h.update(part)
            else:
                self._h.update(repr(part).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# --------------------------------------------------------------------------
# Generators (raw arrays; members are (A, b, c) triples)


def convex_members(rng, n: int, m: int, shift: float) -> list:
    out = []
    for _ in range(m):
        g = rng.normal(size=(n, n))
        out.append((g @ g.T / np.sqrt(n), rng.normal(size=n), float(rng.normal() + shift)))
    return out


def z_members(rng, n: int, m: int) -> list:
    out = []
    for _ in range(m):
        a = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        a[iu] = rng.uniform(-2.0, 0.0, size=len(iu[0]))
        a = a + a.T
        a[np.diag_indices(n)] = rng.uniform(-2.0, 2.0, size=n)
        out.append((a, rng.uniform(-2.0, 0.0, size=n), float(rng.uniform(-2.0, 2.0))))
    return out


def diag_dominant(a: np.ndarray, extra: float) -> np.ndarray:
    a = a.copy()
    n = a.shape[0]
    off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    a[np.diag_indices(n)] = off + extra
    return a


def build_family(members) -> quadratics.QuadraticFamily:
    return quadratics.QuadraticFamily(tuple(
        quadratics.QuadraticFunction(quadratics.SymMatrix(a), b, c) for a, b, c in members))


def domain_json(kind: str, n: int, rng=None) -> dict:
    if kind == "box":
        return {"type": "box", "lo": [-1.0] * n, "hi": [1.0] * n}
    if kind == "finite_points":
        k = int(rng.integers(4, 13))
        return {"type": "finite_points", "points": rng.uniform(-2.0, 2.0, size=(k, n)).tolist()}
    return {"type": kind, "dim": n}


def members_json(members) -> list:
    return [{"A": a.tolist(), "b": b.tolist(), "c": c} for a, b, c in members]


# --------------------------------------------------------------------------
# Independent witness checks


def _member_values(members, x: np.ndarray) -> np.ndarray:
    return np.array([0.5 * x @ ((a + a.T) / 2.0) @ x + b @ x + c for a, b, c in members])


def _in_domain(dom_spec: dict, x: np.ndarray) -> bool:
    kind = dom_spec["type"]
    if not np.all(np.isfinite(x)):
        return False
    if kind == "nonneg_orthant":
        return bool(x.min() >= -DOMAIN_TOL)
    if kind == "unit_sphere":
        return bool(abs(np.linalg.norm(x) - 1.0) <= 1e-9)
    if kind == "box":
        return bool(np.all(x >= np.array(dom_spec["lo"]) - DOMAIN_TOL)
                    and np.all(x <= np.array(dom_spec["hi"]) + DOMAIN_TOL))
    if kind == "finite_points":
        pts = np.array(dom_spec["points"])
        return bool(np.abs(pts - x).max(axis=1).min() <= DOMAIN_TOL)
    return True


def check_decision(members, dom_spec: dict, fam, dom, outcome) -> str:
    """Re-verify an alternative outcome without trusting the engine."""
    if isinstance(outcome, engine.FeasiblePoint):
        x = np.asarray(outcome.x, dtype=float)
        if x.shape != (fam.dim,) or not _in_domain(dom_spec, x):
            return FAILED
        sup = float(_member_values(members, x).max()) - CFG.alpha
        return VERIFIED if sup < -CFG.delta_strict else FAILED
    if isinstance(outcome, engine.Certificate):
        t = np.asarray(outcome.weights.t, dtype=float)
        if t.shape != (fam.size,) or t.min() < 0.0 or abs(t.sum() - 1.0) > 1e-9:
            return FAILED
        agg = quadratics.aggregate(fam.shifted(CFG.alpha), t)
        res = infimum.quadratic_infimum(agg, dom)
        return VERIFIED if res.exact and res.value >= -CFG.tol_cert else FAILED
    if isinstance(outcome, engine.Indeterminate):
        return NEUTRAL
    return FAILED


def _decide_item(label: str, members, dom_spec: dict, digest: _Digest,
                 known_defect: bool = False) -> Item:
    digest.add(label, dom_spec["type"], *[p for mem in members for p in mem])
    if dom_spec["type"] == "finite_points":
        digest.add(np.array(dom_spec["points"]))
    fam = build_family(members)
    dom = quadratics.domain_from_json(dom_spec)
    return Item(
        label,
        lambda: engine.decide_alternative(fam, dom, CFG),
        lambda out: check_decision(members, dom_spec, fam, dom, out),
        known_defect,
    )


# --------------------------------------------------------------------------
# decide-small: many small families over every cheap domain.


SMALL_DOMAINS = ("reals", "nonneg_orthant", "unit_sphere", "finite_points")
SMALL_SHAPES = ((1, 2), (2, 1), (2, 3), (3, 2), (4, 1), (4, 3))  # (n, m): every n in 1..4, m in 1..3
# One round holds every (domain, family kind, shape, side) once, so every
# run measures the same mix; only the coefficients come from the seed.
# Certificate-side items keep m <= 2 and stay off the sphere: there one
# certificate search costs up to ten feasible decisions, varies threefold
# with the data, and is decide-scale's job.  Bordered-Z aggregates are
# usually unbounded below on the reals and the orthant, so there they only
# occur on the feasible side.
SMALL_SLOTS = tuple(
    (d, kind, n, m, side)
    for d in SMALL_DOMAINS for kind in ("convex", "z") for n, m in SMALL_SHAPES
    for side in ("feasible", "certificate")
    if side == "feasible"
    or (m <= 2 and d != "unit_sphere" and (kind == "convex" or d == "finite_points")))
SMALL_ROUNDS = 24


def domain_point(dom_spec: dict, rng) -> np.ndarray:
    kind = dom_spec["type"]
    if kind == "finite_points":
        pts = np.array(dom_spec["points"])
        return pts[int(rng.integers(0, len(pts)))]
    n = dom_spec["dim"]
    x = rng.normal(size=n)
    if kind == "unit_sphere":
        return x / np.linalg.norm(x)
    return np.abs(x) if kind == "nonneg_orthant" else x


def lower_bound(member, dom_spec: dict) -> float:
    """A lower bound on the member's infimum over the domain (exact on points)."""
    a, b, c = member
    kind = dom_spec["type"]
    if kind == "finite_points":
        return min(float(_member_values([member], np.array(p))[0]) for p in dom_spec["points"])
    if kind == "unit_sphere":
        return 0.5 * float(np.linalg.eigvalsh(a)[0]) - float(np.linalg.norm(b)) + c
    return c - 0.5 * float(b @ np.linalg.solve(a, b))  # convex: the infimum over the reals


def force_side(members, side: str, dom_spec: dict, rng) -> list:
    """Shift the constants so the alternative holds on ``side`` with a margin:
    every member negative at one point of the domain, or every member's
    infimum over the domain positive (then any weight certifies)."""
    if side == "feasible":
        values = _member_values(members, domain_point(dom_spec, rng))
        return [(a, b, c - v - float(rng.uniform(0.1, 1.0))) for (a, b, c), v in zip(members, values)]
    return [(a, b, c - lower_bound((a, b, c), dom_spec) + float(rng.uniform(0.1, 1.0)))
            for a, b, c in members]


def decide_small(seed: int) -> Corpus:
    rng = _rng(seed, 11)
    digest = _Digest()
    rounds = []
    for _ in range(SMALL_ROUNDS):
        items = []
        for dom_kind, kind, n, m, side in SMALL_SLOTS:
            dom_spec = domain_json(dom_kind, n, rng)
            members = convex_members(rng, n, m, 0.0) if kind == "convex" else z_members(rng, n, m)
            members = force_side(members, side, dom_spec, rng)
            items.append(_decide_item(f"{kind}-{dom_kind}-{side}", members, dom_spec, digest))
        rounds.append(items)
    warm = _rng(WARMUP_SEED, 12)
    warmup = [_decide_item("warmup", convex_members(warm, 2, 2, 0.0), domain_json(k, 2, warm),
                           _Digest()) for k in SMALL_DOMAINS]
    return Corpus(rounds, warmup, digest.hexdigest(), trace_rounds=2)


# --------------------------------------------------------------------------
# decide-scale: fewer, larger families whose constants sit on the
# certificate side, so the certificate search does almost all the work.

SCALE_SHIFT = 3.0
SCALE_SHAPES = (  # (domain, n, m); one decision costs about 0.3-2 s
    ("nonneg_orthant", 6, 2),
    ("nonneg_orthant", 6, 3),
    ("nonneg_orthant", 8, 2),
    ("box", 3, 2),
    ("unit_sphere", 6, 3),
    ("reals", 4, 7),
)
# Known defects, kept as ordinary items and counted as failures:
# halton_points raises ValueError past 16 dimensions, and a box with
# 3^n > BOX_FACE_BUDGET certifies from an inexact grid infimum.
HALTON_DEFECTS = (("reals", 17), ("unit_sphere", 17), ("reals", 20), ("unit_sphere", 20))
BOX_DEFECT_N = 10
SCALE_ROUNDS = 40


def _box_defect() -> tuple:
    n = BOX_DEFECT_N
    centre = np.full(n, 0.37)
    return [(np.eye(n), -centre, 0.5 * float(centre @ centre))], domain_json("box", n)


def decide_scale(seed: int) -> Corpus:
    rng = _rng(seed, 21)
    digest = _Digest()
    rounds = []
    for r in range(SCALE_ROUNDS):
        items = []
        for dom_kind, n, m in SCALE_SHAPES:
            items.append(_decide_item(f"{dom_kind}-n{n}-m{m}",
                                      convex_members(rng, n, m, SCALE_SHIFT),
                                      domain_json(dom_kind, n), digest))
        dom_kind, n = HALTON_DEFECTS[r % len(HALTON_DEFECTS)]
        items.insert(2, _decide_item(f"defect-halton-{dom_kind}-n{n}",
                                     convex_members(rng, n, 2, SCALE_SHIFT),
                                     domain_json(dom_kind, n), digest, known_defect=True))
        members, dom_spec = _box_defect()
        items.append(_decide_item(f"defect-box-grid-n{BOX_DEFECT_N}", members, dom_spec, digest,
                                  known_defect=True))
        rounds.append(items)
    warm = _rng(WARMUP_SEED, 22)
    warmup = [_decide_item("warmup", convex_members(warm, 2, 2, SCALE_SHIFT),
                           domain_json(k, 2), _Digest())
              for k in ("nonneg_orthant", "box", "unit_sphere", "reals")]
    return Corpus(rounds, warmup, digest.hexdigest(), trace_rounds=2)


# --------------------------------------------------------------------------
# qp-certify: bordered-Z QPs (criterion-5 distribution) through the CLI's
# qp pipeline, called in-process.


# Each round has the same mix of the three ways solve_levelset can go, in
# the generator's own proportions: of 10,000 instances (seeds 1-20, 500
# each) qp_class filed 80.3% as fast-path, 8.1% as infeasible and 11.6% as
# bisection, and on the first 150 of seed 1 it agreed with the solver every
# time (iterations 0, status infeasible, iterations > 0).
QP_ROUND_MIX = {"fast-path": 20, "infeasible": 2, "bisection": 3}
QP_ROUNDS = 24


def qp_instance(rng, index: int) -> tuple:
    n = int(rng.integers(1, 4))
    mc = int(rng.integers(1, 3))
    cons = z_members(rng, n, mc)
    a, b, c = z_members(rng, n, 1)[0]
    obj = (diag_dominant(a, float(rng.uniform(0.5, 1.5))), b, c)
    dom_kind = "reals" if index % 2 == 0 else "nonneg_orthant"
    return obj, cons, dom_kind


def strictly_feasible(cons, dom_kind: str) -> bool:
    """Whether some point of the domain has every constraint below zero.

    In one dimension the roots decide it exactly: between consecutive roots
    every constraint keeps its sign.  In more dimensions a fixed sample at
    three scales decides it; a miss only files an instance in the wrong class.
    """
    n = cons[0][0].shape[0]
    if n == 1:
        breaks = [0.0]
        for a, b, c in cons:
            roots = np.roots([0.5 * a[0, 0], b[0], c])
            breaks.extend(roots[np.abs(roots.imag) == 0.0].real)
        pts = np.unique(breaks)
        probes = np.concatenate([[pts[0] - 1.0, pts[-1] + 1.0], 0.5 * (pts[1:] + pts[:-1])])
        probes = probes.reshape(-1, 1)
    else:
        unit = _rng(0, 99).uniform(-1.0, 1.0, size=(3, 4000, n))
        probes = (unit * np.array([1.0, 8.0, 64.0])[:, None, None]).reshape(-1, n)
    if dom_kind == "nonneg_orthant":
        probes = np.abs(probes) if n > 1 else probes[probes[:, 0] > 0.0]
    values = np.stack([0.5 * np.einsum("ki,ij,kj->k", probes, a, probes) + probes @ b + c
                       for a, b, c in cons])
    return bool(np.any(values.max(axis=0) < 0.0))


def qp_class(obj, cons, dom_kind: str) -> str:
    """How solve_levelset will treat the instance, decided from the data.

    The objective is an M-matrix quadratic with b <= 0, so its minimizer over
    the reals, -A^{-1} b, is nonnegative and also minimizes over the orthant;
    solve_levelset returns at once when it satisfies the constraints.
    Otherwise it bisects, unless no strictly feasible point exists.
    """
    a, b, _ = obj
    if _member_values(cons, -np.linalg.solve(a, b)).max() <= 0.0:
        return "fast-path"
    return "bisection" if strictly_feasible(cons, dom_kind) else "infeasible"


def run_qp_pipeline(p):
    try:
        x_slater = qp.slater_check(p, CFG)
    except IndeterminateOutcomeError:
        return None
    res = qp.solve_levelset(p, CFG)
    fj = rep = None
    if res.status == "converged":
        fj = qp.fritz_john_search(p, res.x0, CFG)
        if fj.found and fj.certificate.y > CFG.tol_cert:
            u = fj.certificate.u.u / fj.certificate.y
            rep = qp.kkt_check(p, qp.KktCertificate(quadratics.ConeWeight(u), res.x0), CFG)
    return x_slater, res, fj, rep


def check_qp(obj, cons, dom_kind: str, result) -> str:
    if result is None:
        return NEUTRAL  # Slater check landed in the tolerance band
    x_slater, res, fj, rep = result
    if res.status != "converged":
        return NEUTRAL  # infeasible or unbounded: no Fritz John witness to check
    if not fj.found:
        return FAILED
    if rep is None:
        # y = 0 is legitimate only when no strictly feasible point exists.
        return NEUTRAL if x_slater is None else FAILED
    x0 = np.asarray(res.x0, dtype=float)
    g = _member_values(cons, x0)
    feasible = g.max() <= 1e-8 * (1.0 + np.abs(g).max())
    if dom_kind == "nonneg_orthant":
        feasible = feasible and x0.min() >= -DOMAIN_TOL
    value_ok = abs(float(_member_values([obj], x0)[0]) - res.value) <= 1e-9 * (1.0 + abs(res.value))
    return VERIFIED if rep.valid and feasible and value_ok else FAILED


def _qp_item(index: int, obj, cons, dom_kind: str, digest: _Digest) -> Item:
    digest.add(index, dom_kind, *obj, *[p for mem in cons for p in mem])
    n = obj[0].shape[0]
    dom = quadratics.domain_from_json(domain_json(dom_kind, n))
    problem = qp.QpProblem(build_family([obj]).members[0], build_family(cons), dom)
    return Item(
        f"qp-{dom_kind}-n{n}-m{len(cons)}",
        lambda: run_qp_pipeline(problem),
        lambda out: check_qp(obj, cons, dom_kind, out),
    )


def qp_certify(seed: int) -> Corpus:
    """Instances are taken in generation order within their class; round r
    takes the next instances of each class.  Only the instances generated
    after their class's quota is full are dropped (1-16% of those generated,
    seeds 1-10)."""
    rng = _rng(seed, 31)
    digest = _Digest()
    pools = {name: [] for name in QP_ROUND_MIX}
    index = 0
    while any(len(pools[k]) < QP_ROUNDS * v for k, v in QP_ROUND_MIX.items()):
        obj, cons, dom_kind = qp_instance(rng, index)
        pools[qp_class(obj, cons, dom_kind)].append((index, obj, cons, dom_kind))
        index += 1
    rounds = []
    for r in range(QP_ROUNDS):
        chosen = [inst for k, v in QP_ROUND_MIX.items() for inst in pools[k][r * v:(r + 1) * v]]
        rounds.append([_qp_item(i, obj, cons, dom_kind, digest)
                       for i, obj, cons, dom_kind in sorted(chosen, key=lambda t: t[0])])
    warm = _rng(WARMUP_SEED, 32)
    warmup = []
    for i in range(4):
        obj, cons, dom_kind = qp_instance(warm, i)
        warmup.append(_qp_item(i, obj, cons, dom_kind, _Digest()))
    return Corpus(rounds, warmup, digest.hexdigest(), trace_rounds=1)


# --------------------------------------------------------------------------
# cli-mix: gordankit.cli.main in-process on problem files.

# One round: (kind, domain) slots, the same in every round.  The sizes give
# each call tens of milliseconds of work or more, so parsing and start-up
# costs of a call weigh little, except in zcheck, whose work is the parse.
# Conjugate calls (about 0.1 s) are 8 of the 19 slots, with about as many
# calls below them (alternative, yuan, zcheck, kkt-check) as above (infsup,
# about 0.125 s), so the median falls inside that block instead of in the
# gap between two kinds.
CLI_SLOTS = (
    ("alternative", "reals"), ("alternative", "nonneg_orthant"),
    ("alternative", "unit_sphere"), ("alternative", "box"),
    ("yuan", "unit_sphere"), ("zcheck", None), ("kkt-check", "nonneg_orthant"),
) + (("infsup", "box"),) * 4 + (("conjugate", None),) * 8
CLI_ROUNDS = 40
# Exit codes by kind: the kinds whose result may be an explicit
# indeterminate or suspected outcome exit 2 for it, and that is neutral.
# zcheck and conjugate always decide, and every kkt-check item is a valid
# certificate, so those must exit 0.
CLI_NEUTRAL_EXIT = {"alternative": 2, "yuan": 2, "infsup": 2}


def cli_problem(kind: str, dom_kind, rng) -> dict:
    head = {"version": 1, "kind": kind}
    if kind == "alternative":
        n, m = 2, 2
        return {**head, "dimension": n, "domain": domain_json(dom_kind, n),
                "family": members_json(convex_members(rng, n, m, float(rng.uniform(-1.0, 1.5))))}
    if kind == "yuan":
        n = 8
        forms = []
        for _ in range(2):
            g = rng.normal(size=(n, n))
            forms.append((g + g.T, np.zeros(n), 0.0))
        return {**head, "dimension": n, "domain": domain_json(dom_kind, n),
                "family": members_json(forms)}
    if kind == "zcheck":
        n = 12
        members = z_members(rng, n, 6)
        if rng.random() < 0.5:
            a, b, c = members[0]
            members[0] = (a, np.abs(b), c)  # a positive linear part breaks the Z pattern
        return {**head, "dimension": n, "family": members_json(members)}
    if kind == "infsup":
        n, m = 3, 3
        return {**head, "dimension": n, "domain": domain_json(dom_kind, n),
                "family": members_json(convex_members(rng, n, m, 0.0))}
    if kind == "conjugate":
        n, m = 3, 2
        return {**head, "dimension": n, "point": rng.normal(size=n).tolist(),
                "family": members_json(convex_members(rng, n, m, 0.0))}
    if kind == "kkt-check":
        # A strictly feasible unconstrained minimizer with zero multipliers:
        # a valid KKT certificate the checker must accept.  The objective is
        # an M-matrix quadratic with b <= 0, so the minimizer is nonnegative.
        n = 3
        a, b, c = z_members(rng, n, 1)[0]
        obj = (diag_dominant(a, float(rng.uniform(0.5, 1.5))), b, c)
        x_star = -np.linalg.solve(obj[0], obj[1])
        cons = []
        for ca, cb, cc in z_members(rng, n, 2):
            value = float(_member_values([(ca, cb, cc)], x_star)[0])
            cons.append((ca, cb, cc - value - float(rng.uniform(0.5, 1.5))))
        return {**head, "dimension": n, "domain": domain_json(dom_kind, n),
                "objective": members_json([obj])[0], "family": members_json(cons),
                "point": x_star.tolist(), "weights": [0.0, 0.0]}
    raise ValueError(kind)


def call_cli(kind: str, path: str):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([kind, path])
    return code, buf.getvalue()


def check_cli(kind: str, path: str, result) -> str:
    code, text = result
    if code != 0 and code != CLI_NEUTRAL_EXIT.get(kind):
        return FAILED
    try:
        json.loads(text)
    except json.JSONDecodeError:
        return FAILED
    if call_cli(kind, path) != result:
        return FAILED
    return VERIFIED if code == 0 else NEUTRAL


def cli_mix(seed: int, workdir: Path) -> Corpus:
    rng = _rng(seed, 41)
    digest = _Digest()
    rounds = []

    def item(name: str, kind: str, problem: dict, dig: _Digest) -> Item:
        path = workdir / f"{name}.json"
        text = json.dumps(problem)
        path.write_text(text, encoding="utf-8")
        dig.add(text.encode())
        p = str(path)
        return Item(kind, lambda: call_cli(kind, p), lambda out: check_cli(kind, p, out))

    for r in range(CLI_ROUNDS):
        rounds.append([item(f"r{r}-{i}-{kind}", kind, cli_problem(kind, dom_kind, rng), digest)
                       for i, (kind, dom_kind) in enumerate(CLI_SLOTS)])
    warm = _rng(WARMUP_SEED, 42)
    warmup = [item(f"warmup-{i}-{kind}", kind, cli_problem(kind, dom_kind, warm), _Digest())
              for i, (kind, dom_kind) in enumerate(dict.fromkeys(CLI_SLOTS))]
    return Corpus(rounds, warmup, digest.hexdigest(), trace_rounds=3)


WORKLOADS = {
    "decide-small": decide_small,
    "decide-scale": decide_scale,
    "qp-certify": qp_certify,
    "cli-mix": cli_mix,
}
