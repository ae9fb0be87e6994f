#!/usr/bin/env python3
"""Solve random bordered-Z quadratic programs and certify each solution with
Fritz John multipliers and a KKT check.

Exits 1 when a solved program is not certified."""

import argparse
import time

import numpy as np

from gordankit import (
    ConeWeight,
    EngineConfig,
    KktCertificate,
    NonnegOrthant,
    QpProblem,
    QuadraticFunction,
    Reals,
    SymMatrix,
    fritz_john_search,
    kkt_check,
    slater_check,
    solve_levelset,
)
from gordankit.errors import IndeterminateOutcomeError
from gordankit.sampling import random_z_family, rng_stream


def bounded_z_qp(seed, max_dim=3, max_cons=2):
    rng = rng_stream(seed, 50)
    n = int(rng.integers(1, max_dim + 1))
    mc = int(rng.integers(1, max_cons + 1))
    cons = random_z_family(n, mc, seed * 2 + 1)
    obj = random_z_family(n, 1, seed * 2 + 2).members[0]
    a = obj.a.entries.copy()
    off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    a[np.diag_indices(n)] = off + rng.uniform(0.5, 1.5)
    dom = Reals(n) if seed % 2 == 0 else NonnegOrthant(n)
    return QpProblem(QuadraticFunction(SymMatrix(a), obj.b, obj.c), cons, dom)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = EngineConfig(seed=args.seed)
    solved = certified = skipped = 0
    t0 = time.time()
    seed = args.seed * 1000
    while solved + skipped < args.instances:
        seed += 1
        p = bounded_z_qp(seed)
        try:
            x1 = slater_check(p, cfg)
        except IndeterminateOutcomeError:
            skipped += 1
            continue
        if x1 is None:
            skipped += 1
            continue
        res = solve_levelset(p, cfg)
        if res.status != "converged":
            skipped += 1
            continue
        solved += 1
        fj = fritz_john_search(p, res.x0, cfg)
        ok = fj.found and fj.certificate.y > cfg.tol_cert
        if ok:
            u = fj.certificate.u.u / fj.certificate.y
            rep = kkt_check(p, KktCertificate(ConeWeight(u), res.x0), cfg)
            ok = rep.valid and rep.sampled_ok
        certified += ok
        tag = "ok " if ok else "FJ/KKT FAILED"
        print(f"seed={seed:5d} dim={p.objective.dim} cons={p.constraints.size} "
              f"dom={type(p.domain).__name__:14s} value={res.value:+.6f} "
              f"iters={res.iterations:3d} {tag}")
    print(f"\nsolved: {solved}   certified: {certified}   skipped: {skipped}   "
          f"elapsed {time.time()-t0:.1f}s")
    return 1 if certified < solved else 0


if __name__ == "__main__":
    raise SystemExit(main())
