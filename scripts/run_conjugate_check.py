#!/usr/bin/env python3
"""Conjugate-of-supremum formula versus the brute-force grid oracle on
convex and diagonally-strengthened Z families.

Exits 1 when any compared gap exceeds ``GAP_TOL``."""

import argparse

import numpy as np

from gordankit import EngineConfig, QuadraticFamily, QuadraticFunction, SymMatrix
from gordankit import brute_conjugate_sup, conjugate_sup_min
from gordankit.sampling import random_convex_family, random_z_family, rng_stream

GAP_TOL = 1e-6


def dominant_z(n, m, seed):
    zf = random_z_family(n, m, seed)
    a0 = zf.members[0].a.entries.copy()
    off = np.abs(a0).sum(axis=1) - np.abs(np.diag(a0))
    a0[np.diag_indices(n)] = off + 0.75
    head = QuadraticFunction(SymMatrix(a0), zf.members[0].b, zf.members[0].c)
    return QuadraticFamily((head,) + zf.members[1:])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = EngineConfig(seed=args.seed)
    rng = rng_stream(args.seed, 3)
    worst = 0.0
    compared = unstable = infinite = over = 0
    for i in range(args.instances):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        if i % 2 == 0:
            fam = random_convex_family(n, m, args.seed * 10_000 + i)
            y = rng.normal(size=n)
        else:
            fam = dominant_z(n, m, args.seed * 10_000 + i)
            y = np.abs(rng.normal(size=n))
        res = conjugate_sup_min(fam, y, cfg)
        brute = brute_conjugate_sup(fam, y, resolution=201)
        if not res.value.is_finite:
            infinite += 1
            continue
        if brute.boundary_hit:
            unstable += 1
            continue
        compared += 1
        gap = abs(res.value.value - brute.value)
        worst = max(worst, gap)
        over += gap > GAP_TOL
        print(f"i={i:3d} n={n} m={m} value={res.value.value:+.8f} "
              f"brute={brute.value:+.8f} gap={gap:.2e} "
              f"routes(z={res.z_route}, convex={res.convex_route})")
    print(f"\ncompared: {compared}   infinite: {infinite}   "
          f"box-unstable: {unstable}   worst gap: {worst:.3e}")
    print(f"gaps above {GAP_TOL:g}: {over}")
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main())
