#!/usr/bin/env python3
"""Two-matrix alternative vs a dense oracle (t-grid pencil scan plus sphere
sampling), and a concavity check for the pencil's minimum eigenvalue.

Exits 1 when any oracle-decisive pair gets the wrong class."""

import argparse

import numpy as np

from gordankit import Certificate, EngineConfig, FeasiblePoint, SymMatrix, UnitSphere, yuan_alternative
from gordankit.sampling import rng_stream, sphere_sample


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=100)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--band", type=float, default=1e-3)
    args = ap.parse_args()

    cfg = EngineConfig(seed=args.seed)
    rng = rng_stream(args.seed, 2)
    tgrid = np.linspace(0.0, 1.0, 10_000)
    compared = mismatches = banded = 0
    for trial in range(args.pairs):
        g1, g2 = rng.normal(size=(args.dim, args.dim)), rng.normal(size=(args.dim, args.dim))
        a1, a2 = SymMatrix(g1 + g1.T), SymMatrix(g2 + g2.T)
        stack = tgrid[:, None, None] * a1.entries + (1 - tgrid)[:, None, None] * a2.entries
        gmax = float(np.linalg.eigvalsh(stack)[:, 0].max())
        pts = sphere_sample(args.dim, 10_000, args.seed * 7919 + trial)
        forms = np.maximum(
            0.5 * np.einsum("ki,ij,kj->k", pts, a1.entries, pts),
            0.5 * np.einsum("ki,ij,kj->k", pts, a2.entries, pts),
        )
        out = yuan_alternative(a1, a2, UnitSphere(args.dim), cfg)
        if gmax >= args.band:
            compared += 1
            mismatches += not isinstance(out, Certificate)
        elif gmax < -args.band and forms.min() < -args.band:
            compared += 1
            mismatches += not isinstance(out, FeasiblePoint)
        else:
            banded += 1
    print(f"pairs: {args.pairs}   oracle-decisive: {compared}   in-band: {banded}")
    print(f"class mismatches: {mismatches}")

    worst = np.inf
    for _ in range(200):
        g1, g2 = rng.normal(size=(args.dim, args.dim)), rng.normal(size=(args.dim, args.dim))
        a1, a2 = g1 + g1.T, g2 + g2.T
        t1, t2 = rng.uniform(0, 1, size=(2, 50))

        def gv(ts):
            return np.linalg.eigvalsh(ts[:, None, None] * a1 + (1 - ts)[:, None, None] * a2)[:, 0]

        worst = min(worst, float((gv((t1 + t2) / 2) - (gv(t1) + gv(t2)) / 2).min()))
    print(f"pencil concavity slack (10000 triples): {worst:.3e}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
