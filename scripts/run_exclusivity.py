#!/usr/bin/env python3
"""Exclusivity experiment: decide random convex families, then attack the
opposite side with an intensified search and report any counter-witnesses.

A feasible point is attacked with the full simplex lattice: batch values
that are flagged or within the band are re-verified with the exact
``quadratic_infimum`` before they count.  Exits 1 when any counter-witness
is found."""

import argparse
import time
from dataclasses import replace

import numpy as np

from gordankit import (
    Certificate,
    EngineConfig,
    FeasiblePoint,
    NonnegOrthant,
    Reals,
    aggregate,
    decide_alternative,
    quadratic_infimum,
)
from gordankit.engine import _search_feasible
from gordankit.infimum import batch_infimum
from gordankit.sampling import random_convex_family, rng_stream, simplex_lattice_array


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--families", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lattice", type=int, default=64)
    args = ap.parse_args()

    cfg = EngineConfig(seed=args.seed)
    rng = rng_stream(args.seed, 1)
    counts = {"feasible-point": 0, "certificate": 0, "indeterminate": 0}
    counter_witnesses = 0
    t0 = time.time()
    for i in range(args.families):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        fam = random_convex_family(n, m, args.seed * 100_000 + i)
        dom = Reals(n) if i % 2 == 0 else NonnegOrthant(n)
        out = decide_alternative(fam, dom, cfg)
        if isinstance(out, FeasiblePoint):
            counts["feasible-point"] += 1
            lattice = simplex_lattice_array(m, args.lattice)
            a_s, b_s, c_s = fam.coefficient_stacks()
            a = np.einsum("km,mij->kij", lattice, a_s)
            vals, flags = batch_infimum(a, lattice @ b_s, lattice @ c_s, dom)
            for k in np.where(flags | (vals >= -cfg.tol_band))[0]:
                vals[k] = quadratic_infimum(aggregate(fam, lattice[k]), dom).value
            if vals.max() >= cfg.tol_band:
                counter_witnesses += 1
        elif isinstance(out, Certificate):
            counts["certificate"] += 1
            _, sup_val = _search_feasible(fam, dom, replace(cfg, multistart_count=256))
            if sup_val <= -cfg.tol_band:
                counter_witnesses += 1
        else:
            counts["indeterminate"] += 1
    dt = time.time() - t0
    total = args.families
    definite = total - counts["indeterminate"]
    print(f"families: {total}   definite: {definite} ({100*definite/total:.1f}%)")
    print(f"outcomes: {counts}")
    print(f"counter-witnesses beyond the band: {counter_witnesses}")
    print(f"elapsed: {dt:.1f}s")
    return 1 if counter_witnesses else 0


if __name__ == "__main__":
    raise SystemExit(main())
