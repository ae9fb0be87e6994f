"""Seeded random generators, lattices, and brute-force grid references.

Randomness is counter-based (Philox), split into independent streams by a
stream index, so every corpus is reproducible from a single 64-bit seed.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import BudgetExceededError
from .quadratics import Box, QuadraticFamily, QuadraticFunction, SimplexWeight, SymMatrix

LATTICE_BUDGET = 10**7
GRID_BUDGET = 10**7

_U64 = np.uint64


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """A generator for stream ``stream`` of ``seed``.

    Streams with distinct indices are statistically independent; the pair
    (seed, stream) keys a Philox counter-based generator.
    """
    key = np.array([int(seed) % 2**64, int(stream) % 2**64], dtype=_U64)
    return np.random.Generator(np.random.Philox(key=key))


def simplex_lattice(m: int, resolution: int):
    """All simplex weights with denominator ``resolution``.

    Returns the C(resolution+m-1, m-1) weights whose entries lie in
    {0, 1/r, ..., 1}, in ascending lexicographic order of the numerators.
    """
    return [SimplexWeight(row) for row in simplex_lattice_array(m, resolution)]


def simplex_lattice_array(m: int, resolution: int) -> np.ndarray:
    """Same lattice as :func:`simplex_lattice`, as a fresh (K, m) float array."""
    return shared_simplex_lattice(m, resolution).copy()


@lru_cache(maxsize=32)
def shared_simplex_lattice(m: int, resolution: int) -> np.ndarray:
    """The lattice of :func:`simplex_lattice_array`, built once per (m, resolution).

    Every caller receives the same read-only array, so the library's
    repeated searches do not rebuild (and reallocate) it.
    """
    if m < 1 or resolution < 1:
        raise ValueError("m and resolution must be positive")
    count = comb(resolution + m - 1, m - 1)
    if count > LATTICE_BUDGET:
        raise BudgetExceededError(f"lattice would have {count} entries")
    out = np.empty((count, m), dtype=float)
    row = 0

    def rec(prefix, remaining, slot):
        nonlocal row
        if slot == m - 1:
            out[row, :slot] = prefix
            out[row, slot] = remaining
            row += 1
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slot + 1)

    rec([], resolution, 0)
    out /= float(resolution)
    out.flags.writeable = False
    return out


def grid_points(box: Box, resolution) -> np.ndarray:
    """The regular grid over a box, C-ordered, shape (K, n)."""
    n = box.dim
    res = np.broadcast_to(np.asarray(resolution, dtype=int), (n,))
    if np.any(res < 2):
        raise ValueError("grid resolution must be at least 2 per axis")
    total = int(np.prod(res.astype(np.float64)))
    if total > GRID_BUDGET:
        raise BudgetExceededError(f"grid would have {total} points")
    axes = [np.linspace(box.lo[i], box.hi[i], res[i]) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def grid_min(f, box: Box, resolution):
    """Minimum of ``f`` over the regular grid of the box.

    ``f`` takes the (K, n) batch of grid points and returns K values.  Ties
    break to the lexicographically smallest grid index.
    """
    pts = grid_points(box, resolution)
    vals = np.asarray(f(pts), dtype=float).reshape(-1)
    idx = int(np.argmin(vals))
    return float(vals[idx]), pts[idx].copy()


def random_z_family(n: int, m: int, seed: int) -> QuadraticFamily:
    """A random family whose bordered matrices are all Z-matrices.

    Off-diagonal entries of each A are drawn from [-2, 0], diagonals from
    [-2, 2], linear parts from [-2, 0], constants from [-2, 2].
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    rng = rng_stream(seed, stream=101)
    members = []
    for _ in range(m):
        a = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        a[iu] = rng.uniform(-2.0, 0.0, size=len(iu[0]))
        a = a + a.T
        a[np.diag_indices(n)] = rng.uniform(-2.0, 2.0, size=n)
        b = rng.uniform(-2.0, 0.0, size=n)
        c = rng.uniform(-2.0, 2.0)
        members.append(QuadraticFunction(SymMatrix(a), b, c))
    return QuadraticFamily(tuple(members))


def random_convex_family(n: int, m: int, seed: int) -> QuadraticFamily:
    """A random family of convex quadratics (every A positive semidefinite).

    Constants are centered so that both alternatives occur with comparable
    frequency over random instances.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    rng = rng_stream(seed, stream=202)
    shift = rng.uniform(-1.0, 1.5)
    members = []
    for _ in range(m):
        g = rng.normal(size=(n, n))
        a = g @ g.T / np.sqrt(n)
        b = rng.normal(size=n)
        c = rng.normal() + shift
        members.append(QuadraticFunction(SymMatrix(a), b, c))
    return QuadraticFamily(tuple(members))


def sphere_sample(n: int, count: int, seed: int) -> np.ndarray:
    """``count`` unit vectors in R^n, Gaussian-normalized, shape (count, n)."""
    if n < 1 or count < 1:
        raise ValueError("n and count must be positive")
    rng = rng_stream(seed, stream=303)
    g = rng.normal(size=(count, n))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # Resample the (measure-zero) degenerate rows deterministically.
    while np.any(norms <= 1e-12):  # pragma: no cover
        bad = norms.reshape(-1) <= 1e-12
        g[bad] = rng.normal(size=(int(bad.sum()), n))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    return g / norms


def _first_primes(count: int) -> list:
    """The ``count`` smallest primes, by trial division."""
    primes: list = []
    cand = 2
    while len(primes) < count:
        if all(cand % p for p in primes if p * p <= cand):
            primes.append(cand)
        cand += 1
    return primes


def halton_points(count: int, dim: int) -> np.ndarray:
    """The first ``count`` Halton points in [0, 1)^dim (unscrambled).

    Column j uses the (j+1)-th prime as its base.
    """
    out = np.empty((count, dim))
    for j, base in enumerate(_first_primes(dim)):
        for i in range(count):
            f, r, k = 1.0, 0.0, i + 1
            while k > 0:
                f /= base
                r += f * (k % base)
                k //= base
            out[i, j] = r
    return out
