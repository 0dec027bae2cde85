"""Tests for the face-count bound formulas."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysum.bounds import (
    PHI_BRUTE_FORCE_SIZE_CAP,
    VertexProfile,
    binom,
    cyclic_fvector,
    cyclic_fvector_hull,
    many_summand_f0_bounds,
    phi,
    phi_brute_force,
    three_polytope_bounds,
    trivial_upper_bound,
    two_polytope_bound,
    zonotope_bound,
)
from polysum.cayley import PartitionedPointSet, minksum_direct, minksum_via_cayley
from polysum.construction import ConstructionParams, certify_family, generate_family
from polysum.exact import int_det
from polysum.hull import convex_hull

from helpers import zonotope_points


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(-1, 0) == 1
    assert binom(3, 0) == 1
    assert binom(2, 5) == 0
    assert binom(4, -1) == 0


def test_phi_values():
    assert phi(2, (3, 4)) == 12
    assert phi(3, (5, 5)) == 100
    assert phi(4, (3, 3, 3)) == 81


def test_phi_requires_ell_at_least_r():
    with pytest.raises(ValueError):
        phi(1, (3, 4))


def test_phi_requires_a_vertex_in_every_part():
    for n in [(-2, 6), (0, 3, 4), (3, 0)]:
        with pytest.raises(ValueError, match="every summand needs at least one vertex"):
            phi(len(n) + 1, n)


def test_phi_matches_brute_force():
    for n in [(2, 3), (3, 3), (2, 2, 2), (1, 4), (3, 2, 1)]:
        for ell in range(len(n), sum(n) + 1):
            assert phi(ell, n) == phi_brute_force(ell, n)


def test_phi_brute_force_cap():
    assert math.comb(20, 10) > PHI_BRUTE_FORCE_SIZE_CAP >= math.comb(17, 8)
    assert phi_brute_force(8, (9, 8)) == phi(8, (9, 8))
    with pytest.raises(ValueError):
        phi_brute_force(10, (10, 10))


def test_phi_at_ell_equals_r_is_product():
    for n in [(3, 4), (5, 5), (2, 2, 2), (1, 6, 2)]:
        assert phi(len(n), n) == math.prod(n)


def test_phi_subset_count_identity():
    # summing phi over all sizes counts every choice of one nonempty subset per part
    for n in [(2, 3), (4, 4), (2, 2, 2), (3, 4, 5), (1, 5, 6)]:
        assert sum(n) <= 12
        total = sum(phi(ell, n) for ell in range(len(n), sum(n) + 1))
        assert total == math.prod(2**ni - 1 for ni in n)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_phi_monotone_in_part_sizes(seed):
    import random

    rng = random.Random(seed)
    r = rng.randint(2, 3)
    n = tuple(rng.randint(1, 5) for _ in range(r))
    ell = rng.randint(r, sum(n))
    base = phi(ell, n)
    for i in range(r):
        bigger = tuple(ni + (1 if j == i else 0) for j, ni in enumerate(n))
        assert phi(ell, bigger) >= base


def test_trivial_upper_bound_values():
    assert trivial_upper_bound(0, VertexProfile((4, 4), 3)) == 16
    assert trivial_upper_bound(1, VertexProfile((5, 5), 5)) == 100
    assert trivial_upper_bound(1, VertexProfile((3, 3, 3), 4)) == 81
    with pytest.raises(ValueError):
        trivial_upper_bound(3, VertexProfile((4, 4), 3))


def test_three_polytope_bounds():
    # tetrahedra: n = m = 4; Euler forces f1 = f0 + f2 - 2
    f0, f1, f2 = three_polytope_bounds(4, 4)
    assert (f0, f1, f2) == (16, 32, 18)
    assert f0 - f1 + f2 == 2
    f0, f1, f2 = three_polytope_bounds(5, 4)
    assert (f0, f1, f2) == (24, 47, 25)
    assert f0 - f1 + f2 == 2
    with pytest.raises(ValueError):
        three_polytope_bounds(3, 4)


def test_three_polytope_f0_matches_trivial_bound_for_tetrahedra():
    assert three_polytope_bounds(4, 4)[0] == trivial_upper_bound(
        0, VertexProfile((4, 4), 3)
    )


def test_cyclic_fvector_hull_values():
    assert cyclic_fvector_hull(4, 6) == (6, 15, 18, 9)
    assert cyclic_fvector_hull(4, 8) == (8, 28, 40, 20)
    assert cyclic_fvector_hull(3, 5) == (5, 9, 6)


def test_cyclic_fvector_matches_hull():
    for dim in range(2, 8):
        for n in range(dim + 1, 13):
            assert cyclic_fvector(dim, n) == cyclic_fvector_hull(dim, n), (dim, n)
    with pytest.raises(ValueError):
        cyclic_fvector(4, 4)


@pytest.mark.parametrize("dim", range(2, 13))
def test_cyclic_fvector_identities_past_any_hull(dim):
    m = dim // 2
    for n in sorted({dim + 1, dim + 2, dim + 5, 60, 200}):
        f = cyclic_fvector(dim, n)
        assert len(f) == dim
        # the upper bound theorem's facet count
        if dim % 2 == 0:
            assert f[-1] * (n - m) == n * math.comb(n - m, m)
        else:
            assert f[-1] == 2 * math.comb(n - m - 1, m)
        # neighborly: every j <= dim/2 vertices span a face
        for j in range(1, m + 1):
            assert f[j - 1] == math.comb(n, j)
        # Euler: f_0 - f_1 + ... = 1 - (-1)^dim
        assert sum((-1) ** j * fj for j, fj in enumerate(f)) == 1 - (-1) ** dim


def test_two_polytope_bound_values():
    # k=1 reduces to the vertex bound n1*n2
    assert two_polytope_bound(1, 3, 4, 4) == 16
    # k=3 bounds facets; matches the 3-polytope expression n1*n2+n1+n2-6
    assert two_polytope_bound(3, 3, 4, 4) == 18
    assert two_polytope_bound(3, 3, 4, 4) == 4 * 4 + 4 + 4 - 6
    with pytest.raises(ValueError):
        two_polytope_bound(1, 2, 4, 4)
    with pytest.raises(ValueError):
        two_polytope_bound(1, 3, 3, 4)


def test_two_polytope_bound_k1_is_vertex_product():
    for d in (3, 4, 5):
        for n1 in range(d + 1, d + 4):
            for n2 in range(d + 1, d + 4):
                assert two_polytope_bound(1, d, n1, n2) == n1 * n2


def test_zonotope_bound_values():
    assert zonotope_bound(0, 3, 2) == 6
    for d in (2, 3, 4):
        assert zonotope_bound(d - 1, 7, d) == 2 * binom(7, d - 1)
        assert zonotope_bound(0, d, d) == 2**d


def test_zonotope_bound_against_hulls():
    # three generic segments in the plane: hexagon
    hexa = convex_hull(zonotope_points([[1, 0], [0, 1], [1, 1]]))
    assert hexa.f_vector[0] == 6 == zonotope_bound(0, 3, 2)
    # d-cube for d <= 4
    for d in (2, 3, 4):
        gens = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        cube = convex_hull(zonotope_points(gens))
        assert cube.f_vector[0] == 2**d == zonotope_bound(0, d, d)


def generic_generators(rng, d: int, n: int) -> list[list[int]]:
    """n integer vectors in R^d with every d of them linearly independent,
    each d-subset checked by ``int_det``."""
    while True:
        gens = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(n)]
        if all(int_det([gens[i] for i in rows]) for rows in itertools.combinations(range(n), d)):
            return gens


@pytest.mark.parametrize("d, n", [(3, 4), (3, 6), (4, 5), (4, 7), (5, 7)])
def test_generic_zonotopes_attain_the_zonotope_bound(d, n):
    """The Minkowski sum of n segments whose generators are in general
    position has the most faces a sum of n non-parallel edges can have, by
    both Minkowski oracles."""
    gens = generic_generators(random.Random(100 * d + n), d, n)
    pps = PartitionedPointSet.from_rows([[[0] * d, g] for g in gens])
    expected = tuple(zonotope_bound(l, n, d) for l in range(d))
    assert minksum_via_cayley(pps) == expected
    assert minksum_direct(pps) == expected


@pytest.mark.parametrize("d, n1, n2", [(3, 4, 4), (3, 5, 7), (4, 5, 5), (4, 6, 9), (5, 6, 6)])
def test_two_summand_family_attains_the_two_polytope_bound(d, n1, n2):
    """At r = 2 the certified family's f-vector is at most the two-polytope
    bound at every k, a theorem, and equals it, a fact measured on these
    instances, past the range where it attains phi."""
    params, _, _ = certify_family(ConstructionParams.defaults(d, 2, [n1, n2]))
    family = generate_family(params)
    f = minksum_via_cayley(family)
    assert f == minksum_direct(family)
    bound = tuple(two_polytope_bound(k + 1, d, n1, n2) for k in range(d))
    assert all(fk <= b for fk, b in zip(f, bound))
    assert f == bound


def test_many_summand_f0_bounds():
    sanyal, weibel = many_summand_f0_bounds(VertexProfile((4, 4, 4), 3))
    assert weibel == 3 * 16 - 3 * 4 + 2  # 3n^2 - 3n + 2 at n=4
    assert weibel <= sanyal <= 64
    # alpha = 0 for even d, 2 for odd d: check via a direct recomputation
    for d, expected_alpha in ((3, 2), (4, 0), (5, 2), (6, 0)):
        assert 2 * (d - 2 * (d // 2)) == expected_alpha
    with pytest.raises(ValueError):
        many_summand_f0_bounds(VertexProfile((4, 4), 3))


def test_many_summand_bounds_ordering():
    for n in [(4, 4, 4), (5, 5, 5), (4, 5, 6), (5, 5, 5, 5)]:
        profile = VertexProfile(n, 3)
        sanyal, weibel = many_summand_f0_bounds(profile)
        assert weibel <= sanyal <= math.prod(n)
