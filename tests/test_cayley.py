"""Tests for the Cayley-embedding route and the direct Minkowski oracle."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from polysum.bounds import VertexProfile, trivial_upper_bound
from polysum.cayley import (
    PartitionedPointSet,
    cayley_embed,
    cayley_lattice,
    minksum_direct,
    minksum_direct_lattice,
    minksum_via_cayley,
    spanning_face_counts,
)
from polysum.hull import PointSet, convex_hull, verify_supporting

from helpers import fraction_sums


def test_cayley_embed_definition():
    pps = PartitionedPointSet.from_rows([[[0], [1]], [[5]]])
    embedded = cayley_embed(pps)
    assert embedded.ambient_dim == 2
    assert [tuple(map(int, p)) for p in embedded.points] == [(0, 0), (0, 1), (1, 5)]


def test_cayley_embed_three_parts_prefixes():
    pps = PartitionedPointSet.from_rows([[[1]], [[2]], [[3]]])
    embedded = cayley_embed(pps)
    assert embedded.ambient_dim == 3
    prefixes = [p[:2] for p in embedded.points]
    assert prefixes == [(0, 0), (1, 0), (0, 1)]


def test_cayley_embed_injective_and_partition_preserving():
    pps = PartitionedPointSet.from_rows([[[0, 0], [1, 1]], [[0, 0], [1, 1]]])
    embedded = cayley_embed(pps)
    assert len(set(embedded.points)) == 4


def test_config_validation():
    with pytest.raises(ValueError):
        PartitionedPointSet.from_rows([[[0], [1]]])


def test_spanning_counts_same_segment_square():
    # two copies of the unit segment lift to a square; exactly the two
    # cross edges are spanning
    pps = PartitionedPointSet.from_rows([[[0], [1]], [[0], [1]]])
    lat = cayley_lattice(pps)
    assert lat.f_vector == (4, 4)
    g = spanning_face_counts(lat, pps)
    assert g == (0, 2)
    assert minksum_via_cayley(pps) == (2,)
    assert minksum_direct(pps) == (2,)


def test_spanning_counts_parallel_segments_distinct_lines():
    # parallel unit segments on distinct lines lift to a planar quadrilateral;
    # by hand, its spanning proper faces are exactly the two crossing edges
    pps = PartitionedPointSet.from_rows([[[0, 0], [1, 0]], [[0, 1], [1, 1]]])
    lat = cayley_lattice(pps)
    assert lat.polytope_dim == 2
    g = spanning_face_counts(lat, pps)
    assert g == (0, 2)
    # the parallel sum degenerates to a segment
    assert minksum_via_cayley(pps) == (2,) == minksum_direct(pps)


def test_spanning_counts_interior_part_gives_zero():
    # part 2 is a single point interior to part 1's square: it is a vertex of
    # no face, so no face can span both parts
    square = [[0, 0], [4, 0], [4, 4], [0, 4]]
    center = [[2, 2]]
    ps = PointSet.from_rows(square + center)
    lat = convex_hull(ps)
    pps = PartitionedPointSet.from_rows([square, center])
    g = spanning_face_counts(lat, pps)
    assert all(c == 0 for c in g)


def test_spanning_counts_size_mismatch_errors():
    pps = PartitionedPointSet.from_rows([[[0], [1]], [[0], [1]]])
    wrong = convex_hull(PointSet.from_rows([[0, 0], [1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        spanning_face_counts(wrong, pps)


def test_minksum_two_triangles_hexagon():
    t1 = [[0, 0], [4, 0], [0, 4]]
    t2 = [[0, 0], [-1, 3], [-3, -2]]
    pps = PartitionedPointSet.from_rows([t1, t2])
    assert minksum_direct(pps) == (6, 6)
    assert minksum_via_cayley(pps) == (6, 6)


def test_minksum_triangle_plus_negative():
    t = [[0, 0], [3, 0], [0, 3]]
    neg = [[0, 0], [-3, 0], [0, -3]]
    pps = PartitionedPointSet.from_rows([t, neg])
    fv = minksum_direct(pps)
    assert fv[0] == 6
    assert minksum_via_cayley(pps) == fv


def test_minksum_translate_by_point():
    tri = [[0, 0], [2, 0], [0, 2]]
    pps = PartitionedPointSet.from_rows([tri, [[7, -1]]])
    base = convex_hull(PointSet.from_rows(tri)).f_vector
    assert minksum_direct(pps) == base
    assert minksum_via_cayley(pps) == base


def test_minksum_collinear_segments():
    pps = PartitionedPointSet.from_rows([[[0, 0], [1, 0]], [[0, 0], [2, 0]]])
    assert minksum_direct(pps) == (2,)
    assert minksum_via_cayley(pps) == (2,)


def test_minksum_orthogonal_segments_square():
    pps = PartitionedPointSet.from_rows([[[0, 0], [1, 0]], [[0, 0], [0, 1]]])
    assert minksum_direct(pps) == (4, 4)
    assert minksum_via_cayley(pps) == (4, 4)


def test_minksum_point_plus_point():
    pps = PartitionedPointSet.from_rows([[[1, 2]], [[3, 4]]])
    assert minksum_direct(pps) == ()
    assert minksum_via_cayley(pps) == ()


def test_spanning_vertex_count_equals_sum_vertices():
    rng = random.Random(5)
    for _ in range(5):
        parts = [
            [[rng.randint(-3, 3) for _ in range(3)] for _ in range(rng.randint(1, 4))]
            for _ in range(2)
        ]
        pps = PartitionedPointSet.from_rows(parts)
        lat = cayley_lattice(pps)
        g = spanning_face_counts(lat, pps)
        direct = minksum_direct_lattice(pps)
        f0 = direct.f_vector[0] if direct.f_vector else 0
        r = pps.r
        g_r_minus_1 = g[r - 1] if len(g) > r - 1 else 0
        assert g_r_minus_1 == f0


def oracle_instances(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.choice([2, 3, 4])
        r = rng.choice([2, 3])
        sizes = [rng.randint(1, 5) for _ in range(r)]
        parts = []
        for ni in sizes:
            pts = {tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(ni)}
            parts.append([list(p) for p in sorted(pts)])
        out.append(PartitionedPointSet.from_rows(parts))
    return out


def test_oracle_equivalence_small_suite():
    for pps in oracle_instances(20250810, 8):
        via = minksum_via_cayley(pps)
        direct = minksum_direct(pps)
        assert via == direct


def test_oracle_equivalence_large_direct_hull():
    # three 5-point summands in R^3: the direct hull has over 120,000
    # candidate 3-subsets
    rng = random.Random(777)
    parts = []
    for _ in range(3):
        pts = {tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(5)}
        parts.append([list(p) for p in sorted(pts)])
    pps = PartitionedPointSet.from_rows(parts)
    sums = {
        tuple(a + b + c for a, b, c in zip(*triple))
        for triple in itertools.product(*(p.points for p in pps.parts))
    }
    assert math.comb(len(sums), 3) > 120_000
    ps = PointSet.from_rows(sorted(sums))
    lat = convex_hull(ps)
    assert verify_supporting(lat, ps)
    assert minksum_via_cayley(pps) == minksum_direct(pps) == lat.f_vector


def test_direct_lattice_of_mixed_denominators_is_the_fraction_sums_hull():
    """The sums are formed in integers after a per-coordinate scaling; that
    lattice must be the one of the Fraction sums, indexed the same way."""
    rng = random.Random(1729)
    denominators = (1, 2, 3, 4, 6, 9)
    for _ in range(12):
        d = rng.choice([2, 3])
        parts = [
            [[Fraction(rng.randint(-6, 6), rng.choice(denominators)) for _ in range(d)] for _ in range(rng.randint(2, 5))]
            for _ in range(rng.choice([2, 3]))
        ]
        parts[0].append(parts[0][0])  # a duplicate point
        pps = PartitionedPointSet.from_rows(parts)
        assert minksum_direct_lattice(pps) == convex_hull(PointSet.from_rows(fraction_sums(pps), ambient_dim=d))


def test_trivial_upper_bound_property():
    for pps in oracle_instances(99, 6):
        fv = minksum_direct(pps)
        hull_sizes = tuple(
            convex_hull(p).f_vector[0] if convex_hull(p).f_vector else 1
            for p in pps.parts
        )
        profile = VertexProfile(hull_sizes, max(pps.ambient_dim, len(fv), 1))
        for k, fk in enumerate(fv):
            assert fk <= trivial_upper_bound(k, profile)
