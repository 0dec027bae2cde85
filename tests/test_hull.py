"""Tests for exact convex hulls and face lattices."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysum.hull import (
    PointSet,
    _facets_exhaustive,
    _facets_wrap,
    _Prepared,
    convex_hull,
    is_face,
    neighborliness,
    scale_translate,
    verify_supporting,
)


def square() -> PointSet:
    return PointSet.from_rows([[0, 0], [1, 0], [1, 1], [0, 1]])


def simplex3() -> PointSet:
    return PointSet.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def moment_points(dim, ts):
    return PointSet.from_rows([[Fraction(t) ** e for e in range(1, dim + 1)] for t in ts])


def test_square_lattice():
    lat = convex_hull(square())
    assert lat.polytope_dim == 2
    assert lat.f_vector == (4, 4)
    assert lat.vertex_indices == (0, 1, 2, 3)
    assert verify_supporting(lat, square())


def test_simplex_lattice():
    lat = convex_hull(simplex3())
    assert lat.f_vector == (4, 6, 4)
    assert neighborliness(lat) == 3


def test_moment_curve_hull_c4_6():
    ps = moment_points(4, range(1, 7))
    lat = convex_hull(ps)
    assert lat.f_vector == (6, 15, 18, 9)
    assert 6 - 15 + 18 - 9 == 0
    assert neighborliness(lat) == 2


def test_empty_input_errors():
    with pytest.raises(ValueError):
        convex_hull(PointSet.from_rows([], ambient_dim=2))


def test_all_points_equal():
    ps = PointSet.from_rows([[1, 2], [1, 2], [1, 2]])
    lat = convex_hull(ps)
    assert lat.polytope_dim == 0
    assert lat.f_vector == ()
    assert any(f.dim == 0 and f.vertices == (0, 1, 2) for f in lat.faces)


def test_segment_with_interior_point():
    ps = PointSet.from_rows([[0, 0], [2, 2], [1, 1]])
    lat = convex_hull(ps)
    assert lat.polytope_dim == 1
    assert lat.f_vector == (2,)
    assert lat.vertex_indices == (0, 1)


def test_interior_point_excluded():
    ps = PointSet.from_rows([[0, 0], [4, 0], [0, 4], [4, 4], [2, 1]])
    lat = convex_hull(ps)
    assert lat.f_vector == (4, 4)
    assert 4 not in lat.vertex_indices


def test_is_face_queries():
    lat = convex_hull(square())
    assert is_face(lat, [0])
    assert is_face(lat, [0, 1])
    assert not is_face(lat, [0, 2])  # diagonal
    assert is_face(lat, [])  # empty face
    assert is_face(lat, [0, 1, 2, 3])  # trivial face
    with pytest.raises(IndexError):
        is_face(lat, [9])


def test_is_face_simplex_all_subsets():
    lat = convex_hull(simplex3())
    for size in range(1, 4):
        for sub in itertools.combinations(range(4), size):
            assert is_face(lat, sub)


def test_neighborliness_values():
    assert neighborliness(convex_hull(square())) == 1
    assert neighborliness(convex_hull(simplex3())) == 3
    single = convex_hull(PointSet.from_rows([[5, 5]]))
    assert neighborliness(single) == 0


def test_lattice_closure_under_intersection():
    lat = convex_hull(moment_points(3, range(1, 6)))
    vsets = [set(f.vertices) for f in lat.faces]
    universe = {f.vertices for f in lat.faces}
    for a in vsets:
        for b in vsets:
            inter = tuple(sorted(a & b))
            assert inter in universe


def test_face_dims_match_affine_rank():
    from polysum.exact import affine_rank

    ps = moment_points(3, range(1, 6))
    lat = convex_hull(ps)
    for f in lat.faces:
        if f.dim >= 0 and f.vertices:
            assert affine_rank([ps.points[i] for i in f.vertices]) == f.dim


def test_lower_dimensional_input():
    # a triangle embedded in a 2-flat of R^4
    rows = [[1, 0, 2, 3], [2, 1, 2, 3], [1, 1, 2, 3]]
    lat = convex_hull(PointSet.from_rows(rows))
    assert lat.ambient_dim == 4
    assert lat.polytope_dim == 2
    assert lat.f_vector == (3, 3)


def test_degenerate_facet_merged():
    # square pyramid in R^3: base facet has 4 vertices
    rows = [[0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0], [1, 1, 3]]
    lat = convex_hull(PointSet.from_rows(rows))
    assert lat.f_vector == (5, 8, 5)
    base = tuple(sorted([0, 1, 2, 3]))
    assert is_face(lat, base)


@given(st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_scaling_translation_invariance(seed):
    rng = random.Random(seed)
    d = rng.randint(2, 3)
    n = rng.randint(d + 1, 7)
    ps = PointSet.from_rows([[rng.randint(-4, 4) for _ in range(d)] for _ in range(n)])
    lat = convex_hull(ps)
    s = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    shift = [Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for _ in range(d)]
    lat2 = convex_hull(scale_translate(ps, s, shift))
    assert lat.faces == lat2.faces
    assert lat.f_vector == lat2.f_vector


@given(st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_random_hulls_supporting_and_facet_count(seed):
    rng = random.Random(seed)
    d = rng.randint(2, 4)
    n = rng.randint(d + 1, 8)
    ps = PointSet.from_rows([[rng.randint(-5, 5) for _ in range(d)] for _ in range(n)])
    lat = convex_hull(ps)
    assert verify_supporting(lat, ps)
    if lat.polytope_dim >= 1 and lat.f_vector[0] >= lat.polytope_dim + 1:
        assert lat.f_vector[-1] >= lat.polytope_dim + 1


def wrap_and_oracle(ps: PointSet):
    prep = _Prepared(ps)
    wrapped = _facets_wrap(prep.reduced, prep.rank)
    assert len(set(wrapped)) == len(wrapped)
    return set(wrapped), set(_facets_exhaustive(prep.reduced, prep.rank))


def test_wrap_matches_exhaustive():
    rng = random.Random(987)
    cases = []
    for _ in range(12):
        d = rng.randint(2, 4)
        n = rng.randint(d + 2, 12)
        cases.append([[rng.randint(-6, 6) for _ in range(d)] for _ in range(n)])
    cube = [list(p) for p in itertools.product([0, 2], repeat=3)]
    cases += [
        # duplicate points
        [[0, 0, 0], [3, 0, 0], [0, 3, 0], [0, 0, 3], [3, 0, 0], [0, 0, 3], [1, 1, 1]],
        # non-simplicial facets, with points inside facets, edges and the body
        cube + [[1, 1, 0], [1, 0, 0], [1, 1, 1]],
        [list(p) for p in itertools.product([0, 1], repeat=4)],
        [[0, 0], [1, 0], [2, 0], [2, 1], [2, 2], [1, 2], [0, 2], [0, 1]],
        # lower-dimensional than the ambient space
        [[1, 0, 2, 3], [2, 1, 2, 3], [1, 1, 2, 3], [3, 3, 2, 3], [2, 2, 2, 3]],
        [[t, t * t, 2 * t, 5] for t in range(5)],
    ]
    for rows in cases:
        wrapped, oracle = wrap_and_oracle(PointSet.from_rows(rows))
        assert wrapped == oracle


def test_wrap_handles_tiny_coordinates():
    # coordinates spanning wildly different scales
    t = Fraction(1, 2**40)
    rows = [[i * t, (i * i) * t * t, Fraction(i % 3)] for i in range(1, 8)]
    wrapped, oracle = wrap_and_oracle(PointSet.from_rows(rows))
    assert wrapped == oracle


def test_wrap_beyond_old_candidate_limit():
    # hulls with more than 120,000 candidate 3-subsets; the exhaustive oracle
    # is too slow here, so the expected facets are known in closed form
    grid = [list(p) for p in itertools.product(range(-2, 3), repeat=3)]
    assert math.comb(len(grid), 3) > 120_000
    ps = PointSet.from_rows(grid)
    lat = convex_hull(ps)
    assert lat.f_vector == (8, 12, 6)
    assert verify_supporting(lat, ps)
    prep = _Prepared(ps)
    expected = {
        frozenset(i for i, p in enumerate(grid) if p[axis] == side)
        for axis in range(3)
        for side in (-2, 2)
    }
    assert set(_facets_wrap(prep.reduced, 3)) == expected

    rng = random.Random(31337)
    pts = sorted({tuple(rng.randint(-30, 30) for _ in range(3)) for _ in range(140)})
    assert math.comb(len(pts), 3) > 120_000
    cloud = PointSet.from_rows(pts)
    assert verify_supporting(convex_hull(cloud), cloud)


def test_duplicated_points_share_faces():
    ps = PointSet.from_rows([[0, 0], [1, 0], [0, 1], [1, 0]])
    lat = convex_hull(ps)
    assert lat.f_vector == (3, 3)
    # both copies of (1,0) appear in the shared vertex
    assert any(f.dim == 0 and f.vertices == (1, 3) for f in lat.faces)
