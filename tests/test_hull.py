"""Tests for exact convex hulls and face lattices."""

import dataclasses
import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polysum.cayley as cayley
import polysum.exact as exact
import polysum.hull as hull
from polysum.cayley import PartitionedPointSet, cayley_lattice, minksum_direct_lattice, spanning_face_counts
from polysum.cli import run_command
from polysum.exact import affine_rank, hyperplane, int_row_space_pivots
from polysum.hull import (
    PointSet,
    _Prepared,
    _spanning,
    convex_hull,
    is_face,
    neighborliness,
    verify_supporting,
)

from helpers import _side_scan, facets_exhaustive, fraction_sums, spanning_counts_by_parts


def scale_translate(ps: PointSet, scale: Fraction, shift) -> PointSet:
    """Apply p -> scale*p + shift to every point."""
    pts = tuple(tuple(scale * x + dx for x, dx in zip(p, shift)) for p in ps.points)
    return PointSet(ps.ambient_dim, pts, ps.labels)


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


def test_verify_supporting_rejects_wrong_facets():
    """A facet whose hyperplane has points on both sides (the square's
    diagonal), or whose points span more than a hyperplane, fails."""
    vertices, top = frozenset({1, 2, 4, 8}), frozenset({15})
    assert verify_supporting(hull.FaceLattice(2, 4, (vertices, frozenset({3, 6, 12, 9}), top)), square())
    for facets in ({3, 6, 12, 5}, {3, 6, 12, 11}):
        assert not verify_supporting(hull.FaceLattice(2, 4, (vertices, frozenset(facets), top)), square())


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
    assert lat.levels == (frozenset({(0, 1, 2)}),)


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
    # a vertex given twice is one vertex: each copy alone is no face
    twice = convex_hull(PointSet.from_rows([[0, 0], [2, 0], [1, 1], [2, 2], [0, 2], [2, 0]]))
    assert twice.levels[0] == {(0,), (1, 5), (3,), (4,)}
    assert neighborliness(twice) == 1
    tetrahedron = PointSet.from_rows([*simplex3().points, (0, 1, 0)])
    assert neighborliness(convex_hull(tetrahedron)) == 3


def test_lattice_closure_under_intersection():
    lat = convex_hull(moment_points(3, range(1, 6)))
    universe = {()}.union(*lat.levels)
    vsets = [set(f) for f in universe]
    for a in vsets:
        for b in vsets:
            inter = tuple(sorted(a & b))
            assert inter in universe


def test_face_dims_match_affine_rank():
    ps = moment_points(3, range(1, 6))
    lat = convex_hull(ps)
    for dim, level in enumerate(lat.levels):
        for f in level:
            assert affine_rank([ps.points[i] for i in f]) == dim


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
    assert lat.levels == lat2.levels
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


def members(prep: _Prepared, mask: int) -> frozenset[int]:
    """The distinct points a face's bitmask holds, each set bit the first
    index of its point in the input."""
    return frozenset(prep.rep_of[i] for i in range(mask.bit_length()) if mask >> i & 1)


def wrap(prep: _Prepared) -> list[frozenset]:
    """The polytope's facets from its gift-wrap, each distinct point the bit
    of its first index in the input, as ``convex_hull`` runs it."""
    facets, _ = hull._wrap(prep.reduced, [1 << m[0] for m in prep.members], prep.rank)
    return [members(prep, f) for f in facets]


def record(monkeypatch, name: str, module=hull) -> list:
    """Each call of ``<module>.<name>`` from here on, as (args, result)."""
    calls = []
    original = getattr(module, name)

    def recorded(*args):
        out = original(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, recorded)
    return calls


def wrap_and_oracle(ps: PointSet):
    prep = _Prepared(ps)
    wrapped = wrap(prep)
    assert len(set(wrapped)) == len(wrapped)
    return set(wrapped), set(facets_exhaustive(prep.reduced, prep.rank))


def lattice_oracle(ps: PointSet, facets=None) -> set[tuple[int, tuple[int, ...]]]:
    """(dim, vertices) of every face: the exhaustive facets (or ``facets``,
    found by them) closed under intersection, each face ranked from its
    points' integer difference rows."""
    prep = _Prepared(ps)
    if facets is None:
        facets = facets_exhaustive(prep.reduced, prep.rank)
    faces = set(facets)
    frontier = set(facets)
    while frontier:
        frontier = {a & b for a in frontier for b in facets} - faces - {frozenset()}
        faces |= frontier
    dims = {f: len(difference_pivots([prep.reduced[i] for i in sorted(f)])) for f in faces}
    vertices = {i for f in faces if dims[f] == 0 for i in f}

    def expand(f):
        return tuple(sorted(i for d in f if d in vertices for i in prep.members[d]))

    top = (prep.rank, expand(range(len(prep.reduced))))
    return {(dims[f], expand(f)) for f in faces} | {(-1, ()), top}


def wrap_cases() -> list[list[list[int]]]:
    rng = random.Random(987)
    cases = []
    for _ in range(12):
        d = rng.randint(2, 4)
        n = rng.randint(d + 2, 12)
        cases.append([[rng.randint(-6, 6) for _ in range(d)] for _ in range(n)])
    cube = [list(p) for p in itertools.product([0, 2], repeat=3)]
    return cases + [
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


def test_wrap_matches_exhaustive():
    for rows in wrap_cases():
        wrapped, oracle = wrap_and_oracle(PointSet.from_rows(rows))
        assert wrapped == oracle


def test_lattice_matches_intersection_closure():
    for rows in functional_cases():
        ps = PointSet.from_rows(rows)
        faces = {(dim, f) for dim, level in enumerate(convex_hull(ps).levels) for f in level}
        assert faces | {(-1, ())} == lattice_oracle(ps)


def test_only_the_polytope_is_wrapped(monkeypatch):
    """One gift-wrap, of the polytope: one first facet, then one rotation
    per further facet.  Each facet that is not a simplex gets one double
    description pass over its points, and a simplex none."""
    rotations = record(monkeypatch, "_rotate")
    passes = record(monkeypatch, "_double_description")
    first_facet, firsts = hull._first_facet, []

    def first_counted(pts, k):
        before = len(rotations)
        out = first_facet(pts, k)
        firsts.append((k, len(rotations) - before))
        return out

    monkeypatch.setattr(hull, "_first_facet", first_counted)
    truncated = [p for p in itertools.product([0, 2], repeat=3) if p != (2, 2, 2)] + [(2, 2, 1), (2, 1, 2), (1, 2, 2)]
    for rows, f_vector, points_per_pass in (
        # 8 cubes of 8 points each
        (list(itertools.product([0, 1], repeat=4)), (16, 32, 24, 8), [8] * 8),
        # a square with a point inside each edge: each facet is such an edge
        (list(itertools.product(range(3), repeat=2)), (4, 4), [3] * 4),
        # a cube with one corner cut off: 3 squares, 3 pentagons and a triangle
        (truncated, (10, 15, 7), [4, 4, 4, 5, 5, 5]),
    ):
        for calls in (rotations, passes, firsts):
            calls.clear()
        lattice = convex_hull(PointSet.from_rows(rows))
        assert lattice.f_vector == f_vector
        [(k, turns)] = firsts
        assert k == lattice.polytope_dim
        assert len(rotations) - turns == f_vector[-1] - 1
        assert sorted(len(args[0]) for args, _ in passes) == points_per_pass


def test_lower_faces_are_intersections_of_facets(monkeypatch):
    """Once the polytope's wrap returns, every level below its facets'
    facets is set operations on masks: no hyperplane, rotation, elimination
    or double description runs, and the lattice is the exhaustive one."""
    names = ("hyperplane", "_rotate", "int_row_space_pivots", "_double_description", "_first_facet")
    calls = {name: record(monkeypatch, name) for name in names}
    wrap_, at_return = hull._wrap, []

    def wrapped(*args):
        out = wrap_(*args)
        at_return.append({name: len(c) for name, c in calls.items()})
        return out

    monkeypatch.setattr(hull, "_wrap", wrapped)
    curve = [[t**e for e in range(1, 6)] for t in range(1, 7)]
    other = [[(-t) ** e + (e == 2) * t for e in range(1, 6)] for t in range(1, 7)]
    sums = [[a + b for a, b in zip(p, q)] for p in curve for q in other]
    cube = [list(p) for p in itertools.product([0, 2], repeat=4)]
    # the 4-cube with a point inside a square, one inside an edge and its centre
    cube += [[1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 1, 1]]
    for rows, f_vector, oracle in ((sums, (36, 156, 288, 252, 86), False), (cube, (16, 32, 24, 8), True)):
        for c in calls.values():
            c.clear()
        at_return.clear()
        ps = PointSet.from_rows(rows)
        lattice = convex_hull(ps)
        assert at_return == [{name: len(c) for name, c in calls.items()}]
        assert lattice.f_vector == f_vector
        if oracle:
            faces = {(dim, f) for dim, level in enumerate(lattice.levels) for f in level}
            assert faces | {(-1, ())} == lattice_oracle(ps)


def dd_cases() -> list[list[list[int]]]:
    """1,200 seeded point sets for the double description pass: d = 1..5 in
    the boxes [-1, 1]..[-3, 3], a quarter with duplicate points and a
    quarter embedded in a higher dimension, and a pyramid over C_5(10)."""
    rng = random.Random(1953)
    cases = []
    for n in range(1200):
        d = n % 5 + 1
        box = rng.randint(1, 3)
        rows = [[rng.randint(-box, box) for _ in range(d)] for _ in range(rng.randint(d + 1, d + 5))]
        if n % 4 == 1:
            rows += rng.sample(rows, 2)
        elif n % 4 == 2:
            rows = [p + [sum(p) - 2 * p[0], 3] for p in rows]
        cases.append(rows)
    cases.append([[t**e for e in range(1, 6)] + [0] for t in range(1, 11)] + [[0] * 5 + [1]])
    return cases


def test_double_description_matches_exhaustive():
    """A double description pass over full-rank points gives the exhaustive
    facets, each with its primitive functional, zero exactly on the facet
    and positive on every other point, and its zero set both as a mask of
    the rows' positions and as the mask of the rows' marks, which here skip
    bits and reach past bit 70.  The whole lattice is the exhaustive facets
    closed under intersection."""
    checked = degenerate = 0
    for rows in dd_cases():
        ps = PointSet.from_rows(rows)
        prep = _Prepared(ps)
        if prep.rank == 0:
            continue
        lifted = [(1, *p) for p in prep.reduced]
        marks = [1 << 2 * n + 1 for n in range(len(lifted) - 1)] + [1 << 73]
        facets = {}
        for h, zero, marked in hull._double_description(lifted, marks):
            assert marked == sum(marks[n] for n in hull._indices(zero))
            assert math.gcd(*h) == 1
            values = [sum(map(operator.mul, h, row)) for row in lifted]
            assert all(x > 0 for n, x in enumerate(values) if not zero >> n & 1)
            assert all(x == 0 for n, x in enumerate(values) if zero >> n & 1)
            facets[frozenset(hull._indices(zero))] = h
        exhaustive = facets_exhaustive(prep.reduced, prep.rank)
        assert set(facets) == set(exhaustive)
        degenerate += any(len(f) > prep.rank for f in facets)
        faces = {(dim, f) for dim, level in enumerate(convex_hull(ps).levels) for f in level}
        assert faces | {(-1, ())} == lattice_oracle(ps, exhaustive)
        checked += 1
    assert checked > 1100
    assert degenerate > 300


def test_double_description_refuses_dependent_rows():
    """Rows of rank below their length have no simplicial start cone: the
    pass stops with its own message, not a TypeError further on."""
    square = [(1, 0, 0), (1, 2, 0), (1, 0, 2), (1, 2, 2)]
    for rows in ([(1, x, 2 * x) for x in range(4)], [(1, *p, 0) for _, *p in square], square[:2]):
        with pytest.raises(AssertionError, match="facet rows are not full rank"):
            hull._double_description(rows, [1 << n for n in range(len(rows))])
    assert len(hull._double_description(square, [1, 2, 4, 8])) == 4


def test_dropped_ray_breaks_the_ridge_count(monkeypatch):
    """A facet's double description that lost one of its facets leaves a
    ridge of the wrap outside exactly two facets."""
    double_description = hull._double_description

    def dropped(rows, marks):
        return double_description(rows, marks)[1:]

    monkeypatch.setattr(hull, "_double_description", dropped)
    for rows in ([list(p) for p in itertools.product([0, 1], repeat=3)], list(itertools.product(range(3), repeat=2))):
        with pytest.raises(AssertionError, match="ridge outside exactly two facets"):
            convex_hull(PointSet.from_rows(rows))


def sum_cases() -> dict[str, list[list[list[int]]]]:
    """Summands whose sums have wrapped faces of several kinds: cubes (the
    4-cube's facets), prisms (those of the triangle x triangle and of the
    triangle x square), and faces of degenerate summands, which have
    duplicate points and points inside edges."""
    rng = random.Random(4242)

    def segment(axis, d, length=1):
        return [[0] * d, [length * (c == axis) for c in range(d)]]

    triangle = [[0, 0, 0], [2, 0, 0], [0, 2, 0]]
    cases = {
        "4-cube": [segment(c, 4) for c in range(4)],
        "triangle x square": [[p + [0] for p in triangle], segment(2, 4), segment(3, 4)],
        "triangle x triangle": [[[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]],
        # a point inside each edge and a duplicate: a 3x3x3 grid with repeats
        "midpoints": [segment(c, 3, 2) + [[(c == a) for a in range(3)], [0, 0, 0]] for c in range(3)],
        "triangle with a point inside an edge, and a square": [
            triangle + [[1, 0, 0], [2, 0, 0]],
            [[0, 0, 1], [0, 1, 1], [1, 0, 2], [1, 1, 2]],
        ],
    }
    for n in range(4):
        d = rng.choice([3, 4])
        cases[f"random {n}"] = [[[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(3, 5))] for _ in range(2)]
    return cases


def test_lattices_match_the_oracle_on_minkowski_sums(monkeypatch):
    """Faces of Minkowski sums, whose facets are prisms, cubes and faces of
    degenerate summands, give the exhaustive lattice, both from the hull of
    the sums and from the Cayley hull's certified proposals.  Both take
    many double description passes: the hull one per non-simplex facet, the
    certificate one per facet that is neither a simplex nor a product of
    simplices, as a degenerate summand's may be."""
    passes = record(monkeypatch, "_double_description")
    certified, sum_facets = [], cayley._sum_facets

    def counted(*args):
        before = len(passes)
        out = sum_facets(*args)
        certified.append(len(passes) - before)
        return out

    monkeypatch.setattr(cayley, "_sum_facets", counted)
    wrapped = 0
    for name, parts in sum_cases().items():
        pps = PartitionedPointSet.from_rows(parts)
        sums = PointSet.from_rows(fraction_sums(pps))
        oracle = lattice_oracle(sums)
        before = len(passes)
        hulled = convex_hull(sums)
        wrapped += len(passes) - before
        for lattice in (hulled, minksum_direct_lattice(pps)):
            faces = {(dim, f) for dim, level in enumerate(lattice.levels) for f in level}
            assert faces | {(-1, ())} == oracle, name
    assert wrapped > 40
    assert sum(certified) > 10


def test_first_facet_is_a_facet(monkeypatch):
    rotations = []
    rotate = hull._rotate

    def counted(*args):
        rotations.append(args)
        return rotate(*args)

    monkeypatch.setattr(hull, "_rotate", counted)
    octahedron = [[s * (i == j) for j in range(3)] for i in range(3) for s in (-1, 1)]
    cube = [list(p) for p in itertools.product([0, 2], repeat=3)]
    # the octahedron's lowest vertex, then its lowest edge, only span a ridge
    # of the next shadow, so both steps rotate; the cube's lowest square is
    # a facet of every shadow, so none does
    cases = [(rows, None) for rows in wrap_cases()] + [(octahedron, 2), (cube, 0)]
    for rows, turns in cases:
        prep = _Prepared(PointSet.from_rows(rows))
        rotations.clear()
        functional, values = hull._first_facet(prep.reduced, prep.rank)
        assert values == hull._values(functional, prep.reduced)
        assert min(values) == 0
        assert frozenset(i for i, x in enumerate(values) if not x) in facets_exhaustive(prep.reduced, prep.rank)
        assert turns is None or len(rotations) == turns


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
    assert set(wrap(prep)) == expected

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
    assert (1, 3) in lat.levels[0]


def test_masks_hold_every_copy_of_a_vertex():
    """The lattice is its masks alone, and a face's mask holds every input
    index on its vertices: both copies of the repeated vertex (2, 0), at 1
    and 5, and never the interior point (1, 1), at 2."""
    lattice = convex_hull(PointSet.from_rows([[0, 0], [2, 0], [1, 1], [2, 2], [0, 2], [2, 0]]))
    assert tuple(f.name for f in dataclasses.fields(lattice)) == ("ambient_dim", "n_points", "masks")
    assert lattice.masks[0] == {1 << 0, 1 << 1 | 1 << 5, 1 << 3, 1 << 4}
    assert lattice.masks[1] == {1 << 0 | 1 << 1 | 1 << 5, 1 << 1 | 1 << 5 | 1 << 3, 1 << 3 | 1 << 4, 1 << 4 | 1 << 0}


def functional_cases() -> list[list[list[int]]]:
    """``wrap_cases()`` plus seeded sets with duplicate points, points inside
    edges and facets (small boxes), and lower-dimensional embeddings."""
    rng = random.Random(2718)
    cases = wrap_cases()
    for _ in range(24):
        d = rng.randint(2, 4)
        box = rng.choice([1, 2, 3])
        rows = [[rng.randint(-box, box) for _ in range(d)] for _ in range(rng.randint(d + 2, 14))]
        rows += rng.sample(rows, 2)
        if rng.random() < 0.4:
            rows = [p + [p[0] - 3 * p[-1], 7] for p in rows]
        cases.append(rows)
    # copies placed before later distinct points, so a point's first index in
    # the input, its bit in a face's mask, differs from its place among the
    # distinct points
    for _ in range(6):
        d = rng.randint(2, 4)
        rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(d + 3, 12))]
        for _ in range(3):
            at = rng.randint(1, len(rows) - 2)
            rows.insert(at, list(rng.choice(rows[:at])))
        cases.append(rows)
    return cases


def top_rotations(rotations: list, prep: _Prepared) -> list:
    """The recorded ``_rotate`` calls of the polytope's wrap, in order; a
    shadow step of the first facet rotates other points."""
    return [(args, out) for args, out in rotations if args[0] is prep.reduced]


def test_carried_functionals_are_primitive_and_support_their_face(monkeypatch):
    """Every functional the polytope's wrap holds is primitive, zero exactly
    on its facet and positive on the rest of the points, and every ridge
    functional it turns about (a facet's double description gave it, or one
    hyperplane in a simplex) is primitive, zero exactly on a ridge of that
    facet and positive on the rest of the facet."""
    rotations = record(monkeypatch, "_rotate")
    firsts = record(monkeypatch, "_first_facet")
    checked = ridges = in_simplices = 0
    # each case also with its coordinates reversed, so that other columns pivot
    for rows in functional_cases() + [[p[::-1] for p in rows] for rows in functional_cases()]:
        prep = _Prepared(PointSet.from_rows(rows))
        if prep.rank == 0:
            continue
        rotations.clear()
        firsts.clear()
        facets = set(wrap(prep))
        pts = prep.reduced
        [(_, (first, _))] = firsts
        turns = top_rotations(rotations, prep)
        for u in [first] + [out[0] for _, out in turns]:
            values = hull._values(u, pts)
            assert math.gcd(*u) == 1 and min(values) == 0
            assert frozenset(i for i, x in enumerate(values) if not x) in facets
            checked += 1
        for (_, u_values, u, v), _ in turns:
            on = [i for i, x in enumerate(u_values) if not x]
            values = dict(zip(on, hull._values(v, [pts[i] for i in on])))
            ridge = frozenset(i for i, x in values.items() if not x)
            assert math.gcd(*v) == 1
            assert all(x > 0 for i, x in values.items() if i not in ridge)
            assert ridge in {frozenset(on) & g for g in facets if g != frozenset(on)}
            assert (len(difference_pivots([pts[i] for i in sorted(ridge)])) if ridge else -1) == prep.rank - 2
            checked += 1
            ridges += 1
            in_simplices += len(on) == prep.rank
    assert checked > 1800
    assert ridges - in_simplices > 100
    assert in_simplices > 750


def difference_pivots(pts) -> tuple[int, ...]:
    """Pivot columns of a face from its own points, by one elimination of
    their difference rows (test oracle for the column rule)."""
    return int_row_space_pivots([[x - b for x, b in zip(p, pts[0])] for p in pts[1:]])[1]


def test_carried_columns_are_the_difference_row_pivots(monkeypatch):
    """A facet's pivot columns, the polytope's minus the last one its
    functional uses, are those of its points' difference rows, and its mask
    holds each of its points' first index in the input."""
    rotations = record(monkeypatch, "_rotate")
    firsts = record(monkeypatch, "_first_facet")
    checked = shifted = 0
    # each case also with its coordinates reversed, so that other columns pivot
    for rows in functional_cases() + [[p[::-1] for p in rows] for rows in functional_cases()]:
        prep = _Prepared(PointSet.from_rows(rows))
        if prep.rank == 0:
            continue
        rotations.clear()
        firsts.clear()
        masks, _ = hull._wrap(prep.reduced, [1 << m[0] for m in prep.members], prep.rank)
        [(_, (first, _))] = firsts
        functionals = [first] + [out[0] for _, out in top_rotations(rotations, prep)]
        assert len(functionals) == len(masks)
        for mask, u in zip(masks, functionals):
            on = [i for i, x in enumerate(hull._values(u, prep.reduced)) if not x]
            assert hull._indices(mask) == [prep.members[d][0] for d in on]
            shifted += hull._indices(mask) != on
            t = max(n for n, c in enumerate(u) if c)
            assert tuple(c for c in range(prep.rank) if c != t - 1) == difference_pivots([prep.reduced[i] for i in on])
            checked += 1
    assert checked > 950
    # copies placed before later points shift their first indices
    assert shifted > 250


def rotate_by_candidates(pts, flat, away, start) -> frozenset:
    """Gift-wrap step the slow way (test oracle): one hyperplane through the
    ridge's spanning points ``flat`` and each candidate, oriented to keep
    ``away`` (on the current facet, off the ridge) positive; a candidate
    strictly behind the current hyperplane replaces it.  ``pts[start]`` lies
    off the current facet.  A side scan returns the final on-set."""
    rows = [(1, *q) for q in flat]

    def through(p):
        h = hyperplane(rows + [(1, *p)])
        if h[0] + sum(map(operator.mul, h[1:], away)) < 0:
            h = tuple(-c for c in h)
        return h

    h = through(pts[start])
    for p in pts:
        if h[0] + sum(map(operator.mul, h[1:], p)) < 0:
            h = through(p)
    on = _side_scan(h, pts)
    assert on is not None
    return on


def test_pencil_rotation_matches_candidate_rotation(monkeypatch):
    """Every rotation of the polytope's wrap lands on the facet that the
    slow candidate rotation about the same ridge finds."""
    rotations = record(monkeypatch, "_rotate")
    triples = 0
    # each case also with its coordinates reversed, so that other columns pivot
    for rows in functional_cases() + [[p[::-1] for p in rows] for rows in functional_cases()]:
        prep = _Prepared(PointSet.from_rows(rows))
        if prep.rank < 2:
            continue
        rotations.clear()
        facets = set(wrap(prep))
        pts = prep.reduced
        for (_, u_values, u, v), (_, values) in top_rotations(rotations, prep):
            on_facet = [i for i, x in enumerate(u_values) if not x]
            on_ridge = [i for i, x in zip(on_facet, hull._values(v, [pts[i] for i in on_facet])) if not x]
            flat = _spanning([pts[i] for i in on_ridge])
            away = pts[min(set(on_facet) - set(on_ridge))]
            start = next(i for i, x in enumerate(u_values) if x)
            pencil = frozenset(i for i, x in enumerate(values) if not x)
            assert pencil == rotate_by_candidates(pts, flat, away, start)
            assert pencil in facets and pencil != frozenset(on_facet)
            triples += 1
    assert triples > 850


def test_wrap_work_counts(monkeypatch):
    names = ("hyperplane", "cone_rays", "_rotate", "int_row_space_pivots", "_spanning", "_double_description", "_indices", "_echelon")
    counts = dict.fromkeys(names, 0)
    for name in counts:
        module = exact if name == "_echelon" else hull
        original = getattr(module, name)

        def counted(*args, original=original, name=name):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    first_facet, cut = hull._first_facet, hull._cut
    first_turns, pairs = [], []

    def first_counted(*args):
        before = counts["_rotate"]
        out = first_facet(*args)
        first_turns.append(counts["_rotate"] - before)
        return out

    def cut_counted(rays, row, *args):
        signs = [sum(map(operator.mul, h, row)) for h, *_ in rays]
        pairs.append(sum(x > 0 for x in signs) * sum(x < 0 for x in signs))
        return cut(rays, row, *args)

    monkeypatch.setattr(hull, "_first_facet", first_counted)
    monkeypatch.setattr(hull, "_cut", cut_counted)

    def work(rows):
        for name in counts:
            counts[name] = 0
        first_turns.clear()
        pairs.clear()
        lattice = convex_hull(PointSet.from_rows(rows))
        # every rotation of the wrap past its first facet finds a new facet
        assert counts["_rotate"] - sum(first_turns) == lattice.f_vector[-1] - 1
        # one elimination for the rank and one per shadow step of the first
        # facet; a double description pass takes none of these
        assert counts["int_row_space_pivots"] == 1 + counts["_spanning"]
        # but one for both its affine basis and all the rays of that basis's
        # simplex cone
        assert counts["cone_rays"] == counts["_double_description"]
        assert counts["_echelon"] == counts["int_row_space_pivots"] + counts["cone_rays"] + counts["hyperplane"]
        # a pass hands over its ridges in the polytope's bits, with no remap
        assert counts["_indices"] == 0
        return (
            lattice.f_vector,
            counts["hyperplane"],
            counts["_rotate"],
            sum(first_turns),
            counts["_double_description"],
            len(pairs),
            sum(pairs),
        )

    cube = list(itertools.product([0, 1], repeat=4))
    # each of the 8 facets is a cube: one pass from a simplex cone of 4 rays
    # (one elimination, no hyperplane), then 4 cuts with 80 (+, -) ray pairs
    # in all.  The lowest square is a facet of every shadow, so the first
    # facet costs no rotation
    assert work(cube) == ((16, 32, 24, 8), 0, 7, 0, 8, 32, 80)
    curve = [[t**e for e in range(1, 6)] for t in range(1, 7)]
    other = [[(-t) ** e + (e == 2) * t for e in range(1, 6)] for t in range(1, 7)]
    sums = [[a + b for a, b in zip(p, q)] for p in curve for q in other]
    # 74 of the 86 facets are not simplices, each one pass whose simplex cone
    # takes no hyperplane; 7 hyperplanes for ridges of the 12 simplex facets
    # the wrap crosses, and 4 for the first facet's shadow rotations
    assert work(sums) == ((36, 156, 288, 252, 86), 11, 89, 4, 74, 254, 508)


def test_walk_frees_a_walked_facets_values():
    """Once the walk is done with a facet, all its ridges are closed and its
    values at every point are dropped.  This sum's 256 points hold 60
    vertices and its top wrap finds 86 facets: keeping every facet's values
    peaked at about 1,000 KB of traced memory, dropping them at about 215 KB."""
    curve = [[t, t * t + t, t**3] for t in range(1, 17)]
    other = [[-t, t * t + t, -(t**3)] for t in range(1, 17)]
    ps = PointSet.from_rows([[a + b for a, b in zip(p, q)] for p in curve for q in other])
    tracemalloc.start()
    try:
        lattice = convex_hull(ps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lattice.f_vector == (60, 144, 86)
    assert peak < 512 * 1024


def corank_one_cases() -> dict[str, list[list[int]]]:
    """Point sets whose every face has at most j + 2 points: each face's
    facets come from its one affine dependency, with no gift-wrap."""
    return {
        # the apex has lambda = 0, so the base is a facet with 4 points in a plane
        "square pyramid": [[0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0], [1, 1, 3]],
        # lambda = 0 at the opposite vertex: a facet of j + 1 points, 3 on a segment
        "point mid-edge": [[0, 0], [2, 0], [0, 2], [1, 0]],
        # two lambda = 0 points; the facets they leave are corank one again
        "point mid-edge of a tetrahedron": [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 0, 0]],
        "point inside a triangle": [[0, 0], [3, 0], [0, 3], [1, 1]],
        "point inside a tetrahedron's facet": [[0, 0, 0], [3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 0]],
        "three collinear points": [[0, 0], [1, 1], [2, 2]],
    }


def test_corank_one_faces_match_the_oracle(monkeypatch):
    """Faces of j + 2 points, which have one affine dependency, get the
    exhaustive lattice: a facet's from its double description pass, a lower
    face's from its parent's facets.  Each pass reads its facet's points in
    pivot columns where they are full-rank."""
    passes = record(monkeypatch, "_double_description")
    shift = [Fraction(1, 3), Fraction(-2), Fraction(5, 7)]
    for name, rows in corank_one_cases().items():
        ps = PointSet.from_rows(rows)
        for variant in (
            ps,
            scale_translate(ps, Fraction(3, 2), shift[: ps.ambient_dim]),
            PointSet.from_rows(rows[::-1] + rows[:2]),  # reordered, with duplicates
        ):
            passes.clear()
            faces = {(dim, f) for dim, level in enumerate(convex_hull(variant).levels) for f in level}
            assert faces | {(-1, ())} == lattice_oracle(variant), name
            wrapped, oracle = wrap_and_oracle(variant)
            assert wrapped == oracle, name
            k = _Prepared(variant).rank
            assert len(passes) == 2 * sum(len(f) > k for f in oracle), name
            for (lifted, _), _ in passes:
                assert len(difference_pivots([row[1:] for row in lifted])) == len(lifted[0]) - 1 == k - 1, name

    lattice = convex_hull(PointSet.from_rows(corank_one_cases()["square pyramid"]))
    assert lattice.f_vector == (5, 8, 5)
    assert (0, 1, 2, 3) in lattice.levels[2]
    # the interior points of an edge and of a facet are no vertex of any face
    for name, inner in (("point mid-edge", 3), ("point inside a tetrahedron's facet", 4)):
        lattice = convex_hull(PointSet.from_rows(corank_one_cases()[name]))
        assert inner not in lattice.vertex_indices
        assert verify_supporting(lattice, PointSet.from_rows(corank_one_cases()[name]))


def view_cases() -> list[list[list[Fraction]]]:
    """1,200 seeded point sets for the lattice's tuple view and face
    queries: d = 1..5 in the boxes [-1, 1]..[-3, 3], some with copies of
    points placed before later ones, some with points inside the hull
    (centroids of a few points), and some embedded in a higher dimension."""
    rng = random.Random(1203)
    cases = []
    for n in range(1200):
        d = n % 5 + 1
        box = rng.randint(1, 3)
        rows = [[Fraction(rng.randint(-box, box)) for _ in range(d)] for _ in range(rng.randint(d + 1, d + 5))]
        if n % 3 == 0:
            for _ in range(rng.randint(1, 2)):
                some = rng.sample(rows, rng.randint(2, len(rows)))
                rows.append([sum(c) / len(some) for c in zip(*some)])
        if n % 4 == 1:
            for _ in range(rng.randint(1, 3)):
                at = rng.randint(1, len(rows) - 1)
                rows.insert(at, list(rng.choice(rows[:at])))
        if n % 5 == 2:
            rows = [p + [p[0] - 2 * p[-1], Fraction(3)] for p in rows]
        cases.append(rows)
    return cases


def test_levels_view_and_face_queries_match_the_oracle():
    """The tuple view of the mask lattice is the exhaustive lattice, with
    every copy of a repeated vertex and no point that is no vertex, and
    ``is_face`` on masks agrees with a lookup among those tuples: a face
    that lacks one copy of a repeated vertex is no face."""
    rng = random.Random(2002)
    checked = copies = queries = 0
    for rows in view_cases():
        ps = PointSet.from_rows(rows)
        lattice = convex_hull(ps)
        faces = {(dim, f) for dim, level in enumerate(lattice.levels) for f in level}
        if _Prepared(ps).rank:
            assert faces | {(-1, ())} == lattice_oracle(ps)
        else:
            assert lattice.levels == (frozenset({tuple(range(len(rows)))}),)
        assert lattice.vertex_indices == tuple(sorted(i for vertex in lattice.levels[0] for i in vertex))
        tuples = {f for _, f in faces}

        def looked_up(idx):
            return not idx or tuple(sorted(set(idx))) in tuples

        asked = [f for _, f in faces]
        for f in asked[:]:  # each face less one copy of a repeated vertex
            for vertex in lattice.levels[0]:
                if len(vertex) > 1 and set(vertex) <= set(f):
                    asked.append(tuple(i for i in f if i != vertex[-1]))
                    copies += 1
        asked += [rng.sample(range(len(rows)), rng.randint(0, len(rows))) for _ in range(20)]
        for idx in asked:
            assert is_face(lattice, idx) == looked_up(idx), (rows, idx)
            queries += 1
        checked += 1
    assert checked == 1200 and copies > 1000 and queries > 30000


def test_spanning_counts_match_the_parts_oracle():
    """Counting on masks, one AND per part, gives the spanning counts of
    the vertex tuples mapped to their parts."""
    rng = random.Random(55)
    cases = list(sum_cases().values())
    for _ in range(40):
        d = rng.randint(1, 4)
        parts = [[[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(2, 3))]
        parts[0] += parts[0][:1]  # a repeated point
        cases.append(parts)
    spanning = 0
    for parts in cases:
        pps = PartitionedPointSet.from_rows(parts)
        lattice = cayley_lattice(pps)
        counts = spanning_face_counts(lattice, pps)
        assert counts == spanning_counts_by_parts(lattice, pps), parts
        spanning += sum(counts)
    assert spanning > 1000


def test_face_counts_never_build_vertex_tuples(monkeypatch, tmp_path):
    """``minksum --method both`` and ``verify-tight`` read every count and
    face query off the masks: the tuple view is never built."""

    def refused(lattice):
        raise AssertionError("vertex tuples built")

    monkeypatch.setattr(hull.FaceLattice, "levels", property(refused))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{"ambient_dim": 3, "points": [["0","0","0"],["2","0","0"],["0","2","0"],["0","0","2"],["2","0","0"]]}')
    b.write_text('{"ambient_dim": 3, "points": [["0","0","0"],["1","1","0"],["1","0","1"],["0","1","1"],["1","1","1"]]}')
    for argv in (["minksum", "--inputs", str(a), str(b), "--method", "both"], ["verify-tight", "--d", "3", "--r", "2", "--n", "4,4"]):
        code, report = run_command(argv)
        assert code == 0 and report.passed, argv
    with pytest.raises(AssertionError, match="vertex tuples built"):
        convex_hull(square()).levels
