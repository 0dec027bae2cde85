"""Tests for exact convex hulls and face lattices."""

import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polysum.hull as hull
from polysum.cayley import PartitionedPointSet, minksum_direct_lattice
from polysum.exact import affine_rank, hyperplane, int_row_space_pivots
from polysum.hull import (
    PointSet,
    _facets_of,
    _Prepared,
    _side_scan,
    _spanning,
    convex_hull,
    is_face,
    neighborliness,
    verify_supporting,
)

from helpers import canonical_key, facets_exhaustive, fraction_sums


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


def input_points(prep: _Prepared) -> list[tuple[int, ...]]:
    """The points ``_facets_of`` reads, indexed like the input: a repeated
    point's copies sit at its later indices, which no mask holds."""
    return [prep.reduced[d] for d in prep.rep_of]


def wrap_top(prep: _Prepared, memo: dict) -> int:
    """Wrap the face that holds every point, as ``convex_hull`` does; its mask."""
    firsts = [m[0] for m in prep.members]
    top = sum(1 << i for i in firsts)
    _facets_of(input_points(prep), top, prep.rank, memo, firsts, tuple(range(prep.rank)))
    return top


def wrap(prep: _Prepared) -> list[frozenset]:
    memo = {}
    return [members(prep, f) for f in memo[wrap_top(prep, memo)][0]]


def wrap_and_oracle(ps: PointSet):
    prep = _Prepared(ps)
    wrapped = wrap(prep)
    assert len(set(wrapped)) == len(wrapped)
    return set(wrapped), set(facets_exhaustive(prep.reduced, prep.rank))


def lattice_oracle(ps: PointSet) -> set[tuple[int, tuple[int, ...]]]:
    """(dim, vertices) of every face: the exhaustive facets closed under
    intersection, each face ranked from its points."""
    prep = _Prepared(ps)
    facets = facets_exhaustive(prep.reduced, prep.rank)
    faces = set(facets)
    frontier = set(facets)
    while frontier:
        frontier = {a & b for a in frontier for b in facets} - faces - {frozenset()}
        faces |= frontier
    dims = {f: affine_rank([prep.reduced[i] for i in f]) for f in faces}
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


def test_each_face_is_wrapped_once(monkeypatch):
    wraps, firsts = [], []
    facets_of, first_facet = hull._facets_of, hull._first_facet

    def counted(pts, face, j, memo, *args):
        if face not in memo and face.bit_count() > j + 2:  # a wrap: no memo entry, over j+2 points
            wraps.append(j)
        return facets_of(pts, face, j, memo, *args)

    def first_counted(pts, k):
        firsts.append(k)
        return first_facet(pts, k)

    monkeypatch.setattr(hull, "_facets_of", counted)
    monkeypatch.setattr(hull, "_first_facet", first_counted)
    lat = convex_hull(PointSet.from_rows(list(itertools.product([0, 1], repeat=4))))
    assert lat.f_vector == (16, 32, 24, 8)
    # one wrap per face of dimension >= 3: 8 cubes and the 4-cube; a square
    # has j + 2 points, so its facets come from its affine dependency
    assert len(wraps) == 9 == sum(lat.f_vector[3:]) + 1
    # every other face is entered across a ridge, which seeds its wrap, so
    # only the chain of first facets from the top face searches for one, and
    # it stops at the first square
    assert firsts == [4, 3]

    # an edge with a point inside is no simplex but has j + 2 points: only
    # the square is wrapped, and its first facet is such an edge
    wraps.clear()
    firsts.clear()
    lat = convex_hull(PointSet.from_rows(list(itertools.product(range(3), repeat=2))))
    assert lat.f_vector == (4, 4)
    assert wraps == [2]
    assert firsts == [2]


def test_lattice_is_read_off_the_wrap_memo(monkeypatch):
    """Only the polytope's wrap enters ``_facets_of``: once it returns, the
    levels are read off its memo, which holds the faces it entered alone."""
    entered, late, memos = set(), [], []
    depth = 0
    facets_of = hull._facets_of

    def recorded(pts, face, j, memo, *args):
        nonlocal depth
        if depth == 0 and memos:
            late.append(face)  # entered after the top wrap returned
        else:
            entered.add(face)
            memos.append(memo)
        depth += 1
        try:
            return facets_of(pts, face, j, memo, *args)
        finally:
            depth -= 1

    monkeypatch.setattr(hull, "_facets_of", recorded)
    curve = [[t**e for e in range(1, 6)] for t in range(1, 7)]
    other = [[(-t) ** e + (e == 2) * t for e in range(1, 6)] for t in range(1, 7)]
    sums = [[a + b for a, b in zip(p, q)] for p in curve for q in other]
    c4_10 = [[t**e for e in range(1, 5)] for t in range(1, 11)]
    # a simplicial polytope's wrap enters the polytope and its facets, each a
    # simplex, and none of their faces
    for rows, f_vector, memo_size in ((c4_10, (10, 45, 70, 35), 1 + 35), (sums, (36, 156, 288, 252, 86), None)):
        entered.clear()
        memos.clear()
        assert convex_hull(PointSet.from_rows(rows)).f_vector == f_vector
        assert late == []
        assert set(memos[0]) == entered
        assert memo_size is None or len(entered) == memo_size


def test_seeded_first_facet_is_the_memo_entrys(monkeypatch):
    """A face a rotation found is entered with every open ridge of its
    parent that lies inside it.  Only a wrapped face takes them, each seed is
    one of its facets in the memo, the walk's first ones in the seeds' order,
    with the seed's functional, and the seed's values are that functional's
    at the face's points."""
    entered = []
    facets_of = hull._facets_of

    def recorded(pts, face, j, memo, idx, columns, seeds=None):
        if face not in memo and seeds:
            entered.append((face, seeds, memo))
        return facets_of(pts, face, j, memo, idx, columns, seeds)

    monkeypatch.setattr(hull, "_facets_of", recorded)
    checked = wrapped = 0
    for rows in functional_cases() + [fraction_sums(PartitionedPointSet.from_rows(parts)) for parts in sum_cases().values()]:
        ps = PointSet.from_rows(rows)
        prep = _Prepared(ps)
        entered.clear()
        convex_hull(ps)
        for face, seeds, memo in entered:
            facets, columns, functionals, _ = memo[face]
            assert face.bit_count() > len(columns) + 2
            sub = project(prep, face, columns)
            for n, (u, values) in enumerate(seeds):
                ridge = frozenset(i for i, x in zip(sub, values) if not x)
                assert (members(prep, facets[n]), functionals[n]) == (ridge, u)
                assert hull._values(u, sub.values()) == values
                checked += 1
            wrapped += 1
    assert wrapped > 40
    assert checked > 120


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


def test_seeded_wraps_match_the_oracle_on_minkowski_sums(monkeypatch):
    """Faces of Minkowski sums entered with every open ridge of their
    parent, often more than one, still give the exhaustive lattice."""
    seeds_per_face, ridge_seeds = [], []
    facets_of, ridge_seed = hull._facets_of, hull._ridge_seed

    def recorded(pts, face, j, memo, idx, columns, seeds=None):
        if face not in memo and seeds:
            seeds_per_face.append(len(seeds))
        return facets_of(pts, face, j, memo, idx, columns, seeds)

    def counted(*args):
        ridge_seeds.append(args)
        return ridge_seed(*args)

    monkeypatch.setattr(hull, "_facets_of", recorded)
    monkeypatch.setattr(hull, "_ridge_seed", counted)
    for name, parts in sum_cases().items():
        pps = PartitionedPointSet.from_rows(parts)
        lattice = minksum_direct_lattice(pps)
        faces = {(dim, f) for dim, level in enumerate(lattice.levels) for f in level}
        assert faces | {(-1, ())} == lattice_oracle(PointSet.from_rows(fraction_sums(pps))), name
    assert len(ridge_seeds) == sum(seeds_per_face)
    assert sum(n > 1 for n in seeds_per_face) > 10
    assert max(seeds_per_face) >= 3


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
        facet, functional = hull._first_facet(prep.reduced, prep.rank)
        assert facet in facets_exhaustive(prep.reduced, prep.rank)
        assert turns is None or len(rotations) == turns
        values = hull._values(functional, prep.reduced)
        assert min(values) == 0
        assert {i for i, x in enumerate(values) if not x} == facet


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


def full_memo(prep: _Prepared) -> dict:
    """The memo ``convex_hull`` reads the lattice off: the polytope's wrap's."""
    memo = {}
    wrap_top(prep, memo)
    return memo


def project(prep: _Prepared, mask: int, columns) -> dict[int, tuple[int, ...]]:
    """A face's distinct points in ``columns``, ascending."""
    return {i: tuple(prep.reduced[i][c] for c in columns) for i in sorted(members(prep, mask))}


def test_carried_functionals_are_primitive_and_support_their_face():
    """Every functional a memo entry holds, and every one it makes on first
    need (a simplex's, or a face of j+2 points'), is primitive, zero exactly
    on its facet and positive on the rest of the face."""
    checked = corank_one = simplices = 0
    for rows in functional_cases():
        prep = _Prepared(PointSet.from_rows(rows))
        if prep.rank == 0:
            continue
        memo = full_memo(prep)
        for face, (facets, columns, functionals, idx) in memo.items():
            sub = project(prep, face, columns)
            for n, (mask, functional) in enumerate(zip(facets, functionals)):
                if functional is None:  # a ridge no wrap crossed: make it now
                    functional = hull._facet_functional(input_points(prep), face, n, memo)
                    corank_one += len(idx) == len(columns) + 2
                facet = members(prep, mask)
                if mask and mask not in memo:  # no wrap entered it: a simplex, whose facets clear one bit each
                    assert affine_rank([prep.reduced[i] for i in facet]) == len(facet) - 1
                    simplices += 1
                spanning = _spanning([sub[i] for i in sorted(facet)])
                assert len(spanning) == len(columns)
                key = canonical_key(hyperplane([(1, *p) for p in spanning]))
                assert functional in (key, tuple(-c for c in key))
                values = dict(zip(sub, hull._values(functional, sub.values())))
                assert {i for i, x in values.items() if x == 0} == facet
                assert all(x > 0 for i, x in values.items() if i not in facet)
                checked += 1
    assert checked > 1000
    assert corank_one > 100
    assert simplices > 1000


def difference_pivots(pts) -> tuple[int, ...]:
    """Pivot columns of a face from its own points, by one elimination of
    their difference rows (test oracle for the column rule)."""
    return int_row_space_pivots([[x - b for x, b in zip(p, pts[0])] for p in pts[1:]])[1]


def test_carried_columns_are_the_difference_row_pivots():
    checked = shifted = 0
    # each case also with its coordinates reversed, so that other columns pivot
    for rows in functional_cases() + [[p[::-1] for p in rows] for rows in functional_cases()]:
        prep = _Prepared(PointSet.from_rows(rows))
        if prep.rank == 0:
            continue
        pts = input_points(prep)
        for face, (_, columns, _, idx) in full_memo(prep).items():
            # each entry carries its face's ascending point indices, each
            # point's first index in the input
            distinct = sorted(members(prep, face))
            assert idx == hull._indices(face) == [prep.members[d][0] for d in distinct]
            shifted += idx != distinct
            assert columns == difference_pivots([pts[i] for i in idx])
            checked += 1
    assert checked > 600
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


def test_pencil_rotation_matches_candidate_rotation():
    rng = random.Random(1618)
    triples = 0
    for rows in functional_cases():
        prep = _Prepared(PointSet.from_rows(rows))
        if prep.rank < 2:
            continue
        memo = full_memo(prep)
        # every wrapped face: its facets all carry a functional
        carried = [f for f, (_, columns, *_) in memo.items() if f.bit_count() > len(columns) + 2]
        for face in rng.sample(carried, min(4, len(carried))):
            facets, columns, functionals, _ = memo[face]
            idx = sorted(members(prep, face))
            sub = [tuple(prep.reduced[i][c] for c in columns) for i in idx]
            at = {c: n for n, c in enumerate(columns, 1)}
            for facet, u in zip(facets, functionals):
                u_values = hull._values(u, sub)
                for r, ridge in enumerate(memo[facet][0]):
                    w = hull._facet_functional(input_points(prep), facet, r, memo)
                    ridge_columns = memo[facet][1]
                    # the ridge functional zero-filled over the face's columns
                    v = [w[0]] + [0] * len(columns)
                    for c, x in zip(ridge_columns, w[1:]):
                        v[at[c]] = x
                    _, values = hull._rotate(sub, u_values, u, v)
                    pencil = frozenset(idx[n] for n, x in enumerate(values) if not x)
                    on_facet, on_ridge = members(prep, facet), members(prep, ridge)
                    flat = _spanning([sub[n] for n, i in enumerate(idx) if i in on_ridge])
                    away = sub[idx.index(min(on_facet - on_ridge))]
                    start = next(n for n, i in enumerate(idx) if i not in on_facet)
                    oracle = rotate_by_candidates(sub, flat, away, start)
                    assert pencil == frozenset(idx[n] for n in oracle)
                    assert pencil in {members(prep, f) for f in facets} and pencil != on_facet
                    triples += 1
    assert triples > 500


def test_wrap_work_counts(monkeypatch):
    counts = {"hyperplane": 0, "_rotate": 0, "_ridge_seed": 0, "int_row_space_pivots": 0, "_spanning": 0}
    for name in counts:
        original = getattr(hull, name)

        def counted(*args, original=original, name=name):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(hull, name, counted)
    first_facet = hull._first_facet
    first_turns = []

    def first_counted(*args):
        before = counts["_rotate"]
        out = first_facet(*args)
        first_turns.append(counts["_rotate"] - before)
        return out

    monkeypatch.setattr(hull, "_first_facet", first_counted)

    def work(rows):
        for name in counts:
            counts[name] = 0
        first_turns.clear()
        lattice = convex_hull(PointSet.from_rows(rows))
        # every point is a vertex, so a face is wrapped iff it has over dim + 2
        assert lattice.f_vector[0] == len(rows)
        levels = lattice.levels
        walked = sum(
            sum(set(g) <= set(f) for g in levels[dim - 1])
            for dim in range(1, len(levels))
            for f in levels[dim]
            if len(f) > dim + 2
        )
        # a wrapped face's facets are its seeds and one per rotation of its
        # walk, but that each face of the first-facet chain starts from one
        # first facet, found by rotations of its own
        assert counts["_rotate"] - sum(first_turns) == walked - counts["_ridge_seed"] - len(first_turns)
        # a facet's pivot columns are its face's minus one, so only the hull's
        # rank and each shadow step of a first facet eliminate
        assert counts["int_row_space_pivots"] == 1 + counts["_spanning"]
        return (
            lattice.f_vector,
            counts["hyperplane"],
            counts["_rotate"],
            counts["_ridge_seed"],
            sum(first_turns),
            counts["int_row_space_pivots"],
        )

    # one elimination per candidate point would cost 378 on the 4-cube and
    # 6,723 on the sums; now a face of j + 2 points pays one for its affine
    # dependency, a ridge a wrap crosses in a simplex or such a face one,
    # and a first facet of the chain from the top one per rotation
    cube = list(itertools.product([0, 1], repeat=4))
    # the 4-cube's 8 facets and each cube's 6: 8 + 8*6 = 56 facets, of which
    # the chain's 2 first facets and 24 seeds need no rotation; one cube was
    # the only one entered without a seed.  The 24 squares have 2 + 2 points
    # and are not wrapped.  Hyperplanes: the squares' 24 dependencies and
    # the 17 square edges the cubes' wraps cross; the chain is 4-cube, cube,
    # so the rank and 3 + 2 shadow steps eliminate
    assert work(cube) == ((16, 32, 24, 8), 41, 30, 24, 0, 6)
    curve = [[t**e for e in range(1, 6)] for t in range(1, 7)]
    other = [[(-t) ** e + (e == 2) * t for e in range(1, 6)] for t in range(1, 7)]
    sums = [[a + b for a, b in zip(p, q)] for p in curve for q in other]
    # the 132 parallelograms among the 2-faces are not wrapped.  Hyperplanes:
    # their 132 dependencies, the simplex and parallelogram ridges the wraps
    # cross, and the chain's 9 shadow rotations
    assert work(sums) == ((36, 156, 288, 252, 86), 300, 554, 882, 9, 10)


def test_walk_frees_a_walked_facets_values():
    """Once the walk is done with a facet, all its ridges are closed and its
    values at every point are dropped.  This sum's 256 points hold 60
    vertices and its top wrap finds 86 facets: keeping every facet's values
    peaked at about 1,000 KB of traced memory, dropping them at about 240 KB."""
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
    def never(*args):
        raise AssertionError("a face of at most j + 2 points was gift-wrapped")

    monkeypatch.setattr(hull, "_rotate", never)
    monkeypatch.setattr(hull, "_first_facet", never)
    shift = [Fraction(1, 3), Fraction(-2), Fraction(5, 7)]
    for name, rows in corank_one_cases().items():
        ps = PointSet.from_rows(rows)
        for variant in (
            ps,
            scale_translate(ps, Fraction(3, 2), shift[: ps.ambient_dim]),
            PointSet.from_rows(rows[::-1] + rows[:2]),  # reordered, with duplicates
        ):
            faces = {(dim, f) for dim, level in enumerate(convex_hull(variant).levels) for f in level}
            assert faces | {(-1, ())} == lattice_oracle(variant), name
            wrapped, oracle = wrap_and_oracle(variant)
            assert wrapped == oracle, name
            prep = _Prepared(variant)
            pts = input_points(prep)
            for face, (_, columns, _, idx) in full_memo(prep).items():
                assert columns == difference_pivots([pts[i] for i in idx]), name

    lattice = convex_hull(PointSet.from_rows(corank_one_cases()["square pyramid"]))
    assert lattice.f_vector == (5, 8, 5)
    assert (0, 1, 2, 3) in lattice.levels[2]
    # the interior points of an edge and of a facet are no vertex of any face
    for name, inner in (("point mid-edge", 3), ("point inside a tetrahedron's facet", 4)):
        lattice = convex_hull(PointSet.from_rows(corank_one_cases()[name]))
        assert inner not in lattice.vertex_indices
        assert verify_supporting(lattice, PointSet.from_rows(corank_one_cases()[name]))
