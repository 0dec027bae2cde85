"""Tests for the Cayley-embedding route and the direct Minkowski oracle."""

import functools
import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from polysum import cayley
from polysum.bounds import VertexProfile, trivial_upper_bound
from polysum.cayley import (
    PartitionedPointSet,
    _proposals,
    _sum_facets,
    cayley_embed,
    cayley_lattice,
    minksum_direct,
    minksum_direct_lattice,
    minksum_lattices,
    minksum_via_cayley,
    spanning_face_counts,
)
from polysum.construction import ConstructionParams, certify_family, generate_family
from polysum.exact import affine_rank
from polysum.hull import PointSet, _facet_ridges, _facets, _Prepared, convex_hull, verify_supporting

from helpers import fraction_sums, product_walk_facets


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


def certified_cases() -> list[PartitionedPointSet]:
    """240 seeded summand sets: d = 2..4 and r = 2..3, parts of one to
    d + 3 points in [-2, 2]^d, with duplicate points and midpoints inside a
    part.  Every third set lies in a common sublattice of lower dimension,
    each part with its own offset, so parts and sums are lower-dimensional."""
    rng = random.Random(36)
    cases = []
    for n in range(240):
        d, r = n % 3 + 2, n // 3 % 2 + 2
        parts = []
        for _ in range(r):
            pts = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(1, d + 3))]
            if rng.random() < 0.3:
                pts.append(rng.choice(pts))
            if len(pts) > 1 and rng.random() < 0.3:
                a, b = rng.sample(pts, 2)
                pts.append([Fraction(x + y, 2) for x, y in zip(a, b)])
            parts.append(pts)
        if n % 3 == 0:
            basis = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(1, d - 1))]
            parts = [
                [[o + sum(x * v[c] for x, v in zip(p, basis)) for c, o in enumerate(offset)] for p in part]
                for part, offset in zip(parts, [[rng.randint(-3, 3) for _ in range(d)] for _ in parts])
            ]
        cases.append(PartitionedPointSet.from_rows(parts))
    return cases


def sums_hull(pps: PartitionedPointSet):
    """The hull of the distinct sums themselves (test oracle)."""
    return convex_hull(PointSet.from_rows(fraction_sums(pps), ambient_dim=pps.ambient_dim))


def test_cayley_reduction_is_the_sums_reduction():
    """The Cayley points' reduction keeps every prefix column, its other
    pivot columns are the sums' own and its rank is theirs plus r - 1, so a
    Cayley functional's last entries are a functional of the sums."""
    lower = 0
    for pps in certified_cases():
        r = pps.r
        lifted = _Prepared(cayley_embed(pps))
        sums = _Prepared(PointSet.from_rows(fraction_sums(pps), ambient_dim=pps.ambient_dim))
        assert lifted.pivots[: r - 1] == tuple(range(r - 1))
        assert tuple(c - (r - 1) for c in lifted.pivots[r - 1 :]) == sums.pivots
        assert lifted.rank == sums.rank + r - 1
        lower += sums.rank < pps.ambient_dim
    assert lower > 80


def test_certified_sum_lattice_is_the_sums_hull():
    """The lattice from the Cayley hull's certified proposals is the whole
    lattice of the sums' own hull, masks included."""
    lower = simplices = 0
    for pps in certified_cases():
        cayley, direct = minksum_lattices(pps)
        assert direct == sums_hull(pps)
        assert cayley == cayley_lattice(pps)
        assert minksum_via_cayley(pps, cayley) == direct.f_vector
        lower += direct.polytope_dim < pps.ambient_dim
        prep = _Prepared(cayley_embed(pps))
        simplices += len(prep.members) == prep.rank + 1  # proposals from its cone's rays
    assert lower > 80 and simplices > 20


TIGHT_FAMILIES = [(3, 2, (4, 4)), (4, 3, (5, 5, 5)), (5, 2, (6, 6)), (5, 4, (6, 6, 6, 6))]


@functools.lru_cache(maxsize=None)
def tight_family(d: int, r: int, n: tuple[int, ...]) -> PartitionedPointSet:
    params, _, _ = certify_family(ConstructionParams.defaults(d, r, n))
    return generate_family(params)


@pytest.mark.parametrize("d, r, n", TIGHT_FAMILIES)
def test_certified_sum_lattice_of_tight_families(d, r, n):
    family = tight_family(d, r, n)
    assert minksum_direct_lattice(family) == sums_hull(family)


def proposed(pps: PartitionedPointSet):
    """The Cayley reduction and the functionals of the Cayley facets that
    meet every part, as ``minksum_lattices`` proposes them."""
    prep = _Prepared(cayley_embed(pps))
    return prep, _proposals(pps, prep, _facets(prep)[0])


def rejection_cases() -> list[PartitionedPointSet]:
    """The first 20 of ``certified_cases`` whose sums are no simplex, so
    that their facets are certified: full- and lower-dimensional, r = 2
    and 3."""
    cases = []
    for pps in certified_cases():
        sums = fraction_sums(pps)
        if len(sums) > affine_rank(sums) + 1:
            cases.append(pps)
    cases = cases[:20]
    assert {pps.r for pps in cases} == {2, 3}
    assert any(sums_hull(pps).polytope_dim < pps.ambient_dim for pps in cases)
    return cases


def test_a_dropped_proposal_fails_the_ridge_count():
    for pps in rejection_cases():
        prep, proposals = proposed(pps)
        for i in range(len(proposals)):
            with pytest.raises(AssertionError, match="ridge outside exactly two facets"):
                _sum_facets(pps, prep, proposals[:i] + proposals[i + 1 :])
        with pytest.raises(AssertionError, match="no facet of the sum was proposed"):
            _sum_facets(pps, prep, [])


def test_a_repeated_proposal_fails():
    for pps in rejection_cases():
        prep, proposals = proposed(pps)
        for u in proposals:
            with pytest.raises(AssertionError, match="proposed twice"):
                _sum_facets(pps, prep, proposals + [u])


def test_a_corrupted_proposal_fails():
    """One entry of one proposal's c, plus 1, makes the face c supports
    either no facet, which fails the dimension check, or another facet,
    which is then proposed twice.  Which one is read off the sums
    themselves; a c turned into a multiple of itself is skipped.  Each of
    the first 20 proposals of a case is corrupted at each entry in turn."""
    kinds = {"not a facet": 0, "proposed twice": 0}
    for pps in rejection_cases():
        prep, proposals = proposed(pps)
        r = pps.r
        parts, start = [], 0
        for part in pps.parts:
            parts.append([prep.reduced[prep.rep_of[j]][r - 1 :] for j in range(start, start + len(part))])
            start += len(part)
        sums = [tuple(map(sum, zip(*pick))) for pick in itertools.product(*parts)]
        k = affine_rank(sums)
        for i, u in enumerate(proposals[:20]):
            for j in range(r, len(u)):
                bad = u[:j] + (u[j] + 1,) + u[j + 1 :]
                c = bad[r:]
                if any(c) and all(c[s] * u[r + t] == c[t] * u[r + s] for s in range(len(c)) for t in range(s)):
                    continue  # c was a unit vector and is now twice itself: the same facet
                values = [sum(map(operator.mul, c, p)) for p in sums]
                face = [p for p, x in zip(sums, values) if x == min(values)]
                kind = "proposed twice" if affine_rank(face) == k - 1 else "not a facet"
                kinds[kind] += 1
                with pytest.raises(AssertionError, match=kind):
                    _sum_facets(pps, prep, proposals[:i] + [bad] + proposals[i + 1 :])
    assert kinds["not a facet"] > 400 and kinds["proposed twice"] > 8


def coinciding_cases() -> list[PartitionedPointSet]:
    """Two or three parts in d = 1..3, each the segment [0, e_1], [0, 2e_1]
    or [0, e_d], the standard simplex or the unit cube, in every
    combination.  Sums then coincide across picks, and one sum can have
    picks on both sides of a facet: with P_1 = P_2 = {0, 1} and c = +1, the
    sum 1 = 0 + 1 = 1 + 0 is off the facet {0} though each part's minimizer
    0 is in one of its picks."""
    cases = []
    for d in (1, 2, 3):
        unit = [[int(i == j) for j in range(d)] for i in range(d)]
        segments = [[0] * d, unit[0]], [[0] * d, [2 * x for x in unit[0]]], [[0] * d, unit[-1]]
        shapes = (*segments, [[0] * d, *unit], [list(p) for p in itertools.product((0, 1), repeat=d)])
        for r in (2, 3):
            cases.extend(PartitionedPointSet.from_rows(parts) for parts in itertools.combinations_with_replacement(shapes, r))
    return cases


def tight_families() -> list[PartitionedPointSet]:
    return [tight_family(*args) for args in TIGHT_FAMILIES]


@pytest.mark.parametrize(
    "cases, products",
    [(certified_cases, 1900), (tight_families, 1700), (coinciding_cases, 12)],
    ids=["certified", "tight", "coinciding"],
)
def test_slab_masks_are_the_product_walk(cases, products):
    """Each certified facet's mask, and each product facet's ridges, are
    the ones the walk over the product of the parts' minimizers finds."""
    seen = 0
    for pps in cases():
        prep, proposals = proposed(pps)
        _, _, facets, below = _sum_facets(pps, prep, proposals)
        oracle = product_walk_facets(pps, prep, proposals)
        assert facets == set(oracle)
        for facet, ridges in oracle.items():
            if ridges is not None:
                assert below[facet] == ridges
                seen += 1
    assert seen > products


def test_coinciding_cases_repeat_sums():
    """134 of the 150 cases have fewer distinct sums than picks."""
    cases = coinciding_cases()
    repeated = sum(len(fraction_sums(pps)) < math.prod(map(len, pps.parts)) for pps in cases)
    assert (len(cases), repeated) == (150, 134)


def test_branch_split_of_the_sum_facets(monkeypatch):
    """(5,4,(6,6,6,6)) has 1,684 facets: 1,522 are products of simplices
    and take the slab ridges, 24 are simplices and 138 take a double
    description pass."""
    calls = Counter()

    def counted(*args):
        out = _facet_ridges(*args)
        calls["simplex" if out[2] is None else "double description"] += 1
        return out

    monkeypatch.setattr(cayley, "_facet_ridges", counted)
    family = tight_family(5, 4, (6, 6, 6, 6))
    prep, proposals = proposed(family)
    _, _, facets, _ = _sum_facets(family, prep, proposals)
    products = len(facets) - calls.total()
    assert (len(facets), products, calls["simplex"], calls["double description"]) == (1684, 1522, 24, 138)
