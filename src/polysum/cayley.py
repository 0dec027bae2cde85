"""Minkowski sums via the Cayley embedding: face counts and face lattices.

The r summand vertex sets are lifted into R^{r-1} x R^d, each part prefixed
by its own affine-basis point (the zero vector for part 1, standard basis
vectors afterwards).  Faces of the lifted hull whose vertex sets touch every
part ("spanning" faces) are in bijection with the faces of the Minkowski
sum: a spanning (k-1)-face corresponds to a (k-r)-face of the sum.  Face
counts therefore transfer with an index shift and never require slicing the
lifted polytope by a flat.

The sum's own face lattice, over all sums of one input point per part,
takes its facets from the same hull: each spanning facet of the Cayley
polytope proposes one, which is proved a facet of the sums, and the list
complete, from the parts' points alone (``_sum_facets``).  So a wrong
Cayley hull cannot make the two routes agree; they are compared in the CLI,
and the tests compare both with the hull of the sums themselves.  A face of
the sum is the sum of the parts' faces, so each facet's mask, and each
ridge of a facet that is a product of simplices, is a few bit operations
on per-point slabs: the sums with some pick through one point of one part.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import cone_rays, int_row_space_pivots
from .hull import (
    FaceLattice,
    PointSet,
    _closed,
    _facet_ridges,
    _facets,
    _indices,
    _last_nonzero,
    _lattice,
    _Prepared,
    convex_hull,
)


@dataclass(frozen=True)
class PartitionedPointSet:
    """r labeled point sets in a common ambient dimension (the summands)."""

    parts: tuple[PointSet, ...]

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("need at least two parts")
        dims = {p.ambient_dim for p in self.parts}
        if len(dims) != 1:
            raise ValueError(f"parts live in different ambient dimensions: {dims}")
        if any(len(p) == 0 for p in self.parts):
            raise ValueError("every part must be nonempty")

    @classmethod
    def from_rows(cls, parts: Sequence[Sequence[Sequence]]) -> "PartitionedPointSet":
        return cls(tuple(PointSet.from_rows(rows) for rows in parts))

    @property
    def r(self) -> int:
        return len(self.parts)

    @property
    def ambient_dim(self) -> int:
        return self.parts[0].ambient_dim

    @property
    def total_points(self) -> int:
        return sum(len(p) for p in self.parts)


def cayley_prefix(part: int, r: int) -> tuple[Fraction, ...]:
    """Affine-basis prefix of part ``part`` (0-based) of r: the zero vector
    for part 0, then the standard basis vectors of R^{r-1}."""
    return tuple(Fraction(int(j == part - 1)) for j in range(r - 1))


def cayley_embed(pps: PartitionedPointSet) -> PointSet:
    """Lift all parts into R^{r-1} x R^d with per-part affine prefixes."""
    rows = []
    for i, part in enumerate(pps.parts):
        prefix = cayley_prefix(i, pps.r)
        rows.extend(prefix + p for p in part.points)
    return PointSet.from_rows(rows, ambient_dim=pps.r - 1 + pps.ambient_dim)


def spanning_face_counts(lattice: FaceLattice, pps: PartitionedPointSet) -> tuple[int, ...]:
    """Per-dimension counts of proper faces whose vertex set meets every part.

    Entry j counts the spanning j-faces, j = 0..polytope_dim-1.  The lattice
    must be built on the Cayley embedding of ``pps`` (point counts agree and
    index order is part-by-part), so each part is one run of bits in a
    face's mask.
    """
    if lattice.n_points != pps.total_points:
        raise ValueError(
            f"lattice over {lattice.n_points} points, partition has {pps.total_points}"
        )
    parts, counts = _part_masks(pps), []
    for level in lattice.masks[:-1]:
        for part in parts:  # keep the faces with a vertex in this part
            level = [face for face in level if face & part]
        counts.append(len(level))
    return tuple(counts)


def _part_masks(pps: PartitionedPointSet) -> list[int]:
    """Each part's run of bits in a mask over the Cayley points."""
    masks, start = [], 0
    for part in pps.parts:
        masks.append((1 << len(part)) - 1 << start)
        start += len(part)
    return masks


def minksum_lattices(pps: PartitionedPointSet) -> tuple[FaceLattice, FaceLattice]:
    """Face lattices of the Cayley polytope and of the Minkowski sum, from
    one hull of the Cayley polytope.

    The Cayley facets whose masks meet every part propose the sum's facets,
    and ``_sum_facets`` proves each one on the parts' own points.
    """
    lifted = cayley_embed(pps)
    prep = _Prepared(lifted)
    facets, below = _facets(prep)
    stage = _sum_facets(pps, prep, _proposals(pps, prep, facets))
    # what only a facet stage reads goes before levels are built: the Cayley
    # functionals before the sum's, the sum's facet stage before the Cayley's
    facets = list(facets)
    direct = _lattice(pps.ambient_dim, *stage)
    del stage
    return _lattice(lifted.ambient_dim, prep.members, prep.rank, facets, below), direct


def _proposals(pps: PartitionedPointSet, prep: _Prepared, facets: dict[int, tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The functionals of the Cayley polytope's facets that meet every
    part, from its facet stage ``facets`` over ``prep``.  A simplex has no
    facet stage, so its functionals are read off the rays of its own cone.
    """
    if not facets:  # a simplex, of rank r - 1 or more, as its r prefixes are distinct
        bits = [1 << m[0] for m in prep.members]
        basis, rays = cone_rays([(1, *p) for p in prep.reduced])
        facets = {sum(bits) ^ bits[b]: h for b, h in zip(basis, rays)}
    parts = _part_masks(pps)
    return [u for facet, u in facets.items() if all(facet & part for part in parts)]


def _sum_facets(pps: PartitionedPointSet, prep: _Prepared, proposals) -> tuple[list[list[int]], int, set[int], dict[int, list[int]]]:
    """The facet stage of the hull of all sums of one input point per
    part, from ``proposals``: functionals (c0, l_1..l_{r-1}, c) of the
    Cayley polytope's spanning facets in ``prep``'s reduced coordinates.
    Returns what ``_lattice`` takes after the ambient dimension: each
    distinct sum as its own member list, the sums' rank k, the facets and
    each non-simplex facet's facets, as masks over the distinct sums.

    The Cayley reduction keeps every prefix column, its other pivot columns
    are those of the sums and its rank is theirs plus r - 1: the prefixes
    are independent, and the rest of the difference rows' span is the span
    of the parts' own differences, which is the sums'.  So c is a
    functional of the sums in their reduced coordinates, and the sums are
    formed there, in the order of the parts' points.  Each proposal is then
    proved a facet on the parts alone:

    (a) A_i, the points of part i that minimize c, make the face of the
        sums that c supports: every sum over A_1 x ... x A_r.
    (b) The differences within each A_i have rank k - 1, for the sums'
        rank k, so that face is a facet.
    (c) If the facet is no simplex and those are k - 1 rows, it is a
        product of simplices, and its ridges each drop the slab of one
        point of a factor with two or more (below); any other facet gets
        its ridges from the hull's own step (``_facet_ridges``), in the
        sums' pivot columns minus the last one c uses.
    (d) Some facet is proposed, none twice, and every ridge lies in
        exactly two facets (``_closed``, as in the hull's wrap).

    A proposal that is not a facet, or a missing one, fails (b) or (d).

    The masks come from one slab per point of each part: the sums with a
    pick, one point per part, whose part-i point is a.  Every pick of a sum
    on the face is in A_1 x ... x A_r, as the least value of c is the sum
    of each part's least; every pick of a sum off it has a point outside.
    So the facet is every sum outside the slabs of the points not in the
    A_i.  (The sums in some slab of each A_i are not the facet: with
    P_1 = P_2 = {0, 1} and c = +1, 1 = 0 + 1 = 1 + 0 is in both, off the
    facet {0}.)  In a product of simplices the k - 1 differences are
    independent, so each sum on the facet has exactly one pick, and the
    ridge that drops a is the facet minus a's slab.
    """
    r, k = pps.r, prep.rank - (pps.r - 1)
    parts, start = [], 0
    for part in pps.parts:  # each part's distinct points, reduced
        parts.append([prep.reduced[i][r - 1 :] for i in dict.fromkeys(prep.rep_of[start : start + len(part)])])
        start += len(part)
    sums = [(0,) * k]
    for pts in parts:
        sums = [tuple(map(operator.add, s, p)) for s in sums for p in pts]
    index = {}
    where = [index.setdefault(s, len(index)) for s in sums]  # each pick's distinct sum
    sums = list(index)
    members = [[i] for i in range(len(sums))]
    facets, below, degree = set(), {}, Counter()
    if len(sums) <= k + 1:  # a simplex: the level stage clears its bits
        return members, k, facets, below
    slabs = [[0] * len(pts) for pts in parts]  # slabs[i][a]: sums with a pick through part i's point a
    for pick, w in zip(itertools.product(*(range(len(pts)) for pts in parts)), where):
        bit = 1 << w
        for slab, a in zip(slabs, pick):
            slab[a] |= bit
    everything = (1 << len(sums)) - 1
    for u in proposals:
        c, picks, off = u[r:], [], 0
        for pts, slab in zip(parts, slabs):
            values = [sum(map(operator.mul, c, p)) for p in pts]
            m, pick = min(values), []
            for a, x in enumerate(values):
                if x == m:
                    pick.append(a)
                else:
                    off |= slab[a]
            picks.append(pick)
        differences = [tuple(map(operator.sub, pts[a], pts[pick[0]])) for pts, pick in zip(parts, picks) for a in pick[1:]]
        if int_row_space_pivots(differences)[0] != k - 1:
            raise AssertionError("a proposed facet of the sum is not a facet")
        facet = everything ^ off
        if facet in facets:
            raise AssertionError("a facet of the sum was proposed twice")
        facets.add(facet)
        if facet.bit_count() > k and len(differences) == k - 1:  # a product of simplices
            ridges = below[facet] = [facet & ~slab[a] for slab, pick in zip(slabs, picks) if len(pick) > 1 for a in pick]
        else:
            on = _indices(facet)
            _, ridges, functionals = _facet_ridges([sums[m] for m in on], [1 << m for m in on], _last_nonzero(c))
            if functionals is not None:
                below[facet] = ridges
        degree.update(ridges)
    if not facets:
        raise AssertionError("no facet of the sum was proposed")
    _closed(degree, "the sum's facets")
    return members, k, facets, below


def minksum_direct_lattice(pps: PartitionedPointSet) -> FaceLattice:
    """Hull of all sums of one input point per part, vertices or not,
    indexed by the distinct sums in the order of the parts' points.

    Its facets are the Cayley hull's proposals, each proved a facet of the
    sums from the parts' own points, and proved complete; see
    ``_sum_facets``.
    """
    return minksum_lattices(pps)[1]


def minksum_direct(pps: PartitionedPointSet) -> tuple[int, ...]:
    """f-vector of the Minkowski sum from its own certified lattice."""
    return minksum_direct_lattice(pps).f_vector


def sum_f_vector(g: Sequence[int], lifted_dim: int, r: int) -> tuple[int, ...]:
    """Minkowski-sum f-vector from the spanning face counts ``g`` of its
    Cayley polytope: a spanning (j+r-1)-face is a j-face of the sum."""
    # the lifted hull always contains the (r-1)-simplex of prefixes, so its
    # dimension exceeds the sum's by exactly r-1
    sum_dim = lifted_dim - (r - 1)
    if sum_dim < 0:
        raise AssertionError("lifted hull dimension below r-1")
    return tuple(g[r - 1 + j] for j in range(sum_dim))


def minksum_via_cayley(pps: PartitionedPointSet, lattice: Optional[FaceLattice] = None) -> tuple[int, ...]:
    """f-vector of the Minkowski sum read off the lifted hull's spanning
    faces; ``lattice`` is that hull's face lattice if it is built already."""
    if lattice is None:
        lattice = cayley_lattice(pps)
    return sum_f_vector(spanning_face_counts(lattice, pps), lattice.polytope_dim, pps.r)


def cayley_lattice(pps: PartitionedPointSet) -> FaceLattice:
    """Face lattice of the lifted (Cayley) polytope itself."""
    return convex_hull(cayley_embed(pps))
