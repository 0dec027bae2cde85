"""Minkowski sums via the Cayley embedding, plus a direct summation oracle.

The r summand vertex sets are lifted into R^{r-1} x R^d, each part prefixed
by its own affine-basis point (the zero vector for part 1, standard basis
vectors afterwards).  Faces of the lifted hull whose vertex sets touch every
part ("spanning" faces) are in bijection with the faces of the Minkowski
sum: a spanning (k-1)-face corresponds to a (k-r)-face of the sum.  Face
counts therefore transfer with an index shift and never require slicing the
lifted polytope by a flat.

The direct oracle ignores all of this and simply hulls the set of all sums
of one input point per part; the two routes are compared in the tests and
the CLI.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .hull import FaceLattice, PointSet, convex_hull


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
    parts, start = [], 0
    for part in pps.parts:
        parts.append((1 << len(part)) - 1 << start)
        start += len(part)
    counts = []
    for level in lattice.masks[:-1]:
        for part in parts:  # keep the faces with a vertex in this part
            level = [face for face in level if face & part]
        counts.append(len(level))
    return tuple(counts)


def minksum_direct_lattice(pps: PartitionedPointSet) -> FaceLattice:
    """Hull of all sums of one input point per part, vertices or not: the
    independent Minkowski-sum oracle.

    Each coordinate is scaled by the lcm of its denominators over every
    part, a positive linear map that keeps the face lattice, so the sums are
    formed and deduplicated as integer tuples, in the order of the parts'
    points.
    """
    d = pps.ambient_dim
    scales = [math.lcm(*(p[c].denominator for part in pps.parts for p in part.points)) for c in range(d)]
    stack = [(0,) * d]
    for part in pps.parts:
        rows = [tuple(x.numerator * (l // x.denominator) for x, l in zip(p, scales)) for p in part.points]
        stack = [tuple(map(operator.add, acc, q)) for acc in stack for q in rows]
    return convex_hull(PointSet(d, tuple(dict.fromkeys(stack))))


def minksum_direct(pps: PartitionedPointSet) -> tuple[int, ...]:
    """f-vector of the Minkowski sum from the direct summation oracle."""
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


def minksum_via_cayley(pps: PartitionedPointSet) -> tuple[int, ...]:
    """f-vector of the Minkowski sum read off the lifted hull's spanning faces."""
    lattice = cayley_lattice(pps)
    return sum_f_vector(spanning_face_counts(lattice, pps), lattice.polytope_dim, pps.r)


def cayley_lattice(pps: PartitionedPointSet) -> FaceLattice:
    """Face lattice of the lifted (Cayley) polytope itself."""
    return convex_hull(cayley_embed(pps))
