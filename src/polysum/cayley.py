"""Minkowski sums via the Cayley embedding, plus a direct summation oracle.

The r summand vertex sets are lifted into R^{r-1} x R^d, each part prefixed
by its own affine-basis point (the zero vector for part 1, standard basis
vectors afterwards).  Faces of the lifted hull whose vertex sets touch every
part ("spanning" faces) are in bijection with the faces of the Minkowski
sum: a spanning (k-1)-face corresponds to a (k-r)-face of the sum.  Face
counts therefore transfer with an index shift and never require slicing the
lifted polytope by a flat.

The direct oracle ignores all of this and simply hulls the set of all
vertex sums; the two routes are compared in the tests and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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

    def part_of(self, index: int) -> int:
        """Part number (0-based) owning a global point index."""
        if index < 0:
            raise IndexError(index)
        for i, p in enumerate(self.parts):
            if index < len(p):
                return i
            index -= len(p)
        raise IndexError("point index out of range")

    def part_sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)


@dataclass(frozen=True)
class CayleyConfig:
    """Affine basis prefix dimension."""

    r: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("need r >= 2")

    def basis_vector(self, part: int) -> tuple[Fraction, ...]:
        """Prefix for a part: zero vector for part 0, then standard basis vectors."""
        if not 0 <= part < self.r:
            raise IndexError(part)
        return tuple(
            Fraction(1 if (part >= 1 and j == part - 1) else 0)
            for j in range(self.r - 1)
        )


def cayley_embed(pps: PartitionedPointSet, cfg: Optional[CayleyConfig] = None) -> PointSet:
    """Lift all parts into R^{r-1} x R^d with per-part affine prefixes."""
    if cfg is None:
        cfg = CayleyConfig(pps.r)
    if cfg.r != pps.r:
        raise ValueError(f"config is for r={cfg.r}, partition has r={pps.r}")
    d = pps.ambient_dim
    rows = []
    labels = []
    for i, part in enumerate(pps.parts):
        prefix = cfg.basis_vector(i)
        for j, p in enumerate(part.points):
            rows.append(prefix + p)
            if part.labels is not None:
                labels.append(f"{i}:{part.labels[j]}")
            else:
                labels.append(f"{i}:{j}")
    return PointSet.from_rows(rows, labels=labels, ambient_dim=cfg.r - 1 + d)


def spanning_face_counts(lattice: FaceLattice, pps: PartitionedPointSet) -> tuple[int, ...]:
    """Per-dimension counts of proper faces whose vertex set meets every part.

    Entry j counts the spanning j-faces, j = 0..polytope_dim-1.  The lattice
    must be built on the Cayley embedding of ``pps`` (point counts agree and
    index order is part-by-part).
    """
    if lattice.n_points != pps.total_points:
        raise ValueError(
            f"lattice over {lattice.n_points} points, partition has {pps.total_points}"
        )
    r = pps.r
    counts = [0] * lattice.polytope_dim
    for face in lattice.proper_faces():
        present = {pps.part_of(i) for i in face.vertices}
        if len(present) == r:
            counts[face.dim] += 1
    return tuple(counts)


def minksum_direct_lattice(pps: PartitionedPointSet) -> FaceLattice:
    """Hull of all vertex sums: the independent Minkowski-sum oracle."""
    d = pps.ambient_dim
    sums: dict[tuple, None] = {}
    stack = [tuple(Fraction(0) for _ in range(d))]
    for part in pps.parts:
        new = []
        for acc in stack:
            for p in part.points:
                new.append(tuple(a + x for a, x in zip(acc, p)))
        stack = new
    for s in stack:
        sums.setdefault(s, None)
    ps = PointSet.from_rows(list(sums.keys()), ambient_dim=d)
    return convex_hull(ps)


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


def minksum_via_cayley(
    pps: PartitionedPointSet, cfg: Optional[CayleyConfig] = None
) -> tuple[int, ...]:
    """f-vector of the Minkowski sum read off the lifted hull's spanning faces."""
    lattice = cayley_lattice(pps, cfg)
    return sum_f_vector(spanning_face_counts(lattice, pps), lattice.polytope_dim, pps.r)


def cayley_lattice(
    pps: PartitionedPointSet, cfg: Optional[CayleyConfig] = None
) -> FaceLattice:
    """Face lattice of the lifted (Cayley) polytope itself."""
    return convex_hull(cayley_embed(pps, cfg if cfg is not None else CayleyConfig(pps.r)))
