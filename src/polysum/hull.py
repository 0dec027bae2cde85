"""Exact convex hulls, face lattices, f-vectors, and neighborliness.

Points are rational; every predicate is decided with exact integer
determinants after clearing denominators (a positive per-coordinate scaling,
which is an invertible linear map and so preserves the face lattice).

The face lattice comes from one descent.  A simplex's facets are its
subsets; every other face's are found by an exact gift-wrap: rotations
alone reach a first facet, then cross every ridge to its neighbour, and
every ridge must lie in exactly two facets, which certifies completeness.
The ridges are the facets' own facets, found the same way one dimension
down.  A memo keyed by the set of points on a face hands its facets both to
the wrap above it and to the lattice, so each face is wrapped once.  No
floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .exact import clear_denominators, hyperplane, int_row_space_pivots, rat


@dataclass(frozen=True)
class PointSet:
    """Labeled rational points in a fixed ambient dimension."""

    ambient_dim: int
    points: tuple[tuple[Fraction, ...], ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        for p in self.points:
            if len(p) != self.ambient_dim:
                raise ValueError(
                    f"point {p} has {len(p)} coordinates, expected {self.ambient_dim}"
                )
        if self.labels is not None:
            if len(self.labels) != len(self.points):
                raise ValueError("labels/points length mismatch")
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("labels must be unique")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], labels=None, ambient_dim=None) -> "PointSet":
        pts = tuple(tuple(rat(x) for x in row) for row in rows)
        if ambient_dim is None:
            if not pts:
                raise ValueError("ambient_dim required for an empty point set")
            ambient_dim = len(pts[0])
        return cls(ambient_dim, pts, tuple(labels) if labels is not None else None)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Face:
    """A face given by its dimension and sorted vertex indices.

    The empty face is (dim=-1, vertices=()); the polytope itself appears as
    the trivial face of dimension ``polytope_dim``.
    """

    dim: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class FaceLattice:
    """Complete face lattice of a polytope plus its f-vector."""

    ambient_dim: int
    polytope_dim: int
    n_points: int
    faces: tuple[Face, ...]
    f_vector: tuple[int, ...]
    _face_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_face_set", frozenset(f.vertices for f in self.faces))
        if len(self.f_vector) != self.polytope_dim:
            raise ValueError("f_vector length must equal polytope_dim")
        euler = sum((-1) ** k * fk for k, fk in enumerate(self.f_vector))
        expected = 1 - (-1) ** self.polytope_dim
        if self.polytope_dim >= 1 and euler != expected:
            raise ValueError(
                f"Euler relation violated: {euler} != {expected} for f={self.f_vector}"
            )

    @property
    def vertex_indices(self) -> tuple[int, ...]:
        out = []
        for f in self.faces:
            if f.dim == 0:
                out.extend(f.vertices)
        return tuple(sorted(set(out)))

    def proper_faces(self) -> tuple[Face, ...]:
        return tuple(f for f in self.faces if 0 <= f.dim < self.polytope_dim)

    def facets(self) -> tuple[Face, ...]:
        return tuple(f for f in self.faces if f.dim == self.polytope_dim - 1)


def is_face(lattice: FaceLattice, vertex_indices: Sequence[int]) -> bool:
    """True iff the sorted index set is the vertex set of a face."""
    idx = tuple(sorted(set(vertex_indices)))
    for i in idx:
        if i < 0 or i >= lattice.n_points:
            raise IndexError(f"vertex index {i} out of range 0..{lattice.n_points - 1}")
    return idx in lattice._face_set


def neighborliness(lattice: FaceLattice) -> int:
    """Largest k such that every vertex subset of size <= k is a face.

    Reported value is capped at f0 - 1 (a simplex reports its dimension).
    """
    verts = lattice.vertex_indices
    f0 = len(verts)
    if lattice.polytope_dim == 0 or f0 == 0:
        return 0
    best = 0
    for size in range(1, f0):
        if all(
            tuple(c) in lattice._face_set for c in itertools.combinations(verts, size)
        ):
            best = size
        else:
            break
    return best


# ---------------------------------------------------------------------------
# internal machinery
# ---------------------------------------------------------------------------


def _canonical_key(coeffs: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    out = [c // g for c in coeffs]
    for c in out:
        if c:
            if c < 0:
                out = [-x for x in out]
            break
    return tuple(out)


def _side_scan(coeffs, pts) -> Optional[frozenset]:
    """Indices on the hyperplane if it supports all points, else None."""
    c0 = coeffs[0]
    rest = coeffs[1:]
    on = []
    has_pos = has_neg = False
    for i, p in enumerate(pts):
        v = c0 + sum(map(operator.mul, rest, p))
        if v > 0:
            has_pos = True
        elif v < 0:
            has_neg = True
        else:
            on.append(i)
        if has_pos and has_neg:
            return None
    return frozenset(on)


def _facets_exhaustive(pts: Sequence[tuple[int, ...]], k: int) -> list[frozenset]:
    """Scan every k-subset for a supporting hyperplane (test oracle only)."""
    seen = set()
    facets = []
    for subset in itertools.combinations(range(len(pts)), k):
        coeffs = hyperplane([(1, *pts[i]) for i in subset])
        if coeffs is None:
            continue
        key = _canonical_key(coeffs)
        if key in seen:
            continue
        seen.add(key)
        on = _side_scan(key, pts)
        if on is not None:
            facets.append(on)
    return facets


def _rotate(pts, flat, away, start) -> tuple[tuple[int, ...], frozenset]:
    """Turn a supporting hyperplane about the (k-2)-flat through ``flat``.

    ``away`` lies on the current supporting hyperplane but off the flat, and
    ``pts[start]`` lies off that hyperplane.  Seen along the flat, every
    point sits at an angle in [0, pi) from ``away``, so "strictly on the far
    side of the candidate" is a total order and one pass that replaces the
    candidate with each such point ends on the next supporting hyperplane.
    Returns its coefficients (``away`` on the positive side) and on-set.
    """

    rows = [(1, *q) for q in flat]

    def through(p):
        h = hyperplane(rows + [(1, *p)])
        if h[0] + sum(map(operator.mul, h[1:], away)) < 0:
            h = tuple(-c for c in h)
        return h[0], h[1:]

    c0, normal = through(pts[start])
    for p in pts:
        if c0 + sum(map(operator.mul, normal, p)) < 0:
            c0, normal = through(p)
    coeffs = (c0, *normal)
    on = _side_scan(coeffs, pts)
    if on is None:
        raise AssertionError("gift-wrap step ended on a non-supporting hyperplane")
    return coeffs, on


def _first_facet(pts: Sequence[tuple[int, ...]], k: int) -> frozenset:
    """A facet of full-rank points, by induction on their coordinate shadows.

    The m-shadow (the first m coordinates) is full-rank too.  The points of
    minimal x_0 are a facet of the 1-shadow, and the vertical hyperplane over
    a facet of the (m-1)-shadow supports the m-shadow.  Its points there are
    a facet, or else a ridge: then a ridge point moved along coordinate m
    lies on the hyperplane off the ridge, and one rotation reaches a facet.
    """
    low = min(p[0] for p in pts)
    on = frozenset(i for i, p in enumerate(pts) if p[0] == low)
    for m in range(2, k + 1):
        shadow = [p[:m] for p in pts]
        face = [shadow[i] for i in sorted(on)]
        if _int_affine_rank(face) == m - 1:
            continue
        flat = _spanning(face, m - 1)
        away = (*flat[0][:-1], flat[0][-1] + 1)
        start = next(i for i in range(len(pts)) if i not in on)
        _, on = _rotate(shadow, flat, away, start)
    return on


def _spanning(points: list[tuple[int, ...]], count: int) -> list[tuple[int, ...]]:
    """The first ``count`` affinely independent points, or as many as exist:
    the pivot columns of the matrix whose columns are the points (1, p)."""
    if len(points) == count:
        return points
    _, pivots = int_row_space_pivots([(1,) * len(points), *zip(*points)])
    return [points[i] for i in pivots[:count]]


def _facets_of(pts, face: frozenset, j: int, memo: dict) -> list[frozenset]:
    """Facet on-sets of the j-face whose on-set (indices into ``pts``) is ``face``.

    A simplex's facets are its j-subsets.  Any other face is gift-wrapped
    once (Chand & Kapur 1970; Swart 1985) in its own rank-reduced
    coordinates: from a first facet (``_first_facet``), cross each ridge to
    its neighbour with an exact rotation.  The ridges are the facets' own
    facets, taken from ``memo`` (keyed by on-set) or computed one level down;
    a segment's one ridge is the empty face.  Every ridge must end in exactly
    two facets, which certifies completeness.
    """
    if face in memo:
        return memo[face]
    idx = sorted(face)
    if len(idx) == j + 1:
        facets = [face - {i} for i in idx]
    else:
        _, pivots = _pivots([pts[i] for i in idx])
        sub = [tuple(pts[i][c] for c in pivots) for i in idx]
        local = {i: n for n, i in enumerate(idx)}
        facets = [frozenset(idx[n] for n in _first_facet(sub, j))]
        known = set(facets)
        degree: dict[frozenset, int] = {}
        for facet in facets:  # grows while it is walked
            start = next(n for n, i in enumerate(idx) if i not in facet)
            for ridge in _facets_of(pts, facet, j - 1, memo):
                degree[ridge] = degree.get(ridge, 0) + 1
                if degree[ridge] > 1:
                    continue
                flat = _spanning([sub[local[i]] for i in sorted(ridge)], j - 1)
                _, on = _rotate(sub, flat, sub[local[min(facet - ridge)]], start)
                neighbour = frozenset(idx[n] for n in on)
                if neighbour not in known:
                    known.add(neighbour)
                    facets.append(neighbour)
        if any(d != 2 for d in degree.values()):
            raise AssertionError("gift-wrap left a ridge outside exactly two facets")
    memo[face] = facets
    return facets


def _pivots(pts: Sequence[tuple[int, ...]]) -> tuple[int, tuple[int, ...]]:
    """Affine rank of integer points and pivot columns that keep it."""
    if len(pts) <= 1:
        return 0, ()
    base = pts[0]
    return int_row_space_pivots([[x - b for x, b in zip(p, base)] for p in pts[1:]])


def _int_affine_rank(pts: Sequence[tuple[int, ...]]) -> int:
    return _pivots(pts)[0]


class _Prepared:
    """Deduplicated, integerized, rank-reduced view of a point set."""

    def __init__(self, ps: PointSet):
        canon: dict[tuple, int] = {}
        self.rep_of = []
        self.members: list[list[int]] = []
        distinct = []
        for i, p in enumerate(ps.points):
            if p in canon:
                did = canon[p]
                self.members[did].append(i)
            else:
                did = len(distinct)
                canon[p] = did
                distinct.append(p)
                self.members.append([i])
            self.rep_of.append(did)
        # scale each coordinate to integers: an affine map, so faces are kept
        coords, _ = clear_denominators(list(zip(*distinct)))
        self.int_pts = [tuple(c[i] for c in coords) for i in range(len(distinct))]
        self.rank, pivots = _pivots(self.int_pts)
        self.reduced = [tuple(p[c] for c in pivots) for p in self.int_pts]


def convex_hull(points: PointSet) -> FaceLattice:
    """Complete face lattice of the convex hull of a rational point set.

    Walks down from the polytope one dimension at a time: the (j-1)-faces
    are the facets of the j-faces (see ``_facets_of``), so a face's dimension
    is its level and the vertices are the 0-faces.  One memo serves every
    level, so each non-simplicial face is wrapped exactly once.  Points
    interior to the hull never appear in any vertex set.
    """
    if len(points) == 0:
        raise ValueError("convex hull of an empty point set")
    prep = _Prepared(points)
    k = prep.rank
    n = len(points)

    if k == 0:
        faces = (Face(-1, ()), Face(0, tuple(range(n))))
        return FaceLattice(points.ambient_dim, 0, n, faces, ())

    memo: dict[frozenset, list[frozenset]] = {}
    levels = [{frozenset(range(len(prep.int_pts)))}]
    for j in range(k, 0, -1):
        levels.append({g for f in levels[-1] for g in _facets_of(prep.reduced, f, j, memo)})
    levels.reverse()
    vertex_dids = {did for (did,) in levels[0]}

    def expand(dids) -> tuple[int, ...]:
        return tuple(sorted(i for did in dids if did in vertex_dids for i in prep.members[did]))

    faces = [Face(-1, ())] + [Face(j, expand(f)) for j, level in enumerate(levels) for f in level]
    if len({f.vertices for f in faces}) != len(faces):
        raise AssertionError("two faces share a vertex set")
    faces.sort(key=lambda f: (f.dim, f.vertices))
    f_vector = tuple(len(level) for level in levels[:k])
    return FaceLattice(points.ambient_dim, k, n, tuple(faces), f_vector)


def verify_supporting(lattice: FaceLattice, points: PointSet) -> bool:
    """Re-check, from scratch, that every facet's hyperplane supports all points."""
    prep = _Prepared(points)
    k = prep.rank
    if k != lattice.polytope_dim:
        return False
    if k == 0:
        return True
    for facet in lattice.facets():
        dids = sorted({prep.rep_of[i] for i in facet.vertices})
        pts = [prep.reduced[d] for d in dids]
        if k == 1:
            if len(dids) != 1:
                return False
            continue
        chosen = _spanning(pts, k)
        if len(chosen) != k:
            return False
        coeffs = hyperplane([(1, *p) for p in chosen])
        if coeffs is None:
            return False
        if _side_scan(coeffs, prep.reduced) is None:
            return False
    return True

