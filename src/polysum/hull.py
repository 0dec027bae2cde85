"""Exact convex hulls, face lattices, f-vectors, and neighborliness.

Points are rational; every predicate is decided with exact integer
determinants after clearing denominators (a positive per-coordinate scaling,
which is an invertible linear map and so preserves the face lattice).

Facets come from an exact gift-wrap: start on one facet, cross every ridge
to its neighbour by rotating a hyperplane about it, and certify completeness
by checking that every ridge lies in exactly two facets.  No floating point
is used anywhere.
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
        v = c0 + sum(a * x for a, x in zip(rest, p))
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
    """Rotate the supporting hyperplane x_0 = min until it holds a facet."""
    coeffs = (-min(p[0] for p in pts), 1) + (0,) * (k - 1)
    on = _side_scan(coeffs, pts)
    while _int_affine_rank([pts[i] for i in sorted(on)]) < k - 1:
        # pick k-1 independent directions inside the hyperplane, the on-set's
        # own first: the flat spans the first k-2, ``away`` steps along the last
        base = pts[min(on)]
        normal = coeffs[1:]
        j0 = next(j for j, a in enumerate(normal) if a)
        candidates = [[x - b for x, b in zip(pts[i], base)] for i in sorted(on)]
        for j in range(k):
            if j != j0:
                v = [0] * k
                v[j], v[j0] = normal[j0], -normal[j]
                candidates.append(v)
        chosen: list[list[int]] = []
        for v in candidates:
            if int_row_space_pivots(chosen + [v])[0] > len(chosen):
                chosen.append(v)
        shifted = [tuple(b + x for b, x in zip(base, v)) for v in chosen]
        start = next(i for i in range(len(pts)) if i not in on)
        coeffs, on = _rotate(pts, [base] + shifted[:-1], shifted[-1], start)
    return on


def _spanning(points: list[tuple[int, ...]], count: int) -> list[tuple[int, ...]]:
    """Greedily pick ``count`` affinely independent points, or as many as exist."""
    if len(points) == count:
        return points
    chosen = [points[0]]
    for p in points[1:]:
        if _int_affine_rank(chosen + [p]) == len(chosen):
            chosen.append(p)
            if len(chosen) == count:
                break
    return chosen


def _ridges(pts, facet: frozenset, k: int):
    """Yield (on-set, k-1 spanning points) for each ridge of a facet."""
    idx = sorted(facet)
    if len(idx) == k:
        for i in idx:
            yield facet - {i}, [pts[j] for j in idx if j != i]
        return
    sub = [pts[i] for i in idx]
    _, pivots = _pivots(sub)
    for local in _facets_wrap([tuple(p[c] for c in pivots) for p in sub], k - 1):
        ridge = frozenset(idx[j] for j in local)
        yield ridge, _spanning([pts[i] for i in sorted(ridge)], k - 1)


def _facets_wrap(pts: Sequence[tuple[int, ...]], k: int) -> list[frozenset]:
    """Facet on-sets of the hull of distinct, full-dimensional points in Z^k.

    Gift-wrapping (Chand & Kapur 1970; Swart 1985): from one facet, cross
    each ridge to its neighbour with an exact rotation.  A non-simplicial
    facet finds its ridges by wrapping its own rank-reduced points.  Every
    ridge must end in exactly two facets, which certifies completeness.
    """
    if k == 1:
        vals = [p[0] for p in pts]
        return [frozenset([vals.index(min(vals))]), frozenset([vals.index(max(vals))])]
    first = _first_facet(pts, k)
    facets = [first]
    known = {first}
    degree: dict[frozenset, int] = {}
    for facet in facets:  # grows while it is walked
        start = next(i for i in range(len(pts)) if i not in facet)
        for ridge, flat in _ridges(pts, facet, k):
            degree[ridge] = degree.get(ridge, 0) + 1
            if degree[ridge] > 1:
                continue
            _, neighbour = _rotate(pts, flat, pts[min(facet - ridge)], start)
            if neighbour not in known:
                known.add(neighbour)
                facets.append(neighbour)
    if any(d != 2 for d in degree.values()):
        raise AssertionError("gift-wrap left a ridge outside exactly two facets")
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

    Facets come from the gift-wrap (see module docs); every lower face is an
    intersection of facets, so the lattice is closed under vertex-set
    intersection by construction.  Points interior to the
    hull never appear in any vertex set.
    """
    if len(points) == 0:
        raise ValueError("convex hull of an empty point set")
    prep = _Prepared(points)
    k = prep.rank
    n = len(points)
    m = len(prep.int_pts)

    if k == 0:
        faces = (Face(-1, ()), Face(0, tuple(range(n))))
        return FaceLattice(points.ambient_dim, 0, n, faces, ())

    facet_sets = _facets_wrap(prep.reduced, k)

    # close the facet vertex sets under intersection (bitmask arithmetic)
    facet_masks = [sum(1 << i for i in f) for f in facet_sets]
    all_masks = set(facet_masks)
    frontier = set(facet_masks)
    while frontier:
        new = set()
        for a in frontier:
            for b in facet_masks:
                c = a & b
                if c and c not in all_masks and c not in new:
                    new.add(c)
        all_masks |= new
        frontier = new

    mask_ids = {mask: [i for i in range(m) if (mask >> i) & 1] for mask in all_masks}
    dims = {
        mask: _int_affine_rank([prep.reduced[i] for i in ids])
        for mask, ids in mask_ids.items()
    }
    vertex_dids = {ids[0] for mask, ids in mask_ids.items() if dims[mask] == 0}

    def expand(dids) -> tuple[int, ...]:
        out = []
        for did in dids:
            if did in vertex_dids:
                out.extend(prep.members[did])
        return tuple(sorted(out))

    faces = [Face(-1, ())]
    seen_vsets = {(): -1}
    counts = [0] * k
    for mask, ids in mask_ids.items():
        vset = expand(ids)
        d = dims[mask]
        if vset in seen_vsets:
            raise AssertionError(f"two faces share vertex set {vset}")
        seen_vsets[vset] = d
        faces.append(Face(d, vset))
        counts[d] += 1
    faces.append(Face(k, expand(sorted(vertex_dids))))
    faces.sort(key=lambda f: (f.dim, f.vertices))
    return FaceLattice(points.ambient_dim, k, n, tuple(faces), tuple(counts))


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
        if _side_scan(_canonical_key(coeffs), prep.reduced) is None:
            return False
    return True

