"""Exact convex hulls, face lattices, f-vectors, and neighborliness.

Points are rational; every predicate is decided with exact integer
arithmetic after clearing denominators (a positive per-coordinate scaling,
which is an invertible linear map and so preserves the face lattice).

The face lattice is its levels: one set of faces per dimension, each face
the sorted indices of its vertices.  One descent from the polytope finds
every face that is not a simplex, and the levels are read off what it
found one dimension at a time.  A simplex's facets are its subsets.  A
j-face of j+2 points has one affine dependency, and by Gale duality its
facets are what is left when a point outside the dependency's support, or
one point of each sign, is left out: no rotation is needed.
Every other face's facets are found by an exact gift-wrap.  A face found
in its parent's wrap starts its own from every ridge of the parent that one
found facet holds and that lies inside it, the ridge it was found across
among them: each is one of its facets, whose functional within it follows
from the holder's and its own.  Only the polytope and the chain of first
facets below it search for a first facet, by rotations alone.  Each facet
found counts its ridges, its own facets one dimension down, and the wrap
rotates only about a ridge that one found facet holds, so every rotation
finds a new facet; every ridge must end in exactly two facets, which
certifies completeness.  A facet's values at the face's points are dropped
once the wrap has crossed all its ridges.  Each facet keeps its
primitive integer functional, so a rotation moves in the pencil of the
facet's functional and the ridge's, at one dot product per point.  A face
is wrapped in its pivot columns, and a facet's are its face's minus the
last one its functional uses, so only the polytope's rank and the shadow
steps of the first-facet chain cost an elimination.  A face is the int
bitmask of the points on it, each distinct point the bit of its first
index in the input.  A memo keyed by that mask hands a face's facets,
columns, functionals and ascending point indices to the wrap above it and
to the lattice, so each face is wrapped at most once; a face that is not
wrapped makes a facet's functional only when a wrap needs it.  A face
with no memo entry is a simplex whose facets clear one bit each.  A
vertex tuple is a mask's set bits on the vertices, with the other copies
of a repeated vertex added.  No floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
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
class FaceLattice:
    """Complete face lattice of a polytope, one level per dimension.

    ``levels[j]`` is the set of j-faces for j = 0..polytope_dim, each face
    given by its sorted vertex indices into the hulled points (a vertex
    repeated among the points lists every copy).  The top level holds the
    polytope alone; the empty face is implied.
    """

    ambient_dim: int
    n_points: int
    levels: tuple[frozenset[tuple[int, ...]], ...]

    def __post_init__(self):
        euler = sum((-1) ** k * fk for k, fk in enumerate(self.f_vector))
        expected = 1 - (-1) ** self.polytope_dim
        if self.polytope_dim >= 1 and euler != expected:
            raise ValueError(
                f"Euler relation violated: {euler} != {expected} for f={self.f_vector}"
            )

    @property
    def polytope_dim(self) -> int:
        return len(self.levels) - 1

    @property
    def f_vector(self) -> tuple[int, ...]:
        """Numbers of j-faces for j = 0..polytope_dim-1."""
        return tuple(map(len, self.levels[:-1]))

    @property
    def vertex_indices(self) -> tuple[int, ...]:
        return tuple(sorted(i for vertex in self.levels[0] for i in vertex))


def is_face(lattice: FaceLattice, vertex_indices: Sequence[int]) -> bool:
    """True iff the sorted index set is the vertex set of a face."""
    idx = tuple(sorted(set(vertex_indices)))
    for i in idx:
        if i < 0 or i >= lattice.n_points:
            raise IndexError(f"vertex index {i} out of range 0..{lattice.n_points - 1}")
    return not idx or any(idx in level for level in lattice.levels)


def neighborliness(lattice: FaceLattice) -> int:
    """Largest k such that every vertex subset of size <= k is a face.

    Reported value is capped at f0 - 1 (a simplex reports its dimension).
    A subset is one of vertices, each with every copy of its point.
    """
    if lattice.polytope_dim == 0:
        return 0
    verts = sorted(lattice.levels[0])
    best = 0
    for size in range(1, len(verts)):
        if all(is_face(lattice, sum(c, ())) for c in itertools.combinations(verts, size)):
            best = size
        else:
            break
    return best


# ---------------------------------------------------------------------------
# internal machinery
# ---------------------------------------------------------------------------


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


def _values(functional, pts) -> list[int]:
    """The affine functional ``(c0, c1, ...)``, c0 + sum(c_i * x_i), at each point."""
    c0, rest = functional[0], functional[1:]
    return [c0 + sum(map(operator.mul, rest, p)) for p in pts]


def _rotate(pts, u_values, u, v) -> tuple[tuple[int, ...], list[int]]:
    """Turn the supporting functional ``u`` about a ridge to the next facet.

    ``u`` (valued ``u_values`` at ``pts``) is nonnegative on the points and
    vanishes on the current facet; ``v`` vanishes on the ridge, is positive
    on the rest of that facet and is independent of ``u``.  Every hyperplane
    through the ridge is then u_c*v - v_c*u for some point c, and it supports
    the points exactly when c minimizes v/u over the points off the facet.
    One pass keeps the extreme point by the exact 2x2 sign u_c*v_i - v_c*u_i,
    so each point costs one evaluation of ``v``.  Returns the new primitive
    functional and its values at ``pts``, which are the next facet's
    ``u_values``.
    """
    v_values = _values(v, pts)
    # (0, 1) is the facet itself turned half a turn: every point off it is beyond
    uc, vc = 0, 1
    for ui, vi in zip(u_values, v_values):
        if uc * vi < vc * ui:
            uc, vc = ui, vi
    g = [uc * b - vc * a for a, b in zip(u, v)]
    d = math.gcd(*g)
    values = [(uc * b - vc * a) // d for a, b in zip(u_values, v_values)]
    if min(values) < 0:
        raise AssertionError("gift-wrap step ended on a non-supporting hyperplane")
    return tuple(x // d for x in g), values


def _first_facet(pts: Sequence[tuple[int, ...]], k: int) -> tuple[frozenset, tuple[int, ...]]:
    """A facet of full-rank points and its functional, by induction on their
    coordinate shadows.  Only a face entered without a ridge needs it: the
    polytope and the chain of first facets below it (see ``_facets_of``).

    The m-shadow (the first m coordinates) is full-rank too.  The points of
    minimal x_0 are a facet of the 1-shadow, with functional x_0 - min, and
    the vertical hyperplane over a facet of the (m-1)-shadow supports the
    m-shadow: its functional carries up with a zero coefficient.  Its points
    there are a facet, or else a ridge: then the hyperplane through the ridge
    and one point off it spans the pencil with it, and one rotation reaches a
    facet.  Returns the facet's on-set and primitive functional.
    """
    low = min(p[0] for p in pts)
    u = (-low, 1)
    values = [p[0] - low for p in pts]
    for m in range(2, k + 1):
        u += (0,)
        shadow = [p[:m] for p in pts]
        flat = _spanning([shadow[i] for i, x in enumerate(values) if not x])
        if len(flat) == m:
            continue
        off = next(i for i, x in enumerate(values) if x)
        v = hyperplane([(1, *q) for q in flat + [shadow[off]]])
        u, values = _rotate(shadow, values, u, v)
    return frozenset(i for i, x in enumerate(values) if not x), u


def _spanning(points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """A maximal affinely independent subset of the points: the pivot columns
    of the matrix whose columns are the points (1, p)."""
    _, pivots = int_row_space_pivots([(1,) * len(points), *zip(*points)])
    return [points[i] for i in pivots]


def _ridge_seed(u, u_values, g, on, t) -> tuple[tuple[int, ...], list[int]]:
    """A ridge of a face's wrap, as a facet of a found facet that holds it.

    ``u`` (valued ``u_values``) is the functional of the facet that holds
    the ridge and ``g`` that of the facet found, on-set ``on``, whose last
    nonzero position is ``t``; the two facets meet in the ridge.  On
    {g = 0}, sign(g_t)*(g_t*u - u_t*g) equals
    |g_t|*u, so it is nonnegative there and zero exactly on the ridge; its
    t-th coefficient is 0, so dropping it gives a functional over the found
    facet's columns.  Returns that functional, made primitive, and its values
    at the found facet's points: no elimination and no point scan.
    """
    gt, ut = abs(g[t]), u[t] if g[t] > 0 else -u[t]
    s = [gt * a - ut * b for a, b in zip(u, g)]
    del s[t]
    d = math.gcd(*s)
    return tuple(c // d for c in s), [gt * u_values[m] // d for m in on]


def _indices(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _rows(pts, idx, columns) -> list[tuple[int, ...]]:
    """The points ``idx`` of ``pts`` in the coordinates ``columns``."""
    if len(columns) < 2:  # itemgetter returns a bare item for one column
        return [tuple(pts[i][c] for c in columns) for i in idx]
    get = operator.itemgetter(*columns)
    return list(map(get, map(pts.__getitem__, idx)))


def _last_nonzero(g) -> int:
    """The last position where ``g`` is nonzero."""
    t = len(g) - 1
    while not g[t]:
        t -= 1
    return t


def _oriented(h, row) -> tuple[int, ...]:
    """The functional ``h`` made primitive and positive at ``row``, a point (1, p)."""
    d = math.gcd(*h)
    if sum(map(operator.mul, h, row)) < 0:
        d = -d
    return tuple(c // d for c in h)


def _facets_of(pts, face: int, j: int, memo: dict, idx, columns, seeds=None) -> list[int]:
    """Facets of the j-face whose points are the set bits of ``face``.

    A face is the bitmask of its points' indices into ``pts``, and ``idx``
    lists those indices in ascending order.  A simplex's facets clear one
    bit each.  A face of j+2 points has one affine dependency λ,
    sum λ_m (1, p_m) = 0, the cofactors of the (j+1)x(j+2)
    matrix of its columns (1, p) (one ``hyperplane``).  By Gale duality
    (Ziegler 1995, Lecture 6) its facets are what is left when one point
    with λ_m = 0, or one point with λ_m > 0 and one with λ_m < 0, is left
    out: an affine functional that is positive on the points left out and
    zero on the rest sums to zero against λ.  Leaving out a pair leaves a
    simplex; leaving out a λ_m = 0 point leaves a face of j+1 points with
    the same dependency, which this face enters at once in its columns.

    Any other face is gift-wrapped once (Chand & Kapur 1970; Swart 1985) in
    its pivot ``columns``.  A face its parent's wrap finds gets ``seeds``:
    each ridge of the parent that one found facet holds and that lies inside
    the face is one of the face's facets, and ``_ridge_seed`` makes its
    functional and values from the holder's.  The ridge a rotation crossed
    is always one of them.  The walk starts from all the seeds; the top face
    and the chain of first facets below it, entered without any, call
    ``_first_facet``.  Each facet found counts its ridges at once: its own
    facets, from ``memo`` (keyed by mask) or one level down; a segment's one
    ridge is the empty face.  A ridge that one found facet holds is crossed
    with one ``_rotate`` in the pencil of that facet's functional and the
    ridge's, so each rotation finds a new facet, and a face of m facets
    entered with s seeds costs m - s rotations.  Once a facet's ridges are
    all crossed no seed reads its values, so the walk drops them.  Every
    ridge must end in exactly two facets, which certifies completeness.
    Simplices and faces of j+2 points ignore ``seeds``, so only a facet that
    will be wrapped is given any.

    A face's pivot columns are the left-to-right pivots of its points'
    difference rows.  In the face's columns a facet's direction space is
    the hyperplane {u = 0} of its functional ``u``, whose one circuit is
    the support of ``u``; so the facet's columns are the face's minus the
    one at the last position t where u_t != 0, and a ridge functional over
    the facet's columns is one over the face's with a 0 inserted at t.

    ``memo[face]`` is (facet masks, pivot columns, each facet's primitive
    functional over those columns, nonnegative on the face, ``idx``).  A
    wrapped face holds every functional.  A simplex or a face of j+2 points
    makes a facet's functional only when a wrap crosses that ridge
    (``_facet_functional``), except that a facet leaving out a λ_m = 0
    point gets its functional at once.  Only the polytope's wrap enters
    this function, so the memo holds the polytope, every facet of a wrapped
    face and every facet of a face of j+2 points that leaves out a λ_m = 0
    point; any other face of the lattice is a simplex, below a simplex or a
    face of j+2 points, and ``convex_hull`` clears its bits itself.
    """
    if face in memo:
        return memo[face][0]
    if len(idx) == j + 1:
        memo[face] = ([face ^ (1 << i) for i in idx], columns, [None] * len(idx), idx)
        return memo[face][0]
    sub = _rows(pts, idx, columns)
    if len(idx) == j + 2:
        lam = hyperplane([(1,) * len(sub), *zip(*sub)])
        if lam is None:
            raise AssertionError(f"{j + 2} points spanning a {j}-face have no affine dependency")
        facets, functionals = [], []
        k = next(n for n, y in enumerate(lam) if y)
        for m, x in enumerate(lam):
            if x > 0:
                for n, y in enumerate(lam):
                    if y < 0:
                        facets.append(face ^ (1 << idx[m]) ^ (1 << idx[n]))
                        functionals.append(None)
            elif not x:  # the rest less the point k of λ's support is independent
                rows = [(1, *p) for p in sub]
                u = _oriented(hyperplane([r for n, r in enumerate(rows) if n != m and n != k]), rows[m])
                t = _last_nonzero(u)
                facet = face ^ (1 << idx[m])
                _facets_of(pts, facet, j - 1, memo, idx[:m] + idx[m + 1 :], columns[: t - 1] + columns[t:])
                facets.append(facet)
                functionals.append(u)
        memo[face] = (facets, columns, functionals, idx)
        return facets
    # walk: every facet found, grown as it is walked; holder: each ridge one
    # found facet holds, and that facet's place in the walk
    degree, holder, walk = {}, {}, []

    def found(g, values):  # a facet registers its ridges as soon as it is found
        on = [m for m, x in enumerate(values) if not x]
        t = _last_nonzero(g)  # its columns are ours but the t-th
        facet = 0
        for m in on:
            facet |= 1 << idx[m]
        if facet in memo:
            ridges = memo[facet][0]
        else:
            held = None
            if len(on) > j + 1:  # it will be wrapped: each open ridge inside it is one of its facets
                held = [_ridge_seed(*walk[k][1:3], g, on, t) for ridge, k in holder.items() if ridge & facet == ridge]
            ridges = _facets_of(pts, facet, j - 1, memo, [idx[m] for m in on], columns[: t - 1] + columns[t:], held)
        k = len(walk)
        for ridge in ridges:
            if ridge in degree:
                degree[ridge] += 1
                holder.pop(ridge, None)
            else:
                degree[ridge] = 1
                holder[ridge] = k
        walk.append((facet, g, values, t))

    if seeds:
        for seed in seeds:
            found(*seed)
    else:
        _, u = _first_facet(sub, j)
        found(u, _values(u, sub))
    for k, (facet, u, u_values, t) in enumerate(walk):
        for r, ridge in enumerate(memo[facet][0]):
            if degree[ridge] > 1:  # its other facet is found already
                continue
            w = _facet_functional(pts, facet, r, memo)
            found(*_rotate(sub, u_values, u, w[:t] + (0,) + w[t:]))
        # every ridge it holds is closed now, so no seed reads its values again
        walk[k] = (facet, u, None, t)
    if any(d != 2 for d in degree.values()):
        raise AssertionError("gift-wrap left a ridge outside exactly two facets")
    memo[face] = ([facet for facet, *_ in walk], columns, [u for _, u, *_ in walk], idx)
    return memo[face][0]


def _facet_functional(pts, face: int, n: int, memo: dict) -> tuple[int, ...]:
    """The n-th facet's functional of a face in ``memo``, over its columns.

    A simplex's, and those of a face of j+2 points that leave out two of
    them, are made on first need (see ``_facets_of``): one ``hyperplane``
    through the facet's j points in the face's columns, made primitive and
    positive on a point the facet leaves out.
    """
    facets, columns, functionals, idx = memo[face]
    if functionals[n] is None:
        facet = facets[n]
        rows = [(1, *p) for p in _rows(pts, idx, columns)]
        h = hyperplane([r for r, i in zip(rows, idx) if facet >> i & 1])
        functionals[n] = _oriented(h, next(r for r, i in zip(rows, idx) if not facet >> i & 1))
    return functionals[n]


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
        int_pts = [tuple(c[i] for c in coords) for i in range(len(distinct))]
        # affine rank, and pivot columns that keep it: those of the difference rows
        diffs = [[x - b for x, b in zip(p, int_pts[0])] for p in int_pts[1:]]
        self.rank, pivots = int_row_space_pivots(diffs)
        self.reduced = [tuple(p[c] for c in pivots) for p in int_pts]


def convex_hull(points: PointSet) -> FaceLattice:
    """Complete face lattice of the convex hull of a rational point set.

    A face is the bitmask of its points, each distinct point the bit of its
    first index in the input.  Wrapping the polytope (see ``_facets_of``)
    enters every face that needs a wrap or a dependency, and the memo it
    fills holds their facets, so the levels are read off it one dimension at
    a time: a face with no entry is a simplex, whose facets clear one bit
    each.  A vertex tuple is then the set bits of a face's mask on the
    vertices, with the other copies of a repeated vertex ORed in, so points
    interior to the hull never appear in any vertex set.
    """
    if len(points) == 0:
        raise ValueError("convex hull of an empty point set")
    prep = _Prepared(points)
    k = prep.rank
    n = len(points)

    if k == 0:
        return FaceLattice(points.ambient_dim, n, (frozenset({tuple(range(n))}),))

    memo: dict[int, tuple] = {}
    firsts = [m[0] for m in prep.members]
    top = sum(1 << i for i in firsts)
    _facets_of([prep.reduced[did] for did in prep.rep_of], top, k, memo, firsts, tuple(range(k)))
    levels = [{top}]
    for _ in range(k):
        level = set()
        for f in levels[-1]:
            entry = memo.get(f)
            level.update(entry[0] if entry else (f ^ (1 << i) for i in _indices(f)))
        levels.append(level)
    vertices = sum(levels[-1])
    # each repeated vertex: its first index's bit and its other copies' bits
    copies = [(1 << m[0], sum(1 << i for i in m[1:])) for m in prep.members if len(m) > 1 and vertices >> m[0] & 1]

    def expand(face: int) -> tuple[int, ...]:
        face &= vertices
        for bit, rest in copies:
            if face & bit:
                face |= rest
        return tuple(_indices(face))

    faces = tuple(frozenset(map(expand, level)) for level in reversed(levels))
    if len(frozenset().union(*faces)) != sum(map(len, levels)):
        raise AssertionError("two faces share a vertex set")
    return FaceLattice(points.ambient_dim, n, faces)


def verify_supporting(lattice: FaceLattice, points: PointSet) -> bool:
    """Re-check, from scratch, that every facet's hyperplane supports all points."""
    prep = _Prepared(points)
    k = prep.rank
    if k != lattice.polytope_dim:
        return False
    if k == 0:
        return True
    for facet in lattice.levels[-2]:
        dids = sorted({prep.rep_of[i] for i in facet})
        pts = [prep.reduced[d] for d in dids]
        if k == 1:
            if len(dids) != 1:
                return False
            continue
        chosen = _spanning(pts)
        if len(chosen) != k:
            return False
        coeffs = hyperplane([(1, *p) for p in chosen])
        if coeffs is None:
            return False
        if _side_scan(coeffs, prep.reduced) is None:
            return False
    return True

