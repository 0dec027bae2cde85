"""Exact convex hulls, face lattices, f-vectors, and neighborliness.

Points are rational; every predicate is decided with exact integer
arithmetic after clearing denominators (a positive per-coordinate scaling,
which is an invertible linear map and so preserves the face lattice).

The face lattice is its levels: one set of faces per dimension, each face
the int bitmask of the points on it.  While the lattice is built, each
distinct point is the bit of its first index in the input.  A hull runs in
two stages: the facet stage finds the polytope's facets, and the level
stage the faces below them.  Three steps find every face's facets, each
the one that fits its size.  The polytope alone is gift-wrapped: a first
facet by induction on coordinate shadows, then one rotation per further
facet, each in the pencil of a found facet's primitive integer functional
and a ridge's, at one dot product per point.  Every ridge must end in
exactly two facets, which certifies completeness, and a facet's values at
the points are dropped once the wrap has crossed all its ridges.  Its
functional is kept, keyed by its mask, in the integer rank-reduced
coordinates the wrap ran in, so a caller can read the facets'
inequalities: the Cayley polytope's propose the facets of a Minkowski sum
(``cayley``), which certifies them with the same ridge step and ridge
count.  A facet that is not a simplex gets its own facets, and their
functionals, from one double-description pass over its points in its
pivot columns, the polytope's minus the last one its functional uses.
Every lower face that is not a simplex takes as its facets the
inclusion-maximal intersections with the other facets of a face it is a
facet of.  A simplex's facets
clear one bit each.  Only two levels of facet lists are kept at a time.
At the end each mask keeps its vertices' bits and gains the other copies
of a repeated vertex, so the lattice keeps each face as the mask of every
input index on its vertices.  F-vectors, face queries and spanning counts
read the masks, and vertex tuples are built only when they are asked for.
No floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .exact import clear_denominators, cone_rays, hyperplane, int_row_space_pivots, rat


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

    ``masks[j]`` is the set of j-faces for j = 0..polytope_dim, each face
    the int bitmask of the input indices of its vertices, every copy of a
    vertex given by several equal points included.  The top level holds the
    polytope alone; the empty face is implied.  Counts and face queries read
    the masks.  ``levels`` is the same lattice as sorted index tuples, built
    on first use.
    """

    ambient_dim: int
    n_points: int
    masks: tuple[frozenset[int], ...]

    def __post_init__(self):
        euler = sum((-1) ** k * fk for k, fk in enumerate(self.f_vector))
        expected = 1 - (-1) ** self.polytope_dim
        if self.polytope_dim >= 1 and euler != expected:
            raise ValueError(
                f"Euler relation violated: {euler} != {expected} for f={self.f_vector}"
            )

    @property
    def polytope_dim(self) -> int:
        return len(self.masks) - 1

    @property
    def f_vector(self) -> tuple[int, ...]:
        """Numbers of j-faces for j = 0..polytope_dim-1."""
        return tuple(map(len, self.masks[:-1]))

    @cached_property
    def levels(self) -> tuple[frozenset[tuple[int, ...]], ...]:
        """``levels[j]``: the j-faces as sorted vertex index tuples."""
        return tuple(frozenset(tuple(_indices(face)) for face in level) for level in self.masks)

    @property
    def vertex_indices(self) -> tuple[int, ...]:
        [top] = self.masks[-1]
        return tuple(_indices(top))


def is_face(lattice: FaceLattice, vertex_indices: Sequence[int]) -> bool:
    """True iff the index set is the vertex set of a face: a face's mask,
    so it holds every copy of a repeated vertex and no other point."""
    mask = 0
    for i in vertex_indices:
        if i < 0 or i >= lattice.n_points:
            raise IndexError(f"vertex index {i} out of range 0..{lattice.n_points - 1}")
        mask |= 1 << i
    return not mask or any(mask in level for level in lattice.masks)


def neighborliness(lattice: FaceLattice) -> int:
    """Largest k such that every vertex subset of size <= k is a face.

    Reported value is capped at f0 - 1 (a simplex reports its dimension).
    A subset is one of vertices, each with every copy of its point.
    """
    if lattice.polytope_dim == 0:
        return 0
    verts = sorted(lattice.masks[0])
    faces = frozenset().union(*lattice.masks)
    best = 0
    for size in range(1, len(verts)):
        if all(sum(c) in faces for c in itertools.combinations(verts, size)):
            best = size
        else:
            break
    return best


# ---------------------------------------------------------------------------
# internal machinery
# ---------------------------------------------------------------------------


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


def _first_facet(pts: Sequence[tuple[int, ...]], k: int) -> tuple[tuple[int, ...], list[int]]:
    """A facet of full-rank points and its functional, by induction on their
    coordinate shadows: where the polytope's wrap starts (see ``_wrap``).

    The m-shadow (the first m coordinates) is full-rank too.  The points of
    minimal x_0 are a facet of the 1-shadow, with functional x_0 - min, and
    the vertical hyperplane over a facet of the (m-1)-shadow supports the
    m-shadow: its functional carries up with a zero coefficient.  Its points
    there are a facet, or else a ridge: then the hyperplane through the ridge
    and one point off it spans the pencil with it, and one rotation reaches a
    facet.  Returns the facet's primitive functional and its values at the
    points.
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
    return u, values


def _spanning(points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """A maximal affinely independent subset of the points: the pivot columns
    of the matrix whose columns are the points (1, p)."""
    _, pivots = int_row_space_pivots([(1,) * len(points), *zip(*points)])
    return [points[i] for i in pivots]


def _indices(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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


def _double_description(rows, marks) -> list[tuple[tuple[int, ...], int, int]]:
    """Facets of full-rank points, by the double description method.

    ``rows`` are the points' rows (1, p) and ``marks[m]`` is row m's bit in
    the polytope's masks.  The functionals nonnegative on every row form a
    pointed cone whose extreme rays are the facets' functionals (Motzkin et
    al. 1953; Fukuda & Prodon 1996).  The cone of an affine basis of the
    points is simplicial: each ray is the hyperplane through all basis
    points but one, positive on that one.  One ``cone_rays`` elimination
    gives the basis and all those rays, and ``_cut`` then adds the other
    points one at a time.  Returns each facet's primitive functional,
    positive on the rows off it, its zero mask over the rows' positions and
    the same zero set as a mask of ``marks``.
    """
    start = cone_rays(rows)
    if start is None:
        raise AssertionError("facet rows are not full rank")
    basis, functionals = start
    local = sum(1 << b for b in basis)
    marked = sum(marks[b] for b in basis)
    rays = [(h, local ^ 1 << b, marked ^ marks[b]) for h, b in zip(functionals, basis)]
    size = len(rows) // 8 + 1  # bytes of a zero mask with a spare top bit
    for m, row in enumerate(rows):
        if m not in basis:
            rays = _cut(rays, row, 1 << m, marks[m], len(basis) - 2, size)
    return rays


def _cut(rays, row, bit: int, mark: int, need: int, size: int) -> list[tuple[tuple[int, ...], int, int]]:
    """The extreme rays of a pointed cone cut by one more constraint.

    ``rays`` are (primitive functional, zero mask over the constraints so
    far, the same zero set in the polytope's bits); the new constraint is
    the point ``row``, its bits ``bit`` and ``mark``.  A ray positive there
    stays, one zero there stays with the bits added, and one negative there
    goes.  Each adjacent pair of a positive and a negative ray gives the
    new ray of their plane that vanishes at ``row``.  Adjacency is
    combinatorial: the pair's common zero mask holds at least ``need`` (the
    cone's dimension less two) constraints and no third ray's zero mask
    contains it, so the smallest face holding both rays is 2-dimensional.
    That test reads every ray's local mask at once: each is a field of
    ``size`` bytes in one int, whose top bit is a guard.
    """
    kept, pos, neg = [], [], []
    for h, z, w in rays:
        v = sum(map(operator.mul, h, row))
        if v > 0:
            kept.append((h, z, w))
            pos.append((h, z, w, v))
        elif v < 0:
            neg.append((h, z, w, v))
        else:
            kept.append((h, z | bit, w | mark))
    fields = None
    guard = 8 * size - 1
    for hp, zp, wp, vp in pos:
        for hn, zn, wn, vn in neg:
            z = zp & zn
            if z.bit_count() < need:
                continue
            if fields is None:  # each field the complement of its ray's mask
                ones = int.from_bytes((b"\x01" + bytes(size - 1)) * len(rays), "little")
                low = ones * ((1 << guard) - 1)
                fields = low ^ int.from_bytes(b"".join([y.to_bytes(size, "little") for _, y, _ in rays]), "little")
            # a field of z & fields is zero just where its ray's mask holds z;
            # adding ``low`` carries into every other field's guard bit
            if len(rays) - ((z * ones & fields) + low >> guard & ones).bit_count() != 2:
                continue
            g = [vp * b - vn * a for a, b in zip(hp, hn)]
            d = math.gcd(*g)
            kept.append((tuple(c // d for c in g), z | bit, wp & wn | mark))
    return kept


def _wrap(pts, bits, k: int) -> tuple[dict[int, tuple[int, ...]], dict[int, list[int]]]:
    """Facets of the polytope of the full-rank points ``pts``, by one
    gift-wrap (Chand & Kapur 1970; Swart 1985).

    Point m is the bit ``bits[m]`` of a face's mask.  ``_first_facet``
    finds one facet, and each facet counts its ridges, its own facets, as
    soon as it is found, from ``_facet_ridges`` in its pivot columns: the
    polytope's minus the one at the last position t where its functional u
    is nonzero.  A ridge that one found facet holds is crossed with one
    ``_rotate`` in the pencil of that facet's functional and the ridge's,
    taken over the polytope's columns with a 0 inserted at t, so a wrap of
    m facets makes m - 1 rotations.  A simplex facet makes a ridge's
    functional only when a rotation crosses it, with one ``hyperplane``.
    Once the walk has crossed all of a facet's ridges its values are
    dropped.  Every ridge must end in exactly two facets, which certifies
    completeness (``_closed``).  Returns each facet's primitive functional,
    keyed by its mask in the order found, and each non-simplex facet's
    facets.
    """
    facets, degree, below, walk = {}, Counter(), {}, []

    def found(u, values):
        on = [m for m, x in enumerate(values) if not x]
        t = _last_nonzero(u)
        marks = [bits[m] for m in on]
        facet = sum(marks)
        rows, ridges, functionals = _facet_ridges([pts[m] for m in on], marks, t - 1)
        if functionals is not None:
            below[facet] = ridges
        degree.update(ridges)
        facets[facet] = u
        walk.append((u, values, t, ridges, functionals, rows))

    found(*_first_facet(pts, k))
    for n, (u, values, t, ridges, functionals, rows) in enumerate(walk):
        for r, ridge in enumerate(ridges):
            if degree[ridge] > 1:  # its other facet is found already
                continue
            w = functionals[r] if functionals else _oriented(hyperplane(rows[:r] + rows[r + 1 :]), rows[r])
            found(*_rotate(pts, values, u, w[:t] + (0,) + w[t:]))
        walk[n] = None  # every ridge it holds is closed now: drop its values
    _closed(degree, "gift-wrap")
    return facets, below


def _facet_ridges(pts, marks, t: int) -> tuple[list[tuple[int, ...]], list[int], Optional[list[tuple[int, ...]]]]:
    """A facet's rows, its ridges and, unless it is a simplex, the ridges'
    functionals.

    ``pts`` are the facet's points in the k columns of a k-polytope,
    ``marks`` their bits in the polytope's masks, and t a column where the
    facet's functional u is nonzero.  The rows are the points (1, p)
    without column t, the facet's pivot columns: in the polytope's columns
    its direction space is {u = 0}, whose one circuit is u's support.  A
    simplex, k points, has one ridge per point, its mask without that
    point's bit.  Any other facet's ridges, as masks of ``marks``, and
    their functionals, in the rows' coordinates, come from one
    ``_double_description`` pass.
    """
    rows = [(1, *p[:t], *p[t + 1 :]) for p in pts]
    if len(rows) == len(pts[0]):
        facet = sum(marks)
        return rows, [facet ^ b for b in marks], None
    rays = _double_description(rows, marks)
    return rows, [ridge for _, _, ridge in rays], [h for h, _, _ in rays]


def _closed(degree: Counter, stage: str) -> None:
    """Completeness of a facet stage whose facets are facets of the
    polytope: ``degree`` counts the found facets at each of their ridges,
    and each must be two.  The facet-ridge graph of a polytope is
    connected, so facets that close every ridge they hold are all there
    are.
    """
    if any(n != 2 for n in degree.values()):
        raise AssertionError(f"{stage} left a ridge outside exactly two facets")


def _intersected(children: dict[int, list[int]], j: int) -> dict[int, list[int]]:
    """Facets of every (j-1)-face that is not a simplex and is a facet of
    a face in ``children``, which maps j-faces to their facets.

    A j-face G's ridges each lie in exactly two of its facets, so a facet R
    of G has as its facets the inclusion-maximal sets among R & S, for the
    other facets S of G.
    """
    out = {}
    for facets in children.values():
        for r in facets:
            if r.bit_count() > j and r not in out:
                meets = {r & s for s in facets}
                meets -= {r, 0}
                maximal = []
                for m in sorted(meets, key=int.bit_count, reverse=True):
                    if not any(m & x == m for x in maximal):
                        maximal.append(m)
                out[r] = maximal
    return out


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
        self.rank, self.pivots = int_row_space_pivots(diffs)
        self.reduced = [tuple(p[c] for c in self.pivots) for p in int_pts]


def convex_hull(points: PointSet) -> FaceLattice:
    """Complete face lattice of the convex hull of a rational point set:
    the facet stage ``_facets``, then the level stage ``_lattice``."""
    if len(points) == 0:
        raise ValueError("convex hull of an empty point set")
    prep = _Prepared(points)
    facets, below = _facets(prep)
    facets = list(facets)  # the level stage reads masks alone: the functionals go first
    return _lattice(points.ambient_dim, prep.members, prep.rank, facets, below)


def _facets(prep: _Prepared) -> tuple[dict[int, tuple[int, ...]], dict[int, list[int]]]:
    """The facet stage: each facet's primitive functional in ``prep``'s
    reduced coordinates, positive off the facet and keyed by its mask, and
    each non-simplex facet's facets, from ``_wrap``.  Here a face's mask
    holds the bit of the first input index of each distinct point on it.
    A simplex, rank + 1 distinct points, gives no facets: the level stage
    clears its bits.
    """
    if len(prep.members) > prep.rank + 1:
        return _wrap(prep.reduced, [1 << m[0] for m in prep.members], prep.rank)
    return {}, {}


def _lattice(ambient_dim: int, members: list[list[int]], k: int, facets: Iterable[int], below: dict[int, list[int]]) -> FaceLattice:
    """The level stage: the face lattice of a k-polytope from its facets.

    ``members`` lists each distinct point's input indices, and ``facets``
    and ``below`` are masks of the bits of their first indices, as
    ``_facets`` gives them; no facets means a simplex.  The levels are
    built from the polytope down, with the facet lists of the
    non-simplex faces of two levels at a time: ``below`` gives the facets'
    own facets, ``_intersected`` a lower non-simplex face's, and a simplex's
    clear one bit each, taken lowest first from the mask itself.  Each mask
    then keeps only its vertices' bits, so points that are no vertex of the
    hull never appear in a face, and each repeated vertex gains the bits of
    its other copies.  That last step is the one place copies are handled.
    """
    top = sum(1 << m[0] for m in members)
    levels = [{top}]
    children = {top: facets} if facets else {}
    for j in range(k, 0, -1):
        level = set()
        for g in levels[-1]:
            if g in children:
                level.update(children[g])
                continue
            x = g  # a simplex: one facet per vertex, each without that vertex's bit
            while x:
                b = x & -x
                level.add(g ^ b)
                x ^= b
        levels.append(level)
        children = below
        below = _intersected(children, j - 1)
    n_faces = sum(map(len, levels))
    vertices = sum(levels[-1])
    if vertices != top:  # drop the points that are no vertex
        levels = [{face & vertices for face in level} for level in levels]
    for m in members:  # give each repeated vertex its other copies
        if len(m) > 1 and vertices >> m[0] & 1:
            first, rest = 1 << m[0], sum(1 << i for i in m[1:])
            levels = [{face | rest if face & first else face for face in level} for level in levels]
    masks = tuple(map(frozenset, reversed(levels)))
    if len(frozenset().union(*masks)) != n_faces:
        raise AssertionError("two faces share a vertex set")
    return FaceLattice(ambient_dim, sum(map(len, members)), masks)


def verify_supporting(lattice: FaceLattice, points: PointSet) -> bool:
    """Re-check, from scratch, that every facet's hyperplane supports all points."""
    prep = _Prepared(points)
    k = prep.rank
    if k != lattice.polytope_dim:
        return False
    if k == 0:
        return True
    for facet in lattice.masks[-2]:
        chosen = _spanning([prep.reduced[prep.rep_of[i]] for i in _indices(facet)])
        if len(chosen) != k:
            return False
        values = _values(hyperplane([(1, *p) for p in chosen]), prep.reduced)
        if min(values) < 0 < max(values):
            return False
    return True
