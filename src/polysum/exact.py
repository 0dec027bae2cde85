"""Exact rational scalars, matrices, determinants, and affine rank.

Every geometric predicate in this package bottoms out here.  Scalars are
``fractions.Fraction`` (arbitrary precision, always canonical); a matrix is
a plain sequence of rows whose entries are ints, Fractions or "p/q" strings.
One fraction-free (Bareiss 1968) row echelon pass on integer rows, after
clearing denominators, gives the determinant, the rank with its leftmost
pivot columns, by back substitution the k+1 cofactors of a hyperplane
through k integer points, and on [R^T | I] for m >= n rows R of length n
both a basis B among the rows and the n extreme rays of B's
simplicial cone.  The independent determinant oracles live in the tests.
No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


class DimensionError(ValueError):
    """Raised when matrix/point dimensions do not match an operation."""


class SearchExhausted(RuntimeError):
    """Halving search ran out of budget (admissible parameters always terminate)."""

    def __init__(self, what: str, halvings: int):
        super().__init__(f"{what}: no certificate after {halvings} halvings")
        self.what = what
        self.halvings = halvings


def rat(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction.

    A string in exponent notation is refused: ``"1e99999999"`` would build
    10^99999999 before any check could run.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact arithmetic; pass a Fraction, int or 'p/q' string")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"{value!r}: exponent notation is not allowed; write an integer, 'p/q' or a decimal")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None


def rat_to_str(q: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _echelon(a: list[list[int]]) -> tuple[list[int], int]:
    """Bring integer rows to fraction-free row echelon form, in place.

    Pivot columns are taken left to right, swapping rows as needed, so a
    column is a pivot exactly when it is independent of the columns left of
    it.  Returns the pivot columns and the sign of the row swaps.  With
    pivots p_0..p_{r-1} taken, a[i][j] (i >= r, j > p_{r-1}) is the minor of
    the swapped rows 0..r-1, i on columns p_0..p_{r-1}, j (Sylvester's
    identity), so every division by the previous pivot is exact.
    """
    m = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        ar = a[r]
        if not ar[c]:
            for i in range(r + 1, m):
                if a[i][c]:
                    a[r], a[i] = a[i], ar
                    ar = a[r]
                    sign = -sign
                    break
            else:
                continue
        p = ar[c]
        for i in range(r + 1, m):
            ai = a[i]
            f = ai[c]
            for j in range(c + 1, ncols):
                ai[j] = (p * ai[j] - f * ar[j]) // prev
            ai[c] = 0
        prev = p
        pivots.append(c)
    return pivots, sign


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix: the signed last pivot of its echelon form."""
    a = [list(r) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionError("non-square matrix")
    pivots, sign = _echelon(a)
    if len(pivots) < n:
        return 0
    return sign * a[-1][-1] if n else 1


def hyperplane(rows: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Cofactors (c0..ck) of k integer rows of length k+1, by one elimination.

    Stacking any y on top of the rows gives a square matrix whose
    determinant is sum(c[j] * y[j]), so c[j] = (-1)^j det(rows without
    column j).  For rows (1, p_i) this is the hyperplane
    c0 + sum(c[j+1] * x[j]) = 0 through the points p_i.  Returns None when
    the rows are linearly dependent (every cofactor vanishes).

    Full rank leaves one free column f in the echelon form, and its last
    pivot is det(rows without column f) times the swap sign, which gives
    c[f].  The cofactor vector spans the kernel of the rows, hence of the
    echelon rows, so back substitution from the last pivot row up gives
    c[p_i] = -sum_{j > p_i} a[i][j] c[j] / a[i][p_i]; each division is
    exact because the cofactors are integers.
    """
    a = [list(row) for row in rows]
    k = len(a)
    pivots, sign = _echelon(a)
    if len(pivots) < k:
        return None
    free = next((j for j, p in enumerate(pivots) if p != j), k)
    c = [0] * (k + 1)
    c[free] = (-sign if free % 2 else sign) * (a[-1][pivots[-1]] if k else 1)
    for ai, p in zip(reversed(a), reversed(pivots)):
        c[p] = -sum(ai[j] * c[j] for j in range(p + 1, k + 1)) // ai[p]
    return tuple(c)


def cone_rays(rows: Sequence[Sequence[int]]) -> Optional[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """A basis among m >= n integer rows of length n, and the extreme rays
    of its simplicial cone {h : row . h >= 0 for every basis row}, by one
    elimination.

    The basis is the leftmost n independent rows, the pivot columns of the
    rows' transpose; for rows (1, p) it is an affine basis of the points.
    Ray i vanishes on every basis row but the i-th and is positive there:
    column i of adj(B), for B the matrix of the basis rows, times the sign
    of det B, made primitive.  Returns (basis, rays), or None when the rows
    have rank below n.

    The echelon pass on the n x (m + n) matrix [R^T | I] gives [E | M] with
    E = M R^T.  Its pivot columns in E are the basis, and there they form
    U = M B^T, upper triangular, whose last pivot is D = +-det B.  Then
    X = D (B^T)^-1 solves U X = D M, and back substitution from the last
    row up divides exactly, because X = +-adj(B)^T is an integer matrix.
    Row i of X is ray i.
    """
    n = len(rows[0]) if rows else 0
    m = len(rows)
    a = [[*column, *(int(i == j) for j in range(n))] for i, column in enumerate(zip(*rows))]
    pivots, _ = _echelon(a)
    if pivots and pivots[-1] >= m:  # [R^T | I] has rank n, so a pivot past R means rank R < n
        return None
    d = a[-1][pivots[-1]] if n else 1
    x = [None] * n
    for i in range(n - 1, -1, -1):
        ai = a[i]
        row = [d * c for c in ai[m:]]
        for j in range(i + 1, n):
            f = ai[pivots[j]]
            if f:
                row = [y - f * z for y, z in zip(row, x[j])]
        x[i] = [y // ai[pivots[i]] for y in row]
    rays = []
    for row in x:
        g = math.gcd(*row)
        if d < 0:
            g = -g
        rays.append(tuple(c // g for c in row))
    return tuple(pivots), rays


def clear_denominators(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Scale each row by the lcm of its denominators; return (int rows, product of the scales)."""
    out = []
    scale = 1
    for r in rows:
        l = math.lcm(*(x.denominator for x in r))
        out.append([x.numerator * (l // x.denominator) for x in r])
        scale *= l
    return out, scale


def _square_rows(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Rows as Fractions, raising DimensionError unless they form a square matrix."""
    out = [[rat(x) for x in r] for r in rows]
    if any(len(r) != len(out) for r in out):
        raise DimensionError(f"determinant of {len(out)} rows of lengths {sorted({len(r) for r in out})}")
    return out


def determinant(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix given as rows (fraction-free core)."""
    int_rows, scale = clear_denominators(_square_rows(rows))
    return Fraction(int_det(int_rows), scale)


def det_sign_rows(rows: Sequence[Sequence]) -> int:
    """Sign (-1/0/1) of the determinant of a square matrix given as rows."""
    d = determinant(rows)
    return (d > 0) - (d < 0)


def int_row_space_pivots(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[int, ...]]:
    """Rank and leftmost pivot columns of integer rows, from their echelon form.

    Projection of the row space onto the pivot columns is injective, which is
    what the hull code relies on for exact coordinate reduction.
    """
    pivots, _ = _echelon([list(r) for r in rows])
    return len(pivots), tuple(pivots)


def affine_rank(points) -> int:
    """Dimension of the affine hull of a nonempty set of rational points.

    Accepts any iterable of coordinate rows (a PointSet's rows included).
    """
    pts = [list(map(rat, p)) for p in getattr(points, "points", points)]
    if not pts:
        raise ValueError("affine_rank of an empty point set")
    base = pts[0]
    diffs = [[x - b for x, b in zip(p, base)] for p in pts[1:]]
    if not diffs:
        return 0
    int_rows, _ = clear_denominators(diffs)
    rank, _ = int_row_space_pivots(int_rows)
    return rank
