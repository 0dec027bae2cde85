"""Exact rational scalars, matrices, determinants, and affine rank.

Every geometric predicate in this package bottoms out here.  Scalars are
``fractions.Fraction`` (arbitrary precision, always canonical); a matrix is
a plain sequence of rows whose entries are ints, Fractions or "p/q" strings.
Determinants run fraction-free (Bareiss) on integer rows after clearing
denominators, with a plain cofactor expansion kept as an independent
cross-check.  A hyperplane through k integer points (its k+1 cofactors)
comes from one fraction-free Gauss-Jordan pass over the k rows rather than
k+1 separate determinants.  No floating point anywhere.
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
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact arithmetic; pass a Fraction, int or 'p/q' string")
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


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise DimensionError("non-square matrix")
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            ai = a[i]
            ak = a[k]
            f = ai[k]
            for j in range(k + 1, n):
                # exact division: Bareiss guarantees divisibility by the previous pivot
                ai[j] = (pivot * ai[j] - f * ak[j]) // prev
            ai[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def hyperplane(rows: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Cofactors (c0..ck) of k integer rows of length k+1, by one elimination.

    Stacking any y on top of the rows gives a square matrix whose
    determinant is sum(c[j] * y[j]), so c[j] = (-1)^j det(rows without
    column j).  For rows (1, p_i) this is the hyperplane
    c0 + sum(c[j+1] * x[j]) = 0 through the points p_i.  Returns None when
    the rows are linearly dependent (every cofactor vanishes).

    One fraction-free Gauss-Jordan pass (Bareiss 1968) takes pivot columns
    left to right, swapping rows as needed.  Full rank leaves one free
    column f, and the reduced rows read D x_{pivot i} + a[i][f] x_f = 0 with
    D the last pivot, so (D at f, -a[i][f] at the i-th pivot column) spans
    the kernel.  Since D = det(rows without column f) up to the sign of the
    row swaps, multiplying by (-1)^f and that sign gives the cofactors
    exactly.  Each pivot column is dropped once used; the free one, once
    found, stays at the front.
    """
    a = [list(row) for row in rows]
    k = len(a)
    sign = 1
    prev = 1
    free = k
    pos = 0  # where the next pivot column sits: behind the free one, once found
    for r in range(k):
        ar = a[r]
        if not ar[pos]:
            piv = next((i for i in range(r + 1, k) if a[i][pos]), None)
            if piv is None and not pos:
                free, pos = r, 1
                piv = next((i for i in range(r, k) if a[i][pos]), None)
            if piv is None:
                return None
            if piv != r:
                a[r], a[piv] = a[piv], ar
                ar = a[r]
                sign = -sign
        p = ar[pos]
        for i in range(k):
            if i != r:
                ai = a[i]
                m = ai[pos]
                # exact division: every entry is a minor of the input (Sylvester)
                ai = [(p * x - m * y) // prev for x, y in zip(ai, ar)]
                del ai[pos]
                a[i] = ai
        del ar[pos]
        prev = p
    if free % 2:
        sign = -sign
    coeffs = [-sign * row[0] for row in a]
    coeffs.insert(free, sign * prev)
    return tuple(coeffs)


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


def determinant_cofactor(rows: Sequence[Sequence]) -> Fraction:
    """Independent determinant oracle: recursive cofactor expansion."""

    def rec(rows: list[list[Fraction]]) -> Fraction:
        n = len(rows)
        if n == 0:
            return Fraction(1)
        if n == 1:
            return rows[0][0]
        total = Fraction(0)
        for j, head in enumerate(rows[0]):
            if head == 0:
                continue
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = head * rec(minor)
            total += term if j % 2 == 0 else -term
        return total

    return rec(_square_rows(rows))


def int_row_space_pivots(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[int, ...]]:
    """Rank and pivot columns of integer rows via fraction-free elimination.

    Projection of the row space onto the pivot columns is injective, which is
    what the hull code relies on for exact coordinate reduction.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0, ()
    ncols = len(work[0])
    rank = 0
    pivots = []
    for c in range(ncols):
        pivot_row = None
        for i in range(rank, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pr = work[rank]
        for i in range(rank + 1, len(work)):
            wi = work[i]
            if wi[c]:
                a, b = pr[c], wi[c]
                g = math.gcd(a, b)
                fa, fb = a // g, b // g
                work[i] = [fa * x - fb * y for x, y in zip(wi, pr)]
        pivots.append(c)
        rank += 1
        if rank == len(work):
            break
    return rank, tuple(pivots)


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
