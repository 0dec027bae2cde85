"""Tests for the exact arithmetic kernel."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysum.detasym import laplace_expand
from polysum.exact import (
    DimensionError,
    affine_rank,
    clear_denominators,
    cone_rays,
    det_sign_rows,
    determinant,
    hyperplane,
    int_det,
    int_row_space_pivots,
    rat,
    rat_to_str,
)

from helpers import determinant_cofactor, fraction_elimination


def test_rat_parsing_and_serialization():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat(5) == Fraction(5)
    assert rat("0.25") == Fraction(1, 4)
    assert rat_to_str(Fraction(3, 4)) == "3/4"
    assert rat_to_str(Fraction(-8, 2)) == "-4"
    assert rat_to_str(Fraction(0)) == "0"


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(ValueError):
        rat("1/0")
    # exponent notation too: Fraction would build 10^99999999 first
    for text in ("1e99999999", "2E3", "-1.5e-7"):
        with pytest.raises(ValueError, match="exponent notation"):
            rat(text)


def test_rational_arithmetic_is_exact_and_canonical():
    a, b = Fraction(1, 3), Fraction(1, 6)
    s = a + b
    assert s == Fraction(1, 2)
    assert s.denominator == 2 and s.numerator == 1
    assert Fraction(2, -4).denominator == 2  # denominator kept positive


def test_determinant_known_values():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[int(i == j) for j in range(5)] for i in range(5)]) == 1
    assert determinant([]) == 1
    # 3x3 Vandermonde at (1,2,3): (2-1)(3-1)(3-2) = 2
    vdm = [[1, 1, 1], [1, 2, 3], [1, 4, 9]]
    assert determinant(vdm) == 2
    assert determinant([["1/2", 0], [0, "2/3"]]) == Fraction(1, 3)


def test_determinant_rejects_non_square():
    for det in (determinant, determinant_cofactor):
        for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1], [2, 3]]):
            with pytest.raises(DimensionError):
                det(rows)
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            laplace_expand(rows, [0])


def test_determinant_rational_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    expected = Fraction(1, 2) * Fraction(1, 7) - Fraction(1, 3) * Fraction(1, 5)
    assert determinant(rows) == expected
    assert det_sign_rows(rows) == (expected > 0) - (expected < 0)


def test_hyperplane_is_the_first_row_expansion():
    rng = random.Random(73)
    for _ in range(100):
        k = rng.randint(1, 5)
        rows = [tuple(rng.randint(-6, 6) for _ in range(k + 1)) for _ in range(k)]
        y = [rng.randint(-6, 6) for _ in range(k + 1)]
        coeffs = hyperplane(rows)
        expected = int_det([y, *rows])
        assert sum(c * v for c, v in zip(coeffs or (0,) * (k + 1), y)) == expected
    assert hyperplane([(1, 2, 3), (2, 4, 6)]) is None
    # the line through (0,0) and (1,1): x1 - x0 = 0
    assert hyperplane([(1, 0, 0), (1, 1, 1)]) == (0, -1, 1)


def _hyperplane_cofactor(rows):
    """Oracle: the k+1 cofactors as separate Fraction determinants of the k x k minors."""
    coeffs = []
    for j in range(len(rows) + 1):
        _, _, d = fraction_elimination([row[:j] + row[j + 1 :] for row in rows])
        coeffs.append(int(d) if j % 2 == 0 else -int(d))
    if not any(coeffs):
        return None
    return tuple(coeffs)


def _hyperplane_case(rng, k):
    """k random rows of length k+1, sometimes degenerate in the ways the callers see."""
    bits = rng.choice((2, 4, 20, 70, 130))  # 70 and 130: entries above 2**64
    rows = [[rng.randint(-(2**bits), 2**bits) for _ in range(k + 1)] for _ in range(k)]
    if rng.random() < 0.4:  # the (1, p) rows of the hull
        for row in rows:
            row[0] = 1
    for _ in range(rng.choice((0, 0, 1, 2))):  # all-zero columns
        j = rng.randrange(k + 1)
        for row in rows:
            row[j] = 0
    if k >= 2 and rng.random() < 0.3:  # one row a combination of the others
        m = rng.randrange(k)
        others = rows[:m] + rows[m + 1 :]
        coefs = [rng.randint(-3, 3) for _ in others]
        rows[m] = [sum(c * row[j] for c, row in zip(coefs, others)) for j in range(k + 1)]
    if rng.random() < 0.05:
        rows[rng.randrange(k)] = [0] * (k + 1)
    return [tuple(row) for row in rows]


def test_hyperplane_matches_cofactor_oracle():
    rng = random.Random(74)
    dependent = 0
    for n in range(2400):
        k = 1 + n % 8
        rows = _hyperplane_case(rng, k)
        expected = _hyperplane_cofactor(rows)
        assert hyperplane(rows) == expected, rows
        dependent += expected is None
    assert 300 < dependent < 2000  # both outcomes are well covered


def _matrix_case(rng, m, n):
    """m random integer rows of length n, degenerate in the ways the kernels see."""
    bits = rng.choice((1, 3, 20, 70, 130))  # 70 and 130: entries above 2**64
    rows = [[rng.randint(-(2**bits), 2**bits) for _ in range(n)] for _ in range(m)]
    if m and n and rng.random() < 0.3:  # a zero leading entry: the pivot search must swap
        rows[0][0] = 0
        if rng.random() < 0.5:  # ... past more than one row
            for row in rows[1 : m // 2 + 1]:
                row[0] = 0
    for _ in range(rng.choice((0, 0, 1, 2))):  # zero columns
        if n:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
    for _ in range(rng.choice((0, 0, 1))):  # zero rows
        if m:
            rows[rng.randrange(m)] = [0] * n
    if m >= 2 and rng.random() < 0.3:  # one row a combination of the others
        i = rng.randrange(m)
        others = rows[:i] + rows[i + 1 :]
        coefs = [rng.randint(-3, 3) for _ in others]
        rows[i] = [sum(c * row[j] for c, row in zip(coefs, others)) for j in range(n)]
    if n >= 2 and rng.random() < 0.2:  # one column a combination of those left of it
        j = rng.randrange(1, n)
        coefs = [rng.randint(-3, 3) for _ in range(j)]
        for row in rows:
            row[j] = sum(c * row[i] for i, c in enumerate(coefs))
    return rows


def _adjugate_rays(rows):
    """The cone's rays from cofactors (test oracle): ray i is column i of
    adj(B), (-1)^(i+j) det(B without row i and column j) for j = 0..n-1,
    times the sign of det B and made primitive; None when det B = 0."""
    det = determinant_cofactor(rows)
    if not det:
        return None
    rays = []
    for i in range(len(rows)):
        rest = rows[:i] + rows[i + 1 :]
        column = [int((-1) ** (i + j) * determinant_cofactor([r[:j] + r[j + 1 :] for r in rest])) for j in range(len(rows))]
        g = math.gcd(*column) if det > 0 else -math.gcd(*column)
        rays.append(tuple(c // g for c in column))
    return rays


def test_cone_rays_match_the_adjugate():
    """The basis is the leftmost independent rows, the pivot columns of the
    rows' transpose, and each ray of its simplicial cone vanishes on every
    basis row but one, is positive there and is primitive: the adjugate's
    column from cofactor determinants.  Spare rows sit before, between and
    after the basis rows; rows of rank below their length give None.  The
    larger matrices are sparser, so that the oracle's expansion stays small."""
    rng = random.Random(1968)
    extra_rng = random.Random(1970)  # spare rows lie in the span, so the rank is the core's
    singular = swapped = 0
    checked = [0] * 10
    spare = {"before": 0, "between": 0, "after": 0}
    for n in range(1, 10):
        density = {6: 0.7, 7: 0.55, 8: 0.45, 9: 0.35}.get(n, 0.9)
        for _ in range({7: 20, 8: 12, 9: 12}.get(n, 40)):
            bits = rng.choice((2, 20, 70, 130))  # 70 and 130: entries above 2**64
            rows = [[rng.randint(-(2**bits), 2**bits) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
            for row, j in zip(rows, rng.sample(range(n), n)):  # a nonzero Leibniz term, mostly
                row[j] = row[j] or rng.choice((-1, 1)) * rng.randint(1, 2**bits)
            if n >= 2 and rng.random() < 0.4:  # zero leading entries: the pivot search must swap
                for row in rows[: rng.randint(1, n - 1)]:
                    row[0] = 0
            if rng.random() < 0.25:  # one row a combination of the others
                i = rng.randrange(n)
                coefs = [rng.randint(-3, 3) * (j != i) for j in range(n)]
                rows[i] = [sum(c * row[j] for c, row in zip(coefs, rows)) for j in range(n)]
            for _ in range(extra_rng.randint(0, 3)):
                at = extra_rng.randint(0, len(rows))
                kind = extra_rng.randrange(4)
                if kind == 0:  # a zero row is spare, even at the front
                    at, extra = 0, [0] * n
                elif kind == 1 and at:  # a multiple of an earlier row is spare
                    c, row = extra_rng.choice((-3, -1, 2)), extra_rng.choice(rows[:at])
                    extra = [c * x for x in row]
                elif kind == 2 and at < len(rows):  # a multiple of a later row takes its place
                    c, row = extra_rng.choice((-2, 1, 3)), extra_rng.choice(rows[at:])
                    extra = [c * x for x in row]
                else:  # a combination of the rows, at the end: spare
                    at = len(rows)
                    coefs = [extra_rng.randint(-3, 3) for _ in rows]
                    extra = [sum(c * row[j] for c, row in zip(coefs, rows)) for j in range(n)]
                rows.insert(at, extra)
            rank, pivots = int_row_space_pivots(list(zip(*rows)))
            expected = (pivots, _adjugate_rays([rows[b] for b in pivots])) if rank == n else None
            got = cone_rays(rows)
            assert got == expected, rows
            singular += got is None
            if got is None:
                continue
            basis, rays = got
            swapped += rows[basis[0]][0] == 0
            checked[n] += 1
            spare["before"] += basis[0] > 0
            spare["between"] += basis[-1] - basis[0] >= n
            spare["after"] += basis[-1] < len(rows) - 1
            for i, h in enumerate(rays):
                values = [sum(map(operator.mul, rows[b], h)) for b in basis]
                assert values[i] > 0 and not any(values[:i] + values[i + 1 :])
    assert min(checked[1:]) >= 5 and singular > 60 and swapped > 40
    assert min(spare.values()) > 40, spare
    assert cone_rays([[1, 2], [2, 4], [3, 6]]) is None and cone_rays([[0, 0, 0]] * 4) is None


def test_int_row_space_pivots_matches_fraction_elimination():
    rng = random.Random(75)
    shapes = {"tall": 0, "wide": 0, "square": 0}
    deficient = 0
    for _ in range(1500):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = _matrix_case(rng, m, n)
        rank, pivots, _ = fraction_elimination(rows)
        assert int_row_space_pivots(rows) == (rank, pivots), rows
        assert int_row_space_pivots([tuple(row) for row in rows]) == (rank, pivots)
        shapes["tall" if m > n else "wide" if m < n else "square"] += 1
        deficient += rank < min(m, n)
    assert min(shapes.values()) > 100 and 300 < deficient < 1200
    assert int_row_space_pivots([]) == (0, ())
    assert int_row_space_pivots([[0, 0], [0, 0]]) == (0, ())
    # the leftmost independent columns, whatever the row order
    assert int_row_space_pivots([[0, 0, 1, 1], [0, 2, 0, 5], [0, 4, 1, 11]]) == (2, (1, 2))


def test_int_det_matches_fraction_elimination():
    rng = random.Random(76)
    singular = 0
    for _ in range(1500):
        n = rng.randint(0, 9)
        rows = _matrix_case(rng, n, n)
        _, _, det = fraction_elimination(rows)
        assert int_det(rows) == det, rows
        singular += det == 0
    assert 300 < singular < 1200
    with pytest.raises(DimensionError):
        int_det([[1, 2, 3], [4, 5, 6]])


def test_clear_denominators_matches_the_fraction_form():
    def fraction_form(rows):
        out, scale = [], 1
        for r in rows:
            l = 1
            for x in r:
                l = l * x.denominator // math.gcd(l, x.denominator)
            out.append([int(x * l) for x in r])
            scale *= l
        return out, scale

    rng = random.Random(73)
    for _ in range(300):
        big = 2 ** rng.choice([3, 40, 100])
        rows = [
            [Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(rng.randint(0, 6))]
            for _ in range(rng.randint(0, 5))
        ]
        got = clear_denominators(rows)
        assert got == fraction_form(rows)
        assert all(type(x) is int for row in got[0] for x in row)


def test_bareiss_agrees_with_cofactor_oracle():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == determinant_cofactor(m)


def test_bareiss_agrees_with_cofactor_on_rationals():
    rng = random.Random(72)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = [
            [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]
        assert determinant(m) == determinant_cofactor(m)


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_determinant_alternating_and_scaling(n, seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    d = determinant(rows)
    # two equal rows
    dup = [r[:] for r in rows]
    dup[0] = dup[-1][:]
    assert determinant(dup) == 0
    # row swap flips the sign
    swapped = [r[:] for r in rows]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert determinant(swapped) == -d
    # scaling one row by s multiplies the determinant by s
    s = Fraction(rng.randint(1, 7), rng.randint(1, 7))
    scaled = [r[:] for r in rows]
    scaled[0] = [s * x for x in scaled[0]]
    assert determinant(scaled) == s * d


def test_int_det_large_entries_exact():
    # force values well beyond float precision
    big = 10**25
    rows = [[big, big + 1], [big - 1, big]]
    assert int_det(rows) == big * big - (big + 1) * (big - 1)


def test_affine_rank_basics():
    assert affine_rank([[3, 4, 5]]) == 0
    assert affine_rank([[0, 0, 0], [1, 1, 1], [2, 2, 2]]) == 1
    square = [[0, 0], [1, 0], [0, 1], [1, 1]]
    assert affine_rank(square) == 2
    simplex = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert affine_rank(simplex) == 3


def _random_unimodular(rng, d):
    # product of elementary integer shears and permutations: determinant +-1
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.randint(-2, 2)
        for k in range(d):
            m[i][k] += c * m[j][k]
    return m


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_affine_rank_invariance(seed):
    rng = random.Random(seed)
    d = rng.randint(2, 4)
    pts = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(rng.randint(1, 6))]
    r = affine_rank(pts)
    shift = [rng.randint(-9, 9) for _ in range(d)]
    translated = [[x + s for x, s in zip(p, shift)] for p in pts]
    assert affine_rank(translated) == r
    u = _random_unimodular(rng, d)
    mapped = [[sum(u[i][k] * p[k] for k in range(d)) for i in range(d)] for p in pts]
    assert affine_rank(mapped) == r


def test_affine_rank_empty_errors():
    with pytest.raises(ValueError):
        affine_rank([])
