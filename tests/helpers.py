"""Test-only builders and oracles: zonotope vertex candidates, random delta
specs, the transcribed sign exponent of the minimal Delta term, Delta's
Leibniz polynomial and its K x K Fraction matrix, the Vandermonde product,
a recursive cofactor determinant and a plain Fraction elimination that
share no code with the exact kernel's elimination, the Fraction lifted
curve (``curve_parameter``, ``moment_curve_point``) that checks
``construction._curve_rows``, the one program builder of that curve, the
full Fraction witness matrix that checks the integer sweep, the exhaustive
facet scan that checks the hull, and the Fraction Minkowski sums that check
the direct oracle's integer ones."""

import itertools
import math
import operator
from collections import defaultdict
from fractions import Fraction
from typing import Optional, Sequence

from polysum.cayley import cayley_prefix
from polysum.construction import EPSILON, ConstructionParams
from polysum.detasym import DeltaSpec, _monomials
from polysum.exact import _square_rows, determinant, hyperplane, rat
from polysum.hull import PointSet


def zonotope_points(generators) -> PointSet:
    """All subset sums of the generator segments [0, g]; contains every vertex."""
    gens = [[Fraction(x) for x in g] for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    d = len(gens[0])
    rows = []
    for picks in itertools.product((0, 1), repeat=len(gens)):
        rows.append([sum(e * g[c] for e, g in zip(picks, gens)) for c in range(d)])
    return PointSet.from_rows(rows, ambient_dim=d)


def sigma_closed_form(spec: DeltaSpec) -> int:
    """Transcribed sign-exponent of the minimal term (optional cross-check)."""
    n = spec.n
    total = 0
    for i in range(1, n):
        k_i = spec.kappa[i - 1]
        total += sum(range(1, k_i + 1))
        total += 1 + (n + 2 - i) + sum(2 * (n + 1 - i) + j for j in range(1, k_i - 1))
    return total


def leibniz_polynomial(spec: DeltaSpec) -> dict[int, Fraction]:
    """Independent oracle for ``delta_polynomial``: the signed determinant as
    {tau-exponent: coefficient}, summed over every permutation of the Fraction
    table of ``_monomials`` (so it never clears a denominator)."""
    table = _monomials(spec)
    poly = defaultdict(Fraction)
    for perm in itertools.permutations(range(spec.K)):
        entries = [table[r][c] for r, c in enumerate(perm)]
        if not all(coef for coef, _ in entries):
            continue
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = math.prod(coef for coef, _ in entries)
        poly[sum(e for _, e in entries)] += -term if (inversions + spec.sign_exponent) % 2 else term
    return {e: c for e, c in poly.items() if c}


def build_delta(spec: DeltaSpec, tau: Fraction) -> list[list[Fraction]]:
    """The K x K matrix of the block determinant at a concrete tau > 0, as rows."""
    tau = rat(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    return [[coef * tau**exp if exp else coef for coef, exp in row] for row in _monomials(spec)]


def vandermonde(x: Sequence[Fraction]) -> Fraction:
    """prod_{i<j} (x_j - x_i); equals the determinant of the power matrix."""
    xs = [rat(v) for v in x]
    out = Fraction(1)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out *= xs[j] - xs[i]
    return out


def random_delta_spec(rng, max_total: int = 10) -> DeltaSpec:
    """Random spec with n in {2,3}, kappa_i in {2,3,4}, K <= max_total."""
    while True:
        n = rng.choice([2, 3])
        kappa = tuple(rng.choice([2, 3, 4]) for _ in range(n))
        if sum(kappa) <= max_total:
            break
    exps = sorted(rng.sample(range(0, 6), n), reverse=True)
    if rng.random() < 0.5:
        exps[-1] = 0
    xs = []
    for k in kappa:
        vals = [Fraction(rng.randint(1, 4), 2)]
        for _ in range(k - 1):
            vals.append(vals[-1] + Fraction(rng.randint(1, 4), 2))
        xs.append(tuple(vals))
    return DeltaSpec(kappa=kappa, beta=tuple(exps), x=tuple(xs))


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


def fraction_elimination(rows):
    """Independent kernel oracle: Gaussian elimination over Fraction.

    Returns (rank, leftmost pivot columns, determinant); the determinant is
    None unless the rows form a square matrix.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    det = Fraction(1)
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            det = -det
        det *= a[r][c]
        for i in range(r + 1, len(a)):
            if a[i][c]:
                f = a[i][c] / a[r][c]
                a[i][c:] = [x - f * y for x, y in zip(a[i][c:], a[r][c:])]
        pivots.append(c)
    if any(len(row) != len(a) for row in a):
        det = None
    elif len(pivots) < len(a):
        det = Fraction(0)
    return len(pivots), tuple(pivots), det


def curve_parameter(params: ConstructionParams, part: int, j: int, shifted: bool = False) -> Fraction:
    """t value of the j-th point on part ``part`` (0-based), optionally eps-shifted."""
    if params.tau is None:
        raise ValueError("tau not set")
    a = params.alpha[part][j]
    if shifted:
        a = a + EPSILON
    return a * params.tau ** params.nu[part]


def moment_curve_point(part: int, t: Fraction, params: ConstructionParams) -> tuple[Fraction, ...]:
    """Point of the part-th embedded moment curve at parameter t (> 0).

    Coordinate ``part`` carries t, coordinates r+1..d carry t^2..t^{d-r+1},
    and the other first-r slots carry zeta*t^{d-r+2}..zeta*t^d from left to
    right (zeta = ``params.zeta``), so they vanish on the unlifted curve
    (zeta = 0).
    """
    d, r = params.d, params.r
    if not 1 <= part <= r:
        raise ValueError(f"part {part} outside 1..{r}")
    t = rat(t)
    if t <= 0:
        raise ValueError("curve parameter must be positive")
    coords = [Fraction(0)] * d
    coords[part - 1] = t
    for m in range(1, d - r + 1):
        coords[r - 1 + m] = t ** (m + 1)
    z = rat(params.zeta)
    exponent = d - r + 2
    for j in range(1, r + 1):
        if j == part:
            continue
        coords[j - 1] = z * t**exponent
        exponent += 1
    return tuple(coords)


def lifted_curve_point(part: int, t: Fraction, params: ConstructionParams) -> tuple[Fraction, ...]:
    """Cayley embedding of the curve point: affine prefix + curve coordinates."""
    return cayley_prefix(part - 1, params.r) + moment_curve_point(part, t, params)


def _columns(
    params: ConstructionParams, points: Sequence[int], tail: int
) -> list[tuple[Fraction, ...]]:
    """Witness columns (1, lifted curve point): the vertex and then the
    epsilon-companion of each family point in ``points`` (indices into the
    family, part by part), then the first ``tail`` tail anchors."""
    where = [(i, j) for i, ni in enumerate(params.n) for j in range(ni)]
    cols = [
        (Fraction(1),) + lifted_curve_point(i + 1, curve_parameter(params, i, j, shifted), params)
        for i, j in map(where.__getitem__, points)
        for shifted in (False, True)
    ]
    cols += [
        (Fraction(1),) + lifted_curve_point(params.r, lam * params.m_tail, params)
        for lam in range(1, tail + 1)
    ]
    return cols


def _witness_columns(
    subset: Sequence[int],
    x: Sequence[Fraction],
    params: ConstructionParams,
) -> tuple[list[tuple[Fraction, ...]], int]:
    """Columns of the witness determinant and its global sign."""
    d, r = params.d, params.r
    part_of = [i for i, ni in enumerate(params.n) for _ in range(ni)]
    if any(a >= b for a, b in zip(subset, subset[1:])):
        raise ValueError(f"witness subset {tuple(subset)} is not strictly increasing")
    if any(not 0 <= p < len(part_of) for p in subset):
        raise ValueError(f"witness subset {tuple(subset)} has an index outside 0..{len(part_of) - 1}")
    if len({part_of[p] for p in subset}) != r:
        raise ValueError(f"witness subset {tuple(subset)} misses a part")
    k = len(subset)
    if not r <= k <= params.k_max:
        raise ValueError(f"witness size {k} outside {r}..{params.k_max}")
    if len(x) != d + r - 1:
        raise ValueError("evaluation point must live in the lifted space")
    cols = [(Fraction(1),) + tuple(rat(v) for v in x)]
    cols += _columns(params, subset, d + r - 1 - 2 * k)
    sign = (-1) ** (r * (r - 1) // 2)
    return cols, sign


def witness_determinant(
    subset: Sequence[int],
    x: Sequence[Fraction],
    params: ConstructionParams,
) -> Fraction:
    """Signed (d+r)x(d+r) determinant vanishing exactly on the subset's hyperplane.

    ``subset`` is a spanning subset as ``spanning_subsets`` yields it.
    Positive on every family vertex outside the subset once the scale (and,
    for ``params.zeta`` > 0, the lift) is below its certified threshold.
    """
    cols, sign = _witness_columns(subset, x, params)
    return sign * determinant(list(zip(*cols)))


def canonical_key(coeffs) -> tuple[int, ...]:
    """The integer functional made primitive, its first nonzero entry positive."""
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


def facets_exhaustive(pts, k: int) -> list[frozenset]:
    """Independent oracle for the gift-wrap: scan every k-subset of the
    full-rank integer points for a supporting hyperplane."""
    seen = set()
    facets = []
    for subset in itertools.combinations(range(len(pts)), k):
        coeffs = hyperplane([(1, *pts[i]) for i in subset])
        if coeffs is None:
            continue
        key = canonical_key(coeffs)
        if key in seen:
            continue
        seen.add(key)
        on = _side_scan(key, pts)
        if on is not None:
            facets.append(on)
    return facets


def fraction_sums(pps) -> list[tuple[Fraction, ...]]:
    """Every sum of one point per part as Fractions, first copies kept, in
    the order ``minksum_direct_lattice`` indexes them."""
    picks = itertools.product(*(part.points for part in pps.parts))
    return list(dict.fromkeys(tuple(map(sum, zip(*pick))) for pick in picks))


def spanning_counts_by_parts(lattice, pps) -> tuple[int, ...]:
    """Spanning face counts the slow way (test oracle): each face's vertex
    tuple mapped to the set of its points' parts, which must hold all r."""
    part_of = [i for i, part in enumerate(pps.parts) for _ in part.points]
    return tuple(sum(len({part_of[i] for i in face}) == pps.r for face in level) for level in lattice.levels[:-1])
