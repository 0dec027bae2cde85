"""Block-determinant asymptotics: the scaled family Delta(tau) and its sign.

Delta is a K x K determinant built from n blocks of columns, block i
holding kappa_i columns with abscissas x_i.  With 0-based rows, the column
of abscissa x in block i has 1 in indicator row i, x * tau^beta_i in linear
row n + i, and x^p * tau^(p * beta_i) in power row 2n + p - 2 for
p = 2..K-2n+1; every other entry is 0.  As tau -> 0+ the determinant is
tau^theta times a single product of generalized Vandermonde determinants
(GVDs), so it is strictly positive for all small tau.  Block i takes
indicator row i, linear row n + i and the next kappa_i - 2 power rows, so
its GVD has exponents mu_i = (0, 1, s_i + 2, ..., s_i + kappa_i - 1), with
s_i = sum_{j<i} (kappa_j - 2) the power rows of the blocks before it, and
theta = sum_i beta_i * sum(mu_i).  This module evaluates the family
exactly, finds the first halving threshold tau0 at which Delta(tau0) and
Delta(tau0/2) are both positive, computes that leading term, and
cross-checks everything against brute-force expansions that know nothing
about the block structure.  That Delta > 0 on all of (0, tau0] is not
proved here (``certify_positivity``).

Delta(tau) is evaluated by block elimination.  With y = x tau^beta_i, in
block i subtract column 0 from the others, expand along indicator row i and
divide column j by y_j - y_0; then subtract column 1 from columns j >= 2,
expand along linear row n + i and divide by y_j - y_1.  Interleaving rows i
and n + i costs (-1)^(n(n-1)/2), which cancels the sign in Delta, so
Delta = prod_i [(y_i1 - y_i0) prod_{j>=2} (y_ij - y_i0)(y_ij - y_i1)] det M,
where M is (K-2n) x (K-2n) with h_(p-2)(y_i0, y_i1, y_ij), h the complete
homogeneous symmetric polynomial, in power row p and column (i, j >= 2).
With L the lcm of all abscissa denominators and X = L x, the prefactor is a
positive integer times tau^theta / L^(sum of 2 kappa_i - 3), and row k = p - 2
of M is h_k(X_i0, X_i1, X_ij) tau^(k beta_i) / L^k.  At tau = p/q row k is
also multiplied by q^top_k, top_k its largest exponent; the entries are then
integers, so one Bareiss determinant per tau gives Delta exactly (an empty M
has determinant 1).  The K <= 8 brute-force polynomial reads the full K x K
table instead, each row cleared by the lcm of its own denominators, and
expands it by minors blind to the blocks, so it checks the elimination
independently.  A GVD det[x_j^mu_i] is int_det[(L x_j)^mu_i] / L^(sum mu), L
the lcm of its own denominators.  The independent Fraction oracle, the
K x K matrix at a concrete tau, lives in the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .exact import SearchExhausted, clear_denominators, determinant, int_det, rat, rat_to_str

BRUTE_FORCE_SIZE_CAP = 8


@dataclass(frozen=True)
class DeltaSpec:
    """Block sizes kappa_i >= 2, scale exponents beta (strictly decreasing,
    nonnegative), and per-block increasing positive abscissas x."""

    kappa: tuple[int, ...]
    beta: tuple[int, ...]
    x: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two blocks")
        if any(k < 2 for k in self.kappa):
            raise ValueError("every block needs at least two columns")
        if len(self.beta) != self.n:
            raise ValueError("one exponent per block")
        if any(b < 0 or int(b) != b for b in self.beta):
            raise ValueError("exponents must be nonnegative integers")
        if any(a <= b for a, b in zip(self.beta, self.beta[1:])):
            raise ValueError("exponents must be strictly decreasing")
        if len(self.x) != self.n or any(
            len(xs) != k for xs, k in zip(self.x, self.kappa)
        ):
            raise ValueError("x must provide kappa_i values for block i")
        for xs in self.x:
            if xs[0] <= 0 or any(a >= b for a, b in zip(xs, xs[1:])):
                raise ValueError("x blocks must be increasing and positive")

    @property
    def n(self) -> int:
        return len(self.kappa)

    @property
    def K(self) -> int:
        return sum(self.kappa)

    @property
    def sign_exponent(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def power_row_count(self) -> int:
        return self.K - 2 * self.n


def gvd(x: Sequence[Fraction], mu: Sequence[int]) -> Fraction:
    """Generalized Vandermonde determinant det[x_j^{mu_i}]."""
    xs = [rat(v) for v in x]
    if len(xs) != len(mu):
        raise ValueError("x and mu must have the same length")
    if any(m < 0 for m in mu) or any(a >= b for a, b in zip(mu, mu[1:])):
        raise ValueError("exponents must be strictly increasing and nonnegative")
    (X,), L = clear_denominators([xs])
    return Fraction(int_det([[c**m for c in X] for m in mu]), L ** sum(mu))


def laplace_expand(m: Sequence[Sequence], column_block: Sequence[int]) -> list[Fraction]:
    """Expansion of det(m) along a block of columns of the square rows m.

    One term per row subset of the block's size: its sign times the selected
    minor times the complementary minor.  The terms sum to det(m).
    """
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("square matrix required")
    cols = tuple(sorted(column_block))
    if not cols or any(c < 0 or c >= size for c in cols) or len(set(cols)) != len(cols):
        raise ValueError("column block must be distinct in-range indices")
    other_cols = [c for c in range(size) if c not in cols]
    terms = []
    for rows in itertools.combinations(range(size), len(cols)):
        other_rows = [r for r in range(size) if r not in rows]
        sub = [[m[r][c] for c in cols] for r in rows]
        comp = [[m[r][c] for c in other_cols] for r in other_rows]
        sign = -1 if (sum(rows) + sum(cols)) % 2 else 1
        terms.append(sign * determinant(sub) * determinant(comp))
    return terms


def _monomials(spec: DeltaSpec) -> list[list[tuple[Fraction, int]]]:
    """The K x K entries of Delta (module docstring) as (coefficient,
    tau-exponent) pairs, built block by block; zero entries are (0, 0)."""
    n = spec.n
    one, zero = (Fraction(1), 0), (Fraction(0), 0)
    table: list[list[tuple[Fraction, int]]] = [[] for _ in range(spec.K)]
    for i, (xs, b) in enumerate(zip(spec.x, spec.beta)):
        for r in range(n):
            table[r] += [one if r == i else zero] * len(xs)
            table[n + r] += [(x, b) if r == i else zero for x in xs]
        for p in range(2, spec.power_row_count + 2):
            table[2 * n + p - 2] += [(x**p, p * b) for x in xs]
    return table


def _evaluator(spec: DeltaSpec) -> Callable[[Fraction], Fraction]:
    """tau -> Delta(tau) by block elimination (module docstring): the integer
    prefactor and M's (coefficient, tau-exponent) rows are built once.  One
    common L clears every block, so L^k factors out of all of power row k."""
    L = math.lcm(*(v.denominator for xs in spec.x for v in xs))
    size = spec.power_row_count
    rows: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    prefactor, theta = 1, 0
    for xs, b in zip(spec.x, spec.beta):
        X0, X1, *rest = (v.numerator * (L // v.denominator) for v in xs)
        prefactor *= X1 - X0
        for c in rest:
            prefactor *= (c - X0) * (c - X1)
            h2 = h3 = power = 1  # h_k(X0, X1), h_k(X0, X1, c) and X0^k
            for k, row in enumerate(rows):
                row.append((h3, k * b))
                power *= X0
                h2 = power + X1 * h2
                h3 = h2 + c * h3
        theta += b * (2 * len(xs) - 3)
    tops = [max(e for _, e in row) for row in rows]
    scale = L ** (2 * spec.K - 3 * spec.n + sum(range(size)))  # prefactor, then row k's L^k
    powers = range(max(tops, default=0) + 1)

    def value(tau: Fraction) -> Fraction:
        tau = rat(tau)
        if tau <= 0:
            raise ValueError("tau must be positive")
        p, q = tau.numerator, tau.denominator
        p_pow, q_pow = [p**e for e in powers], [q**e for e in powers]
        m = [[c * p_pow[e] * q_pow[top - e] for c, e in row] for row, top in zip(rows, tops)]
        return Fraction(prefactor * p**theta * int_det(m), scale * q ** (theta + sum(tops)))

    return value


def delta_value(spec: DeltaSpec, tau: Fraction) -> Fraction:
    """Value of the signed block determinant: (-1)^{n(n-1)/2} det."""
    return _evaluator(spec)(tau)


def delta_polynomial(spec: DeltaSpec) -> dict[int, Fraction]:
    """Brute-force expansion of the signed determinant as a polynomial in tau.

    Clears each row of the ``_monomials`` table to integers, then expands it
    by minors, row by row: each set of used columns keeps its minor's
    polynomial, and a new column's sign is the parity of the used columns
    right of it.  No block structure is assumed, so it is an independent
    oracle for the leading-term analysis; each coefficient is divided by the
    product of the row scales once at the end.  Capped at K <= 8.
    """
    K = spec.K
    if K > BRUTE_FORCE_SIZE_CAP:
        raise ValueError(f"brute-force expansion capped at K <= {BRUTE_FORCE_SIZE_CAP}")
    table = _monomials(spec)
    rows, scale = clear_denominators([[coef for coef, _ in row] for row in table])
    minors: dict[int, dict[int, int]] = {0: {0: 1}}  # used columns -> {exponent: coefficient}
    for row, mono in zip(rows, table):
        entries = [(c, coef, e) for c, (coef, (_, e)) in enumerate(zip(row, mono)) if coef]
        grown: dict[int, dict[int, int]] = {}
        for used, poly in minors.items():
            for c, coef, e in entries:
                if used >> c & 1:
                    continue
                if (used >> (c + 1)).bit_count() & 1:
                    coef = -coef
                target = grown.setdefault(used | 1 << c, defaultdict(int))
                for exp, v in poly.items():
                    target[exp + e] += coef * v
        minors = grown
    sign = (-1) ** spec.sign_exponent
    poly = minors.get((1 << K) - 1, {})
    return {e: Fraction(sign * c, scale) for e, c in poly.items() if c}


@dataclass(frozen=True)
class LeadingTerm:
    """Lowest-degree term coefficient * tau^theta of the signed determinant."""

    theta: int
    coefficient: Fraction


def leading_term(spec: DeltaSpec) -> LeadingTerm:
    """theta = sum_i beta_i * sum(mu_i) and the (positive) coefficient
    prod_i gvd(x_i, mu_i), with mu_i from the block layout (module docstring)."""
    theta, coefficient, s = 0, Fraction(1), 0
    for xs, b in zip(spec.x, spec.beta):
        mu = (0, 1, *range(s + 2, s + len(xs)))
        theta += b * sum(mu)
        coefficient *= gvd(xs, mu)
        s += len(xs) - 2
    return LeadingTerm(theta, coefficient)


@dataclass
class PositivityReport:
    tau0: Fraction
    halvings: int
    theta: int
    coefficient: Fraction
    # the memoized tau -> Delta(tau) the search evaluated; left out of to_dict
    delta: Callable[[Fraction], Fraction] = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "tau0": rat_to_str(self.tau0),
            "halvings": self.halvings,
            "theta": self.theta,
            "coefficient": rat_to_str(self.coefficient),
        }


def certify_positivity(spec: DeltaSpec, max_halvings: int = 64) -> PositivityReport:
    """Find tau0, the first 2^-h with Delta(2^-h) > 0 and Delta(2^-(h+1)) > 0,
    and the leading term's exponent theta and coefficient.

    Two positive values do not prove Delta > 0 on (0, tau0].  The benchmark
    spec ``spec018-K7`` (kappa (4, 3), beta (3, 0), x ((2, 4, 6, 8),
    (3/2, 3, 4))) gets tau0 = 1, yet Delta(13/16) ~ -79.3 and
    Delta(7/8) ~ -339.8.
    """
    lt = leading_term(spec)
    delta = functools.cache(_evaluator(spec))  # each distinct tau is evaluated once
    for h in range(max_halvings + 1):
        t = Fraction(1, 2**h)
        if delta(t) > 0 and delta(t / 2) > 0:
            return PositivityReport(t, h, lt.theta, lt.coefficient, delta)
    raise SearchExhausted("tau0 search", max_halvings)
