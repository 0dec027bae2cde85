"""Block-determinant asymptotics: the scaled family Delta(tau) and its sign.

Delta is a K x K determinant built from n blocks of columns: an indicator
row and a linear row per block, then shared power rows; block i is scaled
by tau^{beta_i}.  As tau -> 0+ the determinant is dominated by a single
product of generalized Vandermonde determinants with a known exponent, so
it is strictly positive for all small tau.  This module evaluates the
family exactly, finds a certified positivity threshold by halving, computes
the predicted leading term, and cross-checks everything against brute-force
expansions that know nothing about the block structure.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .exact import ExactMatrix, determinant, rat, rat_to_str

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

    def partial_sums(self) -> tuple[int, ...]:
        """K_0 = 0, K_i = kappa_1 + ... + kappa_i."""
        out = [0]
        for k in self.kappa:
            out.append(out[-1] + k)
        return tuple(out)

    def block_of_column(self, col: int) -> int:
        ps = self.partial_sums()
        for i in range(self.n):
            if ps[i] <= col < ps[i + 1]:
                return i
        raise IndexError(col)


def vandermonde(x: Sequence[Fraction]) -> Fraction:
    """prod_{i<j} (x_j - x_i); equals the determinant of the power matrix."""
    xs = [rat(v) for v in x]
    out = Fraction(1)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out *= xs[j] - xs[i]
    return out


def gvd(x: Sequence[Fraction], mu: Sequence[int]) -> Fraction:
    """Generalized Vandermonde determinant det[x_j^{mu_i}]."""
    xs = [rat(v) for v in x]
    if len(xs) != len(mu):
        raise ValueError("x and mu must have the same length")
    if any(m < 0 for m in mu) or any(a >= b for a, b in zip(mu, mu[1:])):
        raise ValueError("exponents must be strictly increasing and nonnegative")
    rows = [[v**m for v in xs] for m in mu]
    return determinant(ExactMatrix.from_rows(rows))


@dataclass(frozen=True)
class LaplaceTerm:
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    sign: int
    minor: Fraction
    complement_minor: Fraction

    @property
    def value(self) -> Fraction:
        return self.sign * self.minor * self.complement_minor


def laplace_expand(m: ExactMatrix, column_block: Sequence[int]) -> list[LaplaceTerm]:
    """Expansion of det(m) along a block of columns.

    Sums, over all row subsets of matching size, the signed products of the
    selected minor and its complementary minor; the total recovers det(m).
    """
    if not m.is_square:
        raise ValueError("square matrix required")
    size = m.rows
    cols = tuple(sorted(column_block))
    if not cols or any(c < 0 or c >= size for c in cols) or len(set(cols)) != len(cols):
        raise ValueError("column block must be distinct in-range indices")
    other_cols = [c for c in range(size) if c not in cols]
    terms = []
    for rows in itertools.combinations(range(size), len(cols)):
        other_rows = [r for r in range(size) if r not in rows]
        sub = ExactMatrix.from_rows([[m.at(r, c) for c in cols] for r in rows])
        comp = ExactMatrix.from_rows(
            [[m.at(r, c) for c in other_cols] for r in other_rows]
        )
        sign = -1 if (sum(rows) + sum(cols)) % 2 else 1
        terms.append(
            LaplaceTerm(tuple(rows), cols, sign, determinant(sub), determinant(comp))
        )
    return terms


def _entry(spec: DeltaSpec, row: int, col: int, tau: Fraction) -> Fraction:
    """Matrix entry (row, col) of the block determinant at a concrete tau."""
    coef, exp = _entry_monomial(spec, row, col)
    if coef == 0:
        return Fraction(0)
    return coef * tau**exp


def _entry_monomial(spec: DeltaSpec, row: int, col: int) -> tuple[Fraction, int]:
    """Entry as (coefficient, tau-exponent); zero entries return (0, 0)."""
    n = spec.n
    i = spec.block_of_column(col)
    ps = spec.partial_sums()
    j = col - ps[i]
    if row < n:
        return (Fraction(1), 0) if row == i else (Fraction(0), 0)
    if row < 2 * n:
        if row - n == i:
            return spec.x[i][j], spec.beta[i]
        return (Fraction(0), 0)
    p = row - 2 * n + 2  # power rows carry exponents 2..m
    return spec.x[i][j] ** p, p * spec.beta[i]


def build_delta(spec: DeltaSpec, tau: Fraction) -> ExactMatrix:
    """The K x K matrix of the block determinant at a concrete tau > 0."""
    tau = rat(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    K = spec.K
    rows = [[_entry(spec, r, c, tau) for c in range(K)] for r in range(K)]
    return ExactMatrix.from_rows(rows)


def delta_value(spec: DeltaSpec, tau: Fraction) -> Fraction:
    """Value of the signed block determinant: (-1)^{n(n-1)/2} det."""
    return (-1) ** spec.sign_exponent * determinant(build_delta(spec, tau))


def delta_polynomial(spec: DeltaSpec) -> dict[int, Fraction]:
    """Brute-force expansion of the signed determinant as a polynomial in tau.

    Walks all nonzero permutation products directly (no block structure is
    assumed), so it is an independent oracle for the leading-term analysis.
    Capped at K <= 8.
    """
    K = spec.K
    if K > BRUTE_FORCE_SIZE_CAP:
        raise ValueError(f"brute-force expansion capped at K <= {BRUTE_FORCE_SIZE_CAP}")
    row_entries: list[list[tuple[int, Fraction, int]]] = []
    for r in range(K):
        entries = []
        for c in range(K):
            coef, exp = _entry_monomial(spec, r, c)
            if coef != 0:
                entries.append((c, coef, exp))
        row_entries.append(entries)
    poly: dict[int, Fraction] = defaultdict(Fraction)

    def dfs(row: int, used: int, coef: Fraction, exp: int, parity: int):
        if row == K:
            poly[exp] += -coef if parity else coef
            return
        for c, cf, e in row_entries[row]:
            if used >> c & 1:
                continue
            flips = (used >> (c + 1)).bit_count() & 1
            dfs(row + 1, used | (1 << c), coef * cf, exp + e, parity ^ flips)

    dfs(0, 0, Fraction(1), 0, 0)
    sign = (-1) ** spec.sign_exponent
    return {e: sign * c for e, c in poly.items() if c != 0}


def block_row_choices(spec: DeltaSpec) -> Iterator[tuple[tuple[tuple[int, ...], ...], Fraction]]:
    """Iterated block expansion: every way to assign row sets to the column
    blocks, with the product of the corresponding minors (sign ignored)."""
    K = spec.K
    ps = spec.partial_sums()

    def rec(i: int, remaining: tuple[int, ...], chosen, prod):
        if i == spec.n:
            yield tuple(chosen), prod
            return
        cols = range(ps[i], ps[i + 1])
        for rows in itertools.combinations(remaining, spec.kappa[i]):
            sub = ExactMatrix.from_rows(
                [[_entry(spec, r, c, Fraction(1)) for c in cols] for r in rows]
            )
            minor = determinant(sub)
            rest = tuple(r for r in remaining if r not in rows)
            yield from rec(i + 1, rest, chosen + [rows], prod * minor)

    yield from rec(0, tuple(range(K)), [], Fraction(1))


@dataclass(frozen=True)
class LeadingTerm:
    """Predicted lowest-degree term of the signed determinant in tau."""

    rho: tuple[tuple[int, ...], ...]
    alpha_offsets: tuple[tuple[int, ...], ...]
    theta: int
    coefficient: Fraction


def leading_term(spec: DeltaSpec) -> LeadingTerm:
    """Minimal tau-exponent row assignment and its (positive) coefficient."""
    n = spec.n
    ps = spec.partial_sums()
    rho = []
    alpha = []
    for i in range(1, n + 1):
        tail = tuple(
            2 * (n - i) + ps[i - 1] + 2 + t for t in range(1, spec.kappa[i - 1] - 1)
        )
        rho.append((i, n + i) + tail)
        alpha.append((i, n + i - 1) + (2 * n - 1,) * (spec.kappa[i - 1] - 2))
    flat = sorted(itertools.chain.from_iterable(rho))
    if flat != list(range(1, spec.K + 1)):
        raise AssertionError(f"row cover broken: {rho}")
    theta = sum(
        spec.beta[i] * (sum(rho[i]) - sum(alpha[i])) for i in range(n)
    )
    coeff = Fraction(1)
    for i in range(n):
        mu = tuple(r - a for r, a in zip(rho[i], alpha[i]))
        coeff *= gvd(spec.x[i], mu)
    return LeadingTerm(tuple(rho), tuple(alpha), theta, coeff)


def sigma_closed_form(spec: DeltaSpec) -> int:
    """Transcribed sign-exponent of the minimal term (optional cross-check)."""
    n = spec.n
    total = 0
    for i in range(1, n):
        k_i = spec.kappa[i - 1]
        total += sum(range(1, k_i + 1))
        total += 1 + (n + 2 - i) + sum(2 * (n + 1 - i) + j for j in range(1, k_i - 1))
    return total


@dataclass
class PositivityReport:
    tau0: Fraction
    halvings: int
    theta: int
    coefficient: Fraction
    ratio_points: list[tuple[Fraction, Fraction]]
    deviation_decreasing: bool
    certified: bool

    def to_dict(self) -> dict:
        return {
            "tau0": rat_to_str(self.tau0),
            "halvings": self.halvings,
            "theta": self.theta,
            "coefficient": rat_to_str(self.coefficient),
            "ratio_points": [
                {"tau": rat_to_str(t), "deviation": rat_to_str(d)}
                for t, d in self.ratio_points
            ],
            "deviation_decreasing": self.deviation_decreasing,
            "certified": self.certified,
        }


def certify_positivity(spec: DeltaSpec, max_halvings: int = 64) -> PositivityReport:
    """Find tau0 with Delta(tau0) > 0 and Delta(tau0/2) > 0 by halving from 1,
    then check that Delta(tau)/(coeff * tau^theta) approaches 1 as tau halves."""
    lt = leading_term(spec)
    tau0 = None
    halvings = 0
    for h in range(max_halvings + 1):
        t = Fraction(1, 2**h)
        if delta_value(spec, t) > 0 and delta_value(spec, t / 2) > 0:
            tau0, halvings = t, h
            break
    if tau0 is None:
        raise RuntimeError(f"no positivity threshold found in {max_halvings} halvings")

    def deviation(t: Fraction) -> Fraction:
        return abs(delta_value(spec, t) / (lt.coefficient * t**lt.theta) - 1)

    t_probe = tau0 / 2
    d1, d2 = deviation(t_probe), deviation(t_probe / 2)
    budget = max_halvings
    while budget and not (d2 < d1 or (d1 == 0 and d2 == 0)):
        t_probe /= 2
        d1, d2 = deviation(t_probe), deviation(t_probe / 2)
        budget -= 1
    decreasing = d2 < d1 or (d1 == 0 and d2 == 0)
    return PositivityReport(
        tau0=tau0,
        halvings=halvings,
        theta=lt.theta,
        coefficient=lt.coefficient,
        ratio_points=[(t_probe, d1), (t_probe / 2, d2)],
        deviation_decreasing=decreasing,
        certified=decreasing,
    )


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
