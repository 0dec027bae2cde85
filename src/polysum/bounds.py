"""Closed-form face-count bounds for Minkowski sums of convex polytopes.

All outputs are exact integers.  The two-summand bound reads the f-vector of
a cyclic polytope from its h-vector in closed form (McMullen 1970); an exact
hull of moment-curve points gives the same f-vector and is its cross-check
in the tests and in ``bound --kind two``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .hull import PointSet, convex_hull

PHI_BRUTE_FORCE_SIZE_CAP = 100_000  # most ell-subsets C(sum(n), ell) phi_brute_force enumerates
CYCLIC_HULL_FACE_CAP = 100_000  # most faces of C_(d+1)(n1+n2) `bound --kind two` checks by a hull


def binom(a: int, b: int) -> int:
    """Binomial coefficient with C(a, 0) = 1 for every a, else 0 outside 0 <= b <= a."""
    if b == 0:
        return 1
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


@dataclass(frozen=True)
class VertexProfile:
    """Summand vertex counts n_1..n_r in ambient dimension d."""

    n: tuple[int, ...]
    d: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need at least one summand")
        if any(ni < 1 for ni in self.n):
            raise ValueError("every summand needs at least one vertex")
        if self.d < 1:
            raise ValueError("ambient dimension must be positive")

    @property
    def r(self) -> int:
        return len(self.n)


def phi(ell: int, n: tuple[int, ...]) -> int:
    """Number of spanning subsets of size ell of a partitioned set with part sizes n.

    Equals the sum over compositions (s_1..s_r) of ell with 1 <= s_i <= n_i
    of prod C(n_i, s_i); this is the kernel of the trivial upper bound.
    """
    r = len(n)
    if r < 1:
        raise ValueError("need at least one part")
    if any(ni < 1 for ni in n):
        raise ValueError("every summand needs at least one vertex")
    if ell < r:
        raise ValueError(f"phi undefined for ell={ell} < r={r}")
    # coefficient extraction from prod_i sum_{s=1..n_i} C(n_i, s) z^s
    poly = [1]
    for ni in n:
        factor = [0] + [math.comb(ni, s) for s in range(1, ni + 1)]
        out = [0] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            if a:
                for j, b in enumerate(factor):
                    if b:
                        out[i + j] += a * b
        poly = out
    return poly[ell] if ell < len(poly) else 0


def phi_brute_force(ell: int, n: tuple[int, ...]) -> int:
    """Independent oracle: count spanning ell-subsets by explicit enumeration."""
    if binom(sum(n), ell) > PHI_BRUTE_FORCE_SIZE_CAP:
        raise ValueError(f"brute-force enumeration capped at C(sum(n), ell) <= {PHI_BRUTE_FORCE_SIZE_CAP}")
    parts = []
    start = 0
    for ni in n:
        parts.append(range(start, start + ni))
        start += ni
    total = 0
    for subset in itertools.combinations(range(start), ell):
        s = set(subset)
        if all(any(i in s for i in part) for part in parts):
            total += 1
    return total


def trivial_upper_bound(k: int, profile: VertexProfile) -> int:
    """Upper bound on the number of k-faces of a Minkowski sum: phi(k + r)."""
    if k < 0 or k > profile.d - 1:
        raise ValueError(f"face dimension k={k} outside 0..{profile.d - 1}")
    return phi(k + profile.r, profile.n)


def three_polytope_bounds(m1: int, m2: int) -> tuple[int, int, int]:
    """Tight (f0, f1, f2) bounds for the sum of two 3-polytopes with m1, m2 facets."""
    if m1 < 4 or m2 < 4:
        raise ValueError("a 3-polytope has at least 4 facets")
    f0 = 4 * m1 * m2 - 8 * m1 - 8 * m2 + 16
    f1 = 8 * m1 * m2 - 17 * m1 - 17 * m2 + 40
    f2 = 4 * m1 * m2 - 9 * m1 - 9 * m2 + 26
    return f0, f1, f2


@lru_cache(maxsize=None)
def cyclic_fvector_hull(dim: int, n: int) -> tuple[int, ...]:
    """f-vector of the cyclic polytope C_dim(n) from an exact hull of the n
    moment-curve points (t, t^2, ..., t^dim), t = 1..n."""
    if n < dim + 1:
        raise ValueError("cyclic polytope needs at least dim+1 vertices")
    rows = [[t**e for e in range(1, dim + 1)] for t in range(1, n + 1)]
    return convex_hull(PointSet.from_rows(rows)).f_vector


def cyclic_fvector(dim: int, n: int) -> tuple[int, ...]:
    """f-vector of C_dim(n) from its h-vector (McMullen 1970): h_i = C(n-dim-1+i, i)
    for i <= dim/2 and h_i = h_(dim-i), then f_(j-1) = sum_i C(dim-i, j-i) h_i."""
    if n < dim + 1:
        raise ValueError("cyclic polytope needs at least dim+1 vertices")
    h = [binom(n - dim - 1 + min(i, dim - i), min(i, dim - i)) for i in range(dim + 1)]
    return tuple(sum(binom(dim - i, j - i) * h[i] for i in range(j + 1)) for j in range(1, dim + 1))


def two_polytope_bound(k: int, d: int, n1: int, n2: int) -> int:
    """Tight upper bound on f_{k-1}(P1 + P2) for two d-polytopes, 1 <= k <= d."""
    if d < 3:
        raise ValueError("two-polytope bound stated for d >= 3")
    if not 1 <= k <= d:
        raise ValueError(f"k={k} outside 1..{d}")
    if n1 <= d or n2 <= d:
        raise ValueError("each summand needs at least d+1 vertices")
    fk_cyclic = cyclic_fvector(d + 1, n1 + n2)[k]
    correction = 0
    for i in range((d + 1) // 2 + 1):
        correction += binom(d + 1 - i, k + 1 - i) * (
            binom(n1 - d - 2 + i, i) + binom(n2 - d - 2 + i, i)
        )
    return fk_cyclic - correction


def zonotope_bound(l: int, n: int, d: int) -> int:
    """Maximum number of l-faces of a Minkowski sum with n non-parallel edges."""
    if not 0 <= l <= d - 1:
        raise ValueError(f"l={l} outside 0..{d - 1}")
    if n < 1:
        raise ValueError("need at least one edge")
    return 2 * binom(n, l) * sum(binom(n - l - 1, j) for j in range(d - l))


def many_summand_f0_bounds(profile: VertexProfile) -> tuple[int, int]:
    """Vertex-count bounds for r >= d summands: (Sanyal's bound, Weibel's tight bound)."""
    r, d, n = profile.r, profile.d, profile.n
    if not r >= d >= 3:
        raise ValueError("bounds stated for r >= d >= 3")
    prod_all = math.prod(n)
    sanyal = math.floor((1 - Fraction(1, (d + 1) ** d)) * prod_all)
    alpha = 2 * (d - 2 * (d // 2))
    weibel = alpha
    for j in range(1, d):
        sign = (-1) ** (d - 1 - j)
        coeff = binom(r - 1 - j, d - 1 - j)
        if coeff == 0:
            continue
        inner = 0
        for subset in itertools.combinations(range(r), j):
            inner += math.prod(n[i] for i in subset) - alpha
        weibel += sign * coeff * inner
    return sanyal, weibel
