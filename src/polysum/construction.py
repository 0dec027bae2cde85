"""Tight lower-bound families for Minkowski sums and their certification.

The construction places points on r copies of a (d-r+1)-dimensional moment
curve, each copy embedded in its own coordinate flat of R^d and rescaled by
tau^{nu_i}; a single lift parameter zeta then bends every copy into a
d-dimensional moment-like curve.  For small enough tau and zeta, every
spanning subset of size k (r <= k <= floor((d+r-1)/2)) of the lifted vertex
set spans a face of the Cayley polytope, which forces the Minkowski sum to
attain the trivial upper bound phi(k) in that range.

The family is fixed by the curve parameters alpha, which are chosen, and by
the thresholds tau and zeta, which are certified; zeta = 0 is the unlifted
family.  Everything else is derived: the scale exponents nu, the companion
offset EPSILON and the tail anchor of the witness determinants.

One function, ``_curve_rows``, knows the lifted curve: the curve parameter
of every vertex, companion and tail anchor, and the coordinate layout.  It
gives integer rows at one positive scale L.  ``generate_family`` divides
the vertex rows by L; the witness sweep reads the same rows as they are.

"Small enough" is certified constructively: a geometric halving search
drives tau (then zeta) down until every witness determinant - one per
(spanning subset, outside vertex) pair - is strictly positive.  The sweep
factors the r Cayley rows out of every witness (see
``_sweep_all_positive``), so a subset costs one (d-1) x d elimination and a
vertex one dot product.  The tests check it against the full witness matrix
built in Fractions.  Everything is exact; there is no tolerance anywhere.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .bounds import phi
from .cayley import (
    PartitionedPointSet,
    cayley_lattice,
    minksum_direct,
    spanning_face_counts,
    sum_f_vector,
)
# SearchExhausted is also importable from here, where the searches raise it
from .exact import SearchExhausted, hyperplane, rat_to_str
from .hull import PointSet, convex_hull, is_face, neighborliness
from .jsonio import RunReport

EPSILON = Fraction(1, 4)  # offset of each vertex's companion point on its curve


@dataclass(frozen=True)
class ConstructionParams:
    """The lower-bound family: chosen alpha, certified tau and zeta.

    alpha[i][j] are the per-part curve parameters, chosen (positive,
    increasing, consecutive values more than EPSILON apart).  tau and zeta
    are the scale and lift thresholds the witness searches certify; tau is
    None until then, and zeta = 0 is the unlifted family.  The scale
    exponents ``nu`` and the tail anchor ``m_tail`` are derived from these.
    """

    d: int
    r: int
    n: tuple[int, ...]
    alpha: tuple[tuple[Fraction, ...], ...]
    tau: Optional[Fraction] = None
    zeta: Fraction = Fraction(0)

    def __post_init__(self):
        if self.d < 3:
            raise ValueError("need d >= 3")
        if not 2 <= self.r <= self.d - 1:
            raise ValueError("need 2 <= r <= d-1")
        if len(self.n) != self.r:
            values = "1 value" if len(self.n) == 1 else f"{len(self.n)} values"
            raise ValueError(f"n has {values}, r = {self.r} needs {self.r}")
        if any(ni < 1 for ni in self.n):
            raise ValueError("need a positive vertex count per part")
        if len(self.alpha) != self.r or any(
            len(a) != ni for a, ni in zip(self.alpha, self.n)
        ):
            raise ValueError("alpha must provide n_i values for part i")
        for a in self.alpha:
            if a[0] <= 0 or any(x >= y for x, y in zip(a, a[1:])):
                raise ValueError("alpha values must be positive and increasing")
            if any(x + EPSILON >= y for x, y in zip(a, a[1:])):
                raise ValueError("consecutive alpha values must be more than 1/4 apart")
        if self.tau is not None and self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.zeta < 0:
            raise ValueError("zeta must be nonnegative")

    @classmethod
    def defaults(cls, d: int, r: int, n: Sequence[int]) -> "ConstructionParams":
        """Simplest admissible parameters: alpha_{i,j} = j."""
        n = tuple(int(x) for x in n)
        alpha = tuple(tuple(Fraction(j) for j in range(1, ni + 1)) for ni in n)
        return cls(d=d, r=r, n=n, alpha=alpha)

    @property
    def nu(self) -> tuple[int, ...]:
        """Per-part scale exponents r-1, ..., 1, 0."""
        return tuple(range(self.r - 1, -1, -1))

    @property
    def m_tail(self) -> Fraction:
        """Anchor of the witness tail columns: the least integer above both
        n_r and the last part's largest shifted alpha (n_r + 1 for the defaults)."""
        return Fraction(max(self.n[-1], math.floor(self.alpha[-1][-1] + EPSILON)) + 1)

    @property
    def k_max(self) -> int:
        return (self.d + self.r - 1) // 2


def _curve_rows(params: ConstructionParams) -> tuple[list[list[int]], int]:
    """The lifted curve's points as integer rows at one positive scale L, and L.

    Rows come in pairs, family point by family point (part 1's first): the
    vertex at t = alpha_{i,j} * tau^{nu_i}, then its companion at
    (alpha_{i,j} + EPSILON) * tau^{nu_i}.  The d-r-1 tail anchors of the
    witnesses follow, at t = lam * m_tail (lam = 1..d-r-1) on part r's
    curve.  A point of 0-based part i at t holds t in slot i,
    t^2..t^{d-r+1} in slots r..d-1, and zeta*t^{d-r+2}..zeta*t^d in the
    other first-r slots from left to right, so those vanish at zeta = 0.

    With q the lcm of the t denominators and zeta = zn/zd, L = zd * q^D,
    where D is the top power of t in use (d, or d-r+1 when zeta = 0).
    t = a/q makes the t^e entry a^e * zd * q^(D-e) and the zeta*t^e entry
    a^e * zn * q^(D-e).
    """
    d, r = params.d, params.r
    if params.tau is None:
        raise ValueError("tau not set")
    tn, td = params.tau.numerator, params.tau.denominator
    en, ed = EPSILON.numerator, EPSILON.denominator
    m = params.m_tail
    # (part, numerator, denominator) of each t, kept in integers: Fraction
    # arithmetic here nearly doubles a sweep that fails at its first witness
    ts = []
    for i, (alphas, nu) in enumerate(zip(params.alpha, params.nu)):
        tn_nu, td_nu = tn**nu, td**nu
        for a in alphas:
            an, ad = a.numerator, a.denominator
            ts += [(i, an * tn_nu, ad * td_nu), (i, (an * ed + en * ad) * tn_nu, ad * ed * td_nu)]
    ts += [(r - 1, lam * m.numerator, m.denominator) for lam in range(1, d - r)]
    zn, zd = params.zeta.numerator, params.zeta.denominator
    top = d if zn else d - r + 1
    q = math.lcm(*(den for _, _, den in ts))
    plain = [zd * q ** (top - e) for e in range(top + 1)]
    lifted = [zn * q ** (top - e) for e in range(top + 1)]
    rows = []
    for part, num, den in ts:
        a = num * (q // den)
        power = [1]
        for _ in range(top):
            power.append(power[-1] * a)
        row = [0] * d
        row[part] = power[1] * plain[1]
        for e in range(2, d - r + 2):
            row[r - 2 + e] = power[e] * plain[e]
        if zn:
            slots = [j for j in range(r) if j != part]
            for j, e in zip(slots, range(d - r + 2, d + 1)):
                row[j] = power[e] * lifted[e]
        rows.append(row)
    return rows, plain[0]  # zd * q^top


def generate_family(params: ConstructionParams) -> PartitionedPointSet:
    """The r summand vertex sets at the current tau and zeta: the vertex
    rows of ``_curve_rows`` divided by its scale, labelled v1, v2, ...
    within each part."""
    rows, scale = _curve_rows(params)
    vertices = iter(rows[: 2 * sum(params.n) : 2])
    parts = []
    for ni in params.n:
        points = [[Fraction(v, scale) for v in next(vertices)] for _ in range(ni)]
        labels = [f"v{j}" for j in range(1, ni + 1)]
        parts.append(PointSet.from_rows(points, labels=labels, ambient_dim=params.d))
    return PartitionedPointSet(tuple(parts))


def spanning_subsets(sizes: Sequence[int], k: int) -> Iterator[tuple[int, ...]]:
    """All spanning subsets of total size k of parts with the given sizes.

    A subset is its points' ascending indices into the family, part by part:
    the Cayley embedding's indices, so each subset names a Cayley face.
    """
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    # compositions of k with 1 <= c_i <= n_i, in lexicographic order
    for comp in itertools.product(*(range(1, s + 1) for s in sizes)):
        if sum(comp) == k:
            pools = [
                itertools.combinations(range(a, a + s), c)
                for a, s, c in zip(starts, sizes, comp)
            ]
            for chosen in itertools.product(*pools):
                yield tuple(itertools.chain.from_iterable(chosen))


def expected_check_count(params: ConstructionParams) -> int:
    """Number of witness determinants a full certification sweep evaluates."""
    total_pts = sum(params.n)
    return sum(
        (total_pts - k) * phi(k, params.n) for k in range(params.r, params.k_max + 1)
    )


def _sweep_all_positive(params: ConstructionParams) -> tuple[bool, int]:
    """Evaluate every (subset, outside vertex) witness sign at the params'
    tau and zeta; early exit on failure.

    A witness column is (1, Cayley prefix, y) with y a curve point, and every
    y is read in integers at one positive scale L (``_curve_rows``).
    Per part j, rep_j is the vertex column of the subset's first point in
    part j.  Subtracting rep_j from every other column of part j (the
    evaluated vertex x included; the tail anchors are part r's) zeroes their
    first r entries, while the reps' first r entries form a unit triangular
    block times L.  Moving the reps to the front has parity r(r+1)/2, since
    a subset lists its parts in order, so with the witness's own sign
    (-1)^(r(r-1)/2) the witness sign is (-1)^r * sign(h.y_x - h.rep), where
    h (``hyperplane``) is the cofactor vector of the d-1 difference columns
    and rep is the rep of x's part.  A subset costs one (d-1) x d
    elimination and r dot products, an outside vertex one.
    """
    d, r = params.d, params.r
    total = sum(params.n)
    rows, _ = _curve_rows(params)
    vertices, tails = rows[: 2 * total : 2], rows[2 * total :]
    part_of = [i for i, ni in enumerate(params.n) for _ in range(ni)]
    checked = 0
    for k in range(r, params.k_max + 1):
        for subset in spanning_subsets(params.n, k):
            first = {}
            for p in subset:
                first.setdefault(part_of[p], p)
            reps = [vertices[p] for p in first.values()]
            diffs = [
                list(map(operator.sub, rows[c], reps[part_of[p]]))
                for p in subset
                for c in (2 * p, 2 * p + 1)
                if c != 2 * first[part_of[p]]
            ]
            diffs += [list(map(operator.sub, y, reps[-1])) for y in tails[: d + r - 1 - 2 * k]]
            # dependent fixed columns make every witness vanish
            h = hyperplane(diffs) or (0,) * d
            if r % 2:  # fold the witness sign (-1)^r into h
                h = [-c for c in h]
            offset = [sum(map(operator.mul, h, y)) for y in reps]
            for p, y in enumerate(vertices):
                if p not in subset:
                    checked += 1
                    if sum(map(operator.mul, h, y)) <= offset[part_of[p]]:
                        return False, checked
    return True, checked


@dataclass(frozen=True)
class SearchCertificate:
    value: Fraction
    halvings: int
    determinants_checked: int
    expected_checks: int

    def counts(self) -> dict:
        """Everything but the value: halvings and witness determinant counts."""
        return {k: v for k, v in dataclasses.asdict(self).items() if k != "value"}


def _halve(params: ConstructionParams, name: str, max_halvings: int) -> SearchCertificate:
    """First value 1, 1/2, 1/4, ... of ``params.<name>`` making every witness positive."""
    expected = expected_check_count(params)
    for h in range(max_halvings + 1):
        value = Fraction(1, 2**h)
        ok, checked = _sweep_all_positive(dataclasses.replace(params, **{name: value}))
        if ok:
            if checked != expected:
                raise AssertionError(f"{name} sweep checked {checked} of {expected} witnesses")
            return SearchCertificate(value, h, checked, expected)
    raise SearchExhausted(f"{name} search", max_halvings)


def find_tau_star(params: ConstructionParams, max_halvings: int = 64) -> SearchCertificate:
    """First tau in 1, 1/2, 1/4, ... making every unlifted witness determinant positive."""
    return _halve(dataclasses.replace(params, zeta=Fraction(0)), "tau", max_halvings)


def find_zeta_diamond(params: ConstructionParams, max_halvings: int = 64) -> SearchCertificate:
    """First zeta in 1, 1/2, ... making every lifted witness determinant positive.

    Requires tau to be set (certified) already.
    """
    if params.tau is None:
        raise ValueError("tau must be certified before searching for zeta")
    return _halve(params, "zeta", max_halvings)


def certify_family(
    params: ConstructionParams, max_halvings: int = 64
) -> tuple[ConstructionParams, SearchCertificate, SearchCertificate]:
    """Certify tau, then zeta at that tau; return the params carrying both."""
    tau_cert = find_tau_star(params, max_halvings)
    params = dataclasses.replace(params, tau=tau_cert.value)
    zeta_cert = find_zeta_diamond(params, max_halvings)
    return dataclasses.replace(params, zeta=zeta_cert.value), tau_cert, zeta_cert


@dataclass(frozen=True)
class PartCheck:
    part: int
    polytope_dim: int
    expected_dim: int
    neighborliness: int
    required: int
    dim_ok: bool
    neighborly_ok: bool

    @property
    def ok(self) -> bool:
        return self.dim_ok and self.neighborly_ok


def verify_neighborly(params: ConstructionParams) -> list[PartCheck]:
    """Hull every lifted summand and check dimension and neighborliness.

    A part with n_i >= d+1 points must be a d-polytope; with fewer points it
    is a simplex on n_i vertices (dimension n_i - 1), which is vacuously
    neighborly.  Every vertex subset of size <= min(floor(d/2), n_i) must be
    a face.
    """
    if params.zeta <= 0:
        raise ValueError("neighborliness check needs zeta > 0")
    family = generate_family(params)
    out = []
    for idx, part in enumerate(family.parts):
        lat = convex_hull(part)
        ni = len(part)
        expected_dim = min(params.d, ni - 1)
        required = min(params.d // 2, ni)
        k = neighborliness(lat)
        out.append(
            PartCheck(
                part=idx + 1,
                polytope_dim=lat.polytope_dim,
                expected_dim=expected_dim,
                neighborliness=k,
                required=required,
                dim_ok=lat.polytope_dim == expected_dim,
                neighborly_ok=k >= min(required, ni - 1),
            )
        )
    return out


def verify_tightness(d: int, r: int, n: Sequence[int], max_halvings: int = 64) -> RunReport:
    """Full pipeline: certify tau and zeta, build the family, compare both
    Minkowski oracles, assert f_k = phi(k+r) on the tight range and
    f_k <= phi(k+r) above it."""
    params, tau_cert, zeta_cert = certify_family(
        ConstructionParams.defaults(d, r, n), max_halvings
    )

    family = generate_family(params)
    lifted_lat = cayley_lattice(family)
    g = spanning_face_counts(lifted_lat, family)
    f_cayley = sum_f_vector(g, lifted_lat.polytope_dim, r)
    f_direct = minksum_direct(family)

    n = [int(x) for x in n]
    report = RunReport(
        "verify-tight",
        {"d": d, "r": r, "n": n, "max_halvings": max_halvings},
        outputs={
            "d": d,
            "r": r,
            "n": n,
            "tau_star": rat_to_str(tau_cert.value),
            "zeta_diamond": rat_to_str(zeta_cert.value),
            "tau_certificate": tau_cert.counts(),
            "zeta_certificate": zeta_cert.counts(),
            "f_via_cayley": list(f_cayley),
            "f_direct": list(f_direct),
        },
    )

    def count(f, k):
        """f_k of a polytope whose proper-face counts are ``f``: a polytope is
        its own one top-dimensional face, and has no faces above it."""
        return f[k] if k < len(f) else int(k == len(f))

    report.check("oracle_equality", list(f_cayley), list(f_direct))
    # spanning face counts on the lifted hull attain phi in the certified range
    # (the lifted polytope meets every part, so it spans)
    for k in range(r, params.k_max + 1):
        report.check(f"spanning_faces_dim_{k - 1}", phi(k, params.n), count(g, k - 1))
    # tight range of the sum's f-vector
    for k in range(0, params.k_max - r + 1):
        report.check(f"f_{k}_tight", phi(k + r, params.n), count(f_cayley, k))
    # past it, up to the facets, the Fukuda-Weibel upper bound f_k <= phi(k+r)
    for k in range(params.k_max - r + 1, d):
        report.check(f"f_{k}_upper_bound", phi(k + r, params.n), count(f_cayley, k), operator.le)
    # independent hull route: every certified spanning subset is a face
    total = found = 0
    for k in range(r, params.k_max + 1):
        for subset in spanning_subsets(params.n, k):
            total += 1
            if is_face(lifted_lat, subset):
                found += 1
            else:
                report.check(f"subset_is_face_{subset}", True, False)
    report.check("certified_subsets_are_faces", total, found)
    for pc in verify_neighborly(params):
        report.check(f"part_{pc.part}_dim", pc.expected_dim, pc.polytope_dim)
        report.check(f"part_{pc.part}_neighborly", True, pc.neighborly_ok)

    return report
