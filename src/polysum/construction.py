"""Tight lower-bound families for Minkowski sums and their certification.

The construction places points on r copies of a (d-r+1)-dimensional moment
curve, each copy embedded in its own coordinate flat of R^d and rescaled by
tau^{nu_i}; a single lift parameter zeta then bends every copy into a
d-dimensional moment-like curve.  For small enough tau and zeta, every
spanning subset of size k (r <= k <= floor((d+r-1)/2)) of the lifted vertex
set spans a face of the Cayley polytope, which forces the Minkowski sum to
attain the trivial upper bound phi(k) in that range.

"Small enough" is certified constructively: a geometric halving search
drives tau (then zeta) down until every witness determinant - one per
(spanning subset, outside vertex) pair - is strictly positive.  All
determinants are exact rationals; there is no tolerance anywhere.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .bounds import phi
from .cayley import (
    CayleyConfig,
    PartitionedPointSet,
    cayley_lattice,
    minksum_direct,
    spanning_face_counts,
    sum_f_vector,
)
from .exact import det_rows, det_sign_rows, rat, rat_to_str
from .hull import PointSet, convex_hull, is_face, neighborliness


class SearchExhausted(RuntimeError):
    """Halving search ran out of budget (admissible parameters always terminate)."""

    def __init__(self, what: str, halvings: int):
        super().__init__(f"{what}: no certificate after {halvings} halvings")
        self.what = what
        self.halvings = halvings


@dataclass(frozen=True)
class ConstructionParams:
    """All knobs of the lower-bound family.

    alpha[i][j] are the per-part curve parameters (increasing, positive);
    nu[i] the per-part scale exponents (strictly decreasing to 0); epsilon
    the companion-point offset; m_tail anchors the trailing columns of the
    witness determinants; tau and zeta are the certified scale and lift
    parameters once the searches have run.
    """

    d: int
    r: int
    n: tuple[int, ...]
    alpha: tuple[tuple[Fraction, ...], ...]
    nu: tuple[int, ...]
    epsilon: Fraction
    m_tail: Fraction
    tau: Optional[Fraction] = None
    zeta: Optional[Fraction] = None

    def __post_init__(self):
        if self.d < 3:
            raise ValueError("need d >= 3")
        if not 2 <= self.r <= self.d - 1:
            raise ValueError("need 2 <= r <= d-1")
        if len(self.n) != self.r or any(ni < 1 for ni in self.n):
            raise ValueError("need one positive vertex count per part")
        if len(self.alpha) != self.r or any(
            len(a) != ni for a, ni in zip(self.alpha, self.n)
        ):
            raise ValueError("alpha must provide n_i values for part i")
        for a in self.alpha:
            if a[0] <= 0 or any(x >= y for x, y in zip(a, a[1:])):
                raise ValueError("alpha values must be positive and increasing")
            if any(x + self.epsilon >= y for x, y in zip(a, a[1:])):
                raise ValueError("epsilon must fit strictly between consecutive alphas")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if len(self.nu) != self.r or self.nu[-1] != 0:
            raise ValueError("nu must end at 0")
        if any(int(v) != v or v < 0 for v in self.nu):
            raise ValueError("nu must be nonnegative integers")
        if any(a <= b for a, b in zip(self.nu, self.nu[1:])):
            raise ValueError("nu must be strictly decreasing")
        if self.m_tail <= self.alpha[-1][-1] + self.epsilon:
            raise ValueError("tail anchor must exceed the largest shifted alpha")
        if self.tau is not None and self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.zeta is not None and self.zeta < 0:
            raise ValueError("zeta must be nonnegative")

    @classmethod
    def defaults(cls, d: int, r: int, n: Sequence[int]) -> "ConstructionParams":
        """Simplest admissible parameters: alpha_{i,j} = j, nu_i = r - i."""
        n = tuple(int(x) for x in n)
        alpha = tuple(tuple(Fraction(j) for j in range(1, ni + 1)) for ni in n)
        nu = tuple(r - i for i in range(1, r + 1))
        return cls(
            d=d,
            r=r,
            n=n,
            alpha=alpha,
            nu=nu,
            epsilon=Fraction(1, 4),
            m_tail=Fraction(n[-1] + 1),
        )

    @property
    def k_max(self) -> int:
        return (self.d + self.r - 1) // 2

    def curve_parameter(self, part: int, j: int, shifted: bool = False) -> Fraction:
        """t value of the j-th point on part ``part`` (0-based), optionally eps-shifted."""
        if self.tau is None:
            raise ValueError("tau not set")
        a = self.alpha[part][j]
        if shifted:
            a = a + self.epsilon
        return a * self.tau ** self.nu[part]


def moment_curve_point(
    part: int, t: Fraction, params: ConstructionParams, zeta: Optional[Fraction] = None
) -> tuple[Fraction, ...]:
    """Point of the part-th embedded moment curve at parameter t (> 0).

    Unperturbed (zeta None): coordinate ``part`` carries t, coordinates
    r+1..d carry t^2..t^{d-r+1}, the remaining first-r coordinates vanish.
    With zeta, the vanished slots carry zeta*t^{d-r+2}..zeta*t^d from left
    to right.
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
    if zeta is not None:
        z = rat(zeta)
        exponent = d - r + 2
        for j in range(1, r + 1):
            if j == part:
                continue
            coords[j - 1] = z * t**exponent
            exponent += 1
    return tuple(coords)


def lifted_curve_point(
    part: int, t: Fraction, params: ConstructionParams, zeta: Optional[Fraction] = None
) -> tuple[Fraction, ...]:
    """Cayley embedding of the curve point: affine prefix + curve coordinates."""
    cfg = CayleyConfig(params.r)
    return cfg.basis_vector(part - 1) + moment_curve_point(part, t, params, zeta)


def generate_family(params: ConstructionParams, lifted: bool = False) -> PartitionedPointSet:
    """The r summand vertex sets at the current tau (and zeta when lifted)."""
    if params.tau is None:
        raise ValueError("tau not set")
    zeta = None
    if lifted:
        if params.zeta is None:
            raise ValueError("zeta not set; run the lift search first")
        zeta = params.zeta
    parts = []
    for i in range(1, params.r + 1):
        rows = []
        labels = []
        for j in range(params.n[i - 1]):
            t = params.curve_parameter(i - 1, j)
            rows.append(moment_curve_point(i, t, params, zeta))
            labels.append(f"v{j + 1}")
        parts.append(PointSet.from_rows(rows, labels=labels, ambient_dim=params.d))
    return PartitionedPointSet(tuple(parts))


@dataclass(frozen=True)
class WitnessSubset:
    """A spanning subset given by sorted 0-based point indices per part."""

    per_part: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if any(len(p) == 0 for p in self.per_part):
            raise ValueError("witness subsets must meet every part")
        for p in self.per_part:
            if any(a >= b for a, b in zip(p, p[1:])):
                raise ValueError("per-part indices must be sorted strictly")

    @property
    def size(self) -> int:
        return sum(len(p) for p in self.per_part)

    def contains(self, part: int, j: int) -> bool:
        return j in self.per_part[part]


def spanning_subsets(sizes: Sequence[int], k: int) -> Iterator[WitnessSubset]:
    """All spanning subsets of total size k of parts with the given sizes."""
    r = len(sizes)

    def compositions(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
        if len(caps) == 1:
            if 1 <= total <= caps[0]:
                yield (total,)
            return
        head = caps[0]
        rest = caps[1:]
        lo = max(1, total - sum(rest))
        hi = min(head, total - len(rest))
        for c in range(lo, hi + 1):
            for tail in compositions(total - c, rest):
                yield (c,) + tail

    for comp in compositions(k, list(sizes)):
        pools = [itertools.combinations(range(sizes[i]), comp[i]) for i in range(r)]
        for chosen in itertools.product(*pools):
            yield WitnessSubset(tuple(tuple(c) for c in chosen))


def _witness_columns(
    subset: WitnessSubset,
    x: Sequence[Fraction],
    params: ConstructionParams,
    zeta: Optional[Fraction],
) -> tuple[list[tuple[Fraction, ...]], int]:
    """Columns of the witness determinant and its global sign exponent."""
    d, r = params.d, params.r
    k = subset.size
    if not r <= k <= params.k_max:
        raise ValueError(f"witness size {k} outside {r}..{params.k_max}")
    if len(x) != d + r - 1:
        raise ValueError("evaluation point must live in the lifted space")
    cols: list[tuple[Fraction, ...]] = [(Fraction(1),) + tuple(rat(v) for v in x)]
    for i in range(1, r + 1):
        for j in subset.per_part[i - 1]:
            t = params.curve_parameter(i - 1, j)
            te = params.curve_parameter(i - 1, j, shifted=True)
            cols.append((Fraction(1),) + lifted_curve_point(i, t, params, zeta))
            cols.append((Fraction(1),) + lifted_curve_point(i, te, params, zeta))
    for lam in range(1, d + r - 1 - 2 * k + 1):
        cols.append(
            (Fraction(1),) + lifted_curve_point(r, lam * params.m_tail, params, zeta)
        )
    sign = (-1) ** (r * (r - 1) // 2)
    return cols, sign


def witness_determinant(
    subset: WitnessSubset,
    x: Sequence[Fraction],
    params: ConstructionParams,
    zeta: Optional[Fraction] = None,
) -> Fraction:
    """Signed (d+r)x(d+r) determinant vanishing exactly on the subset's hyperplane.

    Positive on every family vertex outside the subset once the scale (and,
    for the lifted variant, the lift) is below its certified threshold.
    """
    cols, sign = _witness_columns(subset, x, params, zeta)
    rows = list(zip(*cols))
    return sign * det_rows(rows)


def _witness_sign(subset, x, params, zeta) -> int:
    cols, sign = _witness_columns(subset, x, params, zeta)
    return sign * det_sign_rows(list(zip(*cols)))


def expected_check_count(params: ConstructionParams) -> int:
    """Number of witness determinants a full certification sweep evaluates."""
    total_pts = sum(params.n)
    return sum(
        (total_pts - k) * phi(k, params.n) for k in range(params.r, params.k_max + 1)
    )


def _sweep_all_positive(params: ConstructionParams, zeta: Optional[Fraction]) -> tuple[bool, int]:
    """Evaluate every (subset, outside vertex) witness sign; early exit on failure."""
    r = params.r
    checked = 0
    for k in range(r, params.k_max + 1):
        for subset in spanning_subsets(params.n, k):
            for i in range(1, r + 1):
                for j in range(params.n[i - 1]):
                    if subset.contains(i - 1, j):
                        continue
                    t = params.curve_parameter(i - 1, j)
                    x = lifted_curve_point(i, t, params, zeta)
                    checked += 1
                    if _witness_sign(subset, x, params, zeta) <= 0:
                        return False, checked
    return True, checked


@dataclass(frozen=True)
class SearchCertificate:
    value: Fraction
    halvings: int
    determinants_checked: int
    expected_checks: int


def find_tau_star(params: ConstructionParams, max_halvings: int = 64) -> SearchCertificate:
    """First tau in 1, 1/2, 1/4, ... making every flat witness determinant positive."""
    expected = expected_check_count(params)
    for h in range(max_halvings + 1):
        candidate = dataclasses.replace(params, tau=Fraction(1, 2**h))
        ok, checked = _sweep_all_positive(candidate, zeta=None)
        if ok:
            assert checked == expected
            return SearchCertificate(candidate.tau, h, checked, expected)
    raise SearchExhausted("tau search", max_halvings)


def find_zeta_diamond(params: ConstructionParams, max_halvings: int = 64) -> SearchCertificate:
    """First zeta in 1, 1/2, ... making every lifted witness determinant positive.

    Requires tau to be set (certified) already.
    """
    if params.tau is None:
        raise ValueError("tau must be certified before searching for zeta")
    expected = expected_check_count(params)
    for h in range(max_halvings + 1):
        z = Fraction(1, 2**h)
        ok, checked = _sweep_all_positive(params, zeta=z)
        if ok:
            assert checked == expected
            return SearchCertificate(z, h, checked, expected)
    raise SearchExhausted("zeta search", max_halvings)


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
    if params.zeta is None or params.zeta <= 0:
        raise ValueError("neighborliness check needs zeta > 0")
    family = generate_family(params, lifted=True)
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


@dataclass
class TightnessReport:
    d: int
    r: int
    n: tuple[int, ...]
    tau_star: Fraction
    zeta_diamond: Fraction
    tau_certificate: SearchCertificate
    zeta_certificate: SearchCertificate
    f_via_cayley: tuple[int, ...]
    f_direct: tuple[int, ...]
    checks: list[dict]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "r": self.r,
            "n": list(self.n),
            "tau_star": rat_to_str(self.tau_star),
            "zeta_diamond": rat_to_str(self.zeta_diamond),
            "tau_certificate": {
                "halvings": self.tau_certificate.halvings,
                "determinants_checked": self.tau_certificate.determinants_checked,
                "expected_checks": self.tau_certificate.expected_checks,
            },
            "zeta_certificate": {
                "halvings": self.zeta_certificate.halvings,
                "determinants_checked": self.zeta_certificate.determinants_checked,
                "expected_checks": self.zeta_certificate.expected_checks,
            },
            "f_via_cayley": list(self.f_via_cayley),
            "f_direct": list(self.f_direct),
            "checks": self.checks,
            "passed": self.passed,
        }


def verify_tightness(
    d: int, r: int, n: Sequence[int], max_halvings: int = 64
) -> TightnessReport:
    """Full pipeline: certify tau and zeta, build the family, compare both
    Minkowski oracles, and assert f_k = phi(k+r) on the tight range."""
    params = ConstructionParams.defaults(d, r, n)
    tau_cert = find_tau_star(params, max_halvings)
    params = dataclasses.replace(params, tau=tau_cert.value)
    zeta_cert = find_zeta_diamond(params, max_halvings)
    params = dataclasses.replace(params, zeta=zeta_cert.value)

    family = generate_family(params, lifted=True)
    lifted_lat = cayley_lattice(family)
    g = spanning_face_counts(lifted_lat, family)
    f_cayley = sum_f_vector(g, lifted_lat.polytope_dim, r)
    f_direct = minksum_direct(family)

    checks: list[dict] = []

    def check(name, expected, actual):
        checks.append(
            {
                "name": name,
                "expected": expected,
                "actual": actual,
                "pass": expected == actual,
            }
        )

    check("oracle_equality", list(f_cayley), list(f_direct))
    # spanning face counts on the lifted hull attain phi in the certified range
    for k in range(r, params.k_max + 1):
        check(f"spanning_faces_dim_{k - 1}", phi(k, params.n), g[k - 1])
    # tight range of the sum's f-vector
    for k in range(0, params.k_max - r + 1):
        expected = phi(k + r, params.n)
        actual = f_cayley[k] if k < len(f_cayley) else None
        check(f"f_{k}_tight", expected, actual)
    # independent hull route: every certified spanning subset is a face
    sizes = params.n
    offsets = [sum(sizes[:i]) for i in range(r)]
    total = found = 0
    for k in range(r, params.k_max + 1):
        for subset in spanning_subsets(sizes, k):
            flat = tuple(
                sorted(offsets[i] + j for i in range(r) for j in subset.per_part[i])
            )
            total += 1
            if is_face(lifted_lat, flat):
                found += 1
            else:
                check(f"subset_is_face_{flat}", True, False)
    check("certified_subsets_are_faces", total, found)
    for pc in verify_neighborly(params):
        check(f"part_{pc.part}_dim", pc.expected_dim, pc.polytope_dim)
        check(f"part_{pc.part}_neighborly", True, pc.neighborly_ok)

    passed = all(c["pass"] for c in checks)
    return TightnessReport(
        d=d,
        r=r,
        n=tuple(int(x) for x in n),
        tau_star=tau_cert.value,
        zeta_diamond=zeta_cert.value,
        tau_certificate=tau_cert,
        zeta_certificate=zeta_cert,
        f_via_cayley=f_cayley,
        f_direct=f_direct,
        checks=checks,
        passed=passed,
    )
