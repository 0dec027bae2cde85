"""Tests for the lower-bound construction and its certificates."""

import dataclasses
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polysum
from polysum.bounds import VertexProfile, cyclic_fvector_hull, phi, trivial_upper_bound
from polysum.cayley import (
    cayley_lattice,
    cayley_prefix,
    minksum_direct,
    minksum_via_cayley,
    spanning_face_counts,
)
from polysum.construction import (
    EPSILON,
    ConstructionParams,
    SearchExhausted,
    _curve_rows,
    _sweep_all_positive,
    certify_family,
    expected_check_count,
    find_tau_star,
    find_zeta_diamond,
    generate_family,
    spanning_subsets,
    verify_neighborly,
    verify_tightness,
)
from polysum.exact import hyperplane
from polysum.hull import convex_hull, is_face

from helpers import (
    _witness_columns,
    curve_parameter,
    lifted_curve_point,
    moment_curve_point,
    witness_determinant,
)


def params_33(tau=None, zeta=Fraction(0)):
    p = ConstructionParams.defaults(3, 2, (3, 3))
    return dataclasses.replace(p, tau=tau, zeta=zeta)


def points_of(params):
    """(part, j) of each family point, 0-based, in index order."""
    return [(i, j) for i, ni in enumerate(params.n) for j in range(ni)]


def test_defaults_satisfy_constraints():
    p = ConstructionParams.defaults(5, 3, (4, 5, 6))
    assert p.nu == (2, 1, 0)
    assert EPSILON == Fraction(1, 4)
    assert p.m_tail == 7
    for a in p.alpha:
        assert all(x + EPSILON < y for x, y in zip(a, a[1:]))
    assert p.m_tail > p.alpha[-1][-1] + EPSILON
    # nu and the tail anchor are derived: for the defaults they are r - i
    # and n_r + 1 at every d <= 7
    rng = random.Random(7)
    for d in range(3, 8):
        for r in range(2, d):
            n = tuple(rng.randint(1, 9) for _ in range(r))
            p = ConstructionParams.defaults(d, r, n)
            assert p.nu == tuple(r - i for i in range(1, r + 1))
            assert p.m_tail == n[-1] + 1


def test_derived_parameters_follow_alpha():
    # the alpha of the construct --alpha CLI test keeps the anchor at n_r + 1
    base = ConstructionParams.defaults(3, 2, (2, 2))
    p = dataclasses.replace(base, alpha=((1, 3), (Fraction(1, 2), Fraction(5, 2))))
    assert (p.nu, p.m_tail) == ((1, 0), 3)
    # a last alpha past n_r moves the anchor beyond it
    p = dataclasses.replace(base, alpha=((1, 5), (1, 5)))
    assert p.m_tail == 6 > p.alpha[-1][-1] + EPSILON
    p = dataclasses.replace(base, alpha=((1, 5), (1, Fraction(23, 4))))
    assert p.m_tail == 7


def test_params_validation():
    with pytest.raises(ValueError):
        ConstructionParams.defaults(3, 3, (3, 3, 3))  # r > d-1
    with pytest.raises(ValueError):
        ConstructionParams.defaults(2, 2, (3, 3))  # d < 3
    good = ConstructionParams.defaults(4, 2, (3, 3))
    with pytest.raises(ValueError, match="more than 1/4 apart"):
        dataclasses.replace(good, alpha=((1, 2, 3), (1, Fraction(5, 4), 3)))
    dataclasses.replace(good, alpha=((1, 2, 3), (1, Fraction(13, 10), 3)))
    with pytest.raises(ValueError):
        dataclasses.replace(good, zeta=Fraction(-1))


def test_moment_curve_point_values():
    p = params_33()
    assert moment_curve_point(1, Fraction(2), p) == (2, 0, 4)
    assert moment_curve_point(2, Fraction(2), dataclasses.replace(p, zeta=Fraction(1))) == (8, 2, 4)
    with pytest.raises(ValueError):
        moment_curve_point(1, Fraction(0), p)
    with pytest.raises(ValueError):
        moment_curve_point(3, Fraction(1), p)


def test_perturbed_reduces_to_unperturbed_at_zero():
    p = ConstructionParams.defaults(6, 3, (3, 3, 3))
    lifted = dataclasses.replace(p, zeta=Fraction(1, 3))
    rng = random.Random(3)
    for _ in range(12):
        i = rng.randint(1, 3)
        t = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        flat = (0,) * (i - 1) + (t,) + (0,) * (3 - i) + (t**2, t**3, t**4)
        assert moment_curve_point(i, t, dataclasses.replace(lifted, zeta=Fraction(0))) == flat
        assert moment_curve_point(i, t, lifted) != flat


def test_perturbed_slot_order():
    # d=6, r=3, part 2: slots 1 and 3 vanish; left-to-right they receive
    # zeta*t^{d-r+2} = zeta*t^5 and zeta*t^6
    p = ConstructionParams.defaults(6, 3, (3, 3, 3))
    t, z = Fraction(2), Fraction(1, 3)
    pt = moment_curve_point(2, t, dataclasses.replace(p, zeta=z))
    assert pt[0] == z * t**5
    assert pt[1] == t
    assert pt[2] == z * t**6
    assert pt[3:] == (t**2, t**3, t**4)


def test_generate_family_regression_pin():
    fam = generate_family(params_33(tau=Fraction(1)))
    part1 = [tuple(map(int, p)) for p in fam.parts[0].points]
    part2 = [tuple(map(int, p)) for p in fam.parts[1].points]
    assert part1 == [(1, 0, 1), (2, 0, 4), (3, 0, 9)]
    assert part2 == [(0, 1, 1), (0, 2, 4), (0, 3, 9)]
    # the Fraction curve oracle gives the same points
    p = params_33(tau=Fraction(1))
    oracle = [moment_curve_point(i, curve_parameter(p, i - 1, j), p) for i in (1, 2) for j in range(3)]
    assert oracle == part1 + part2


def test_unperturbed_parts_live_in_flats():
    p = ConstructionParams.defaults(5, 3, (3, 4, 3))
    fam = generate_family(dataclasses.replace(p, tau=Fraction(1, 2)))
    for i, part in enumerate(fam.parts, start=1):
        for pt in part.points:
            for j in range(1, p.r + 1):
                if j != i:
                    assert pt[j - 1] == 0


def test_unperturbed_parts_are_cyclic_polytopes():
    p = ConstructionParams.defaults(5, 2, (6, 7))
    fam = generate_family(dataclasses.replace(p, tau=Fraction(1, 2)))
    for i, part in enumerate(fam.parts):
        lat = convex_hull(part)
        assert lat.f_vector == cyclic_fvector_hull(p.d - p.r + 1, p.n[i])


def test_spanning_subsets_count_matches_phi():
    for sizes in [(3, 3), (4, 2), (2, 2, 2), (1, 1), (1, 4), (2, 1, 3), (1, 2, 1, 2), (3, 2, 2, 1)]:
        r = len(sizes)
        kmax = sum(sizes)
        part_of = [i for i, ni in enumerate(sizes) for _ in range(ni)]
        for k in range(r, kmax + 1):
            subsets = list(spanning_subsets(sizes, k))
            assert len(subsets) == phi(k, sizes)
            assert len(set(subsets)) == len(subsets)
            for s in subsets:
                assert type(s) is tuple and all(type(p) is int for p in s)
                assert len(s) == k and all(a < b for a, b in zip(s, s[1:]))
                assert 0 <= s[0] and s[-1] < kmax
                assert {part_of[p] for p in s} == set(range(r))
    # the order: compositions lexicographically, then per-part combinations
    pinned = {
        (2, 2): {
            2: [(0, 2), (0, 3), (1, 2), (1, 3)],
            3: [(0, 2, 3), (1, 2, 3), (0, 1, 2), (0, 1, 3)],
            4: [(0, 1, 2, 3)],
        },
        (1, 2, 1): {3: [(0, 1, 3), (0, 2, 3)], 4: [(0, 1, 2, 3)]},
    }
    for sizes, by_k in pinned.items():
        for k in range(len(sizes), sum(sizes) + 1):
            assert list(spanning_subsets(sizes, k)) == by_k[k], (sizes, k)


def test_witness_subset_validation():
    p = params_33(tau=Fraction(1, 2))
    x = [Fraction(0)] * 4
    for subset, problem in [
        ((3, 0), "not strictly increasing"),  # unsorted
        ((0, 3, 3), "not strictly increasing"),  # duplicate
        ((0, 6), "outside 0..5"),
        ((-1, 3), "outside 0..5"),
        ((0, 1), "misses a part"),
        ((3, 4), "misses a part"),
    ]:
        with pytest.raises(ValueError, match=problem):
            witness_determinant(subset, x, p)


def test_witness_size_range_enforced():
    p = params_33(tau=Fraction(1, 2))
    x = [Fraction(0)] * 4
    with pytest.raises(ValueError):
        # k = 3 > k_max = 2 for d=3, r=2
        witness_determinant((0, 1, 3), x, p)


def test_witness_no_tail_columns_when_range_full():
    # d+r-1 = 4 is even and k = k_max = 2: exactly 1 + 2k columns
    p = params_33(tau=Fraction(1, 2))
    cols, _ = _witness_columns((0, 4), [Fraction(0)] * 4, p)
    assert len(cols) == 5 == p.d + p.r


def test_witness_vanishes_on_column_points():
    p = params_33(tau=Fraction(1, 2))
    sub = (1, 3)
    for i in (1, 2):
        for j, shifted in ((1, False), (1, True)) if i == 1 else ((0, False), (0, True)):
            t = curve_parameter(p, i - 1, j, shifted=shifted)
            x = lifted_curve_point(i, t, p)
            assert witness_determinant(sub, x, p) == 0
    # tail column point for a size-2 subset in d=4 (d+r-1=5 odd: one tail column)
    p4 = dataclasses.replace(ConstructionParams.defaults(4, 2, (3, 3)), tau=Fraction(1, 2))
    sub4 = (0, 5)
    tail = lifted_curve_point(2, p4.m_tail, p4)
    assert witness_determinant(sub4, tail, p4) == 0


def test_witness_affine_in_x():
    p = params_33(tau=Fraction(1, 4))
    sub = (0, 5)
    rng = random.Random(11)
    for _ in range(6):
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
        y = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
        xy = [a + b for a, b in zip(x, y)]
        zero = [Fraction(0)] * 4
        lhs = witness_determinant(sub, x, p) + witness_determinant(sub, y, p)
        rhs = witness_determinant(sub, xy, p) + witness_determinant(sub, zero, p)
        assert lhs == rhs


def test_lifted_witness_at_zero_equals_flat():
    p = params_33(tau=Fraction(1, 4))
    lifted = dataclasses.replace(p, zeta=Fraction(1, 64))
    sub = (0, 4)
    rng = random.Random(13)
    moved = 0
    for _ in range(8):
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(4)]
        flat = witness_determinant(sub, x, p)
        assert witness_determinant(sub, x, dataclasses.replace(lifted, zeta=Fraction(0))) == flat
        # the witness reads the lift from the params
        moved += witness_determinant(sub, x, lifted) != flat
    assert moved


def test_expected_check_count_formula():
    p = ConstructionParams.defaults(5, 2, (5, 5))
    total = sum(p.n)
    manual = sum((total - k) * phi(k, p.n) for k in range(2, p.k_max + 1))
    assert expected_check_count(p) == manual == 900


def _delta_spec_for_witness(params, subset, part_u, j_u):
    """Block-determinant spec matching a witness determinant evaluated at the
    family point (part_u, j_u): per-part sorted value blocks, exponents nu."""
    from polysum.detasym import DeltaSpec

    blocks = []
    k = len(subset)
    tail = params.d + params.r - 1 - 2 * k
    where = points_of(params)
    for part in range(params.r):
        vals = []
        for j in (j for i, j in map(where.__getitem__, subset) if i == part):
            vals.append(params.alpha[part][j])
            vals.append(params.alpha[part][j] + EPSILON)
        if part == part_u:
            vals.append(params.alpha[part][j_u])
        if part == params.r - 1:
            vals.extend(lam * params.m_tail for lam in range(1, tail + 1))
        blocks.append(tuple(sorted(vals)))
    return DeltaSpec(
        kappa=tuple(len(b) for b in blocks),
        beta=params.nu,
        x=tuple(blocks),
    )


def test_witness_equals_block_determinant():
    # the witness matrix row-reduces (ones row minus prefix rows) and
    # column-sorts (evenly many swaps) into the scaled block determinant,
    # whose global sign prefactor coincides; the two values must be equal
    from polysum.detasym import delta_value

    cases = [
        (ConstructionParams.defaults(3, 2, (3, 3)), Fraction(1, 2)),
        (ConstructionParams.defaults(4, 2, (4, 3)), Fraction(1, 4)),
        (ConstructionParams.defaults(5, 3, (3, 3, 3)), Fraction(1, 2)),
        (ConstructionParams.defaults(4, 3, (3, 3, 3)), Fraction(1, 8)),
    ]
    rng = random.Random(17)
    for base, tau in cases:
        p = dataclasses.replace(base, tau=tau)
        for k in range(p.r, p.k_max + 1):
            subsets = list(spanning_subsets(p.n, k))
            for subset in rng.sample(subsets, min(3, len(subsets))):
                outside = [ij for q, ij in enumerate(points_of(p)) if q not in subset]
                part_u, j_u = rng.choice(outside)
                t = curve_parameter(p, part_u, j_u)
                x = lifted_curve_point(part_u + 1, t, p)
                h_val = witness_determinant(subset, x, p)
                spec = _delta_spec_for_witness(p, subset, part_u, j_u)
                assert h_val == delta_value(spec, tau), (p.d, p.r, k, subset)


def test_find_tau_star_and_hull_agreement():
    p = params_33()
    cert = find_tau_star(p)
    assert cert.determinants_checked == cert.expected_checks == 36
    p = dataclasses.replace(p, tau=cert.value)
    fam = generate_family(p)
    lat = cayley_lattice(fam)
    g = spanning_face_counts(lat, fam)
    assert g[1] == phi(2, (3, 3)) == 9
    # certificates remain positive at tau*/2
    smaller = dataclasses.replace(p, tau=cert.value / 2)
    ok, checked = _sweep_all_positive(smaller)
    assert ok and checked == 36


def _reference_sweep(params):
    """Fraction oracle for the sweep: one witness_determinant per pair, same order."""
    checked = 0
    for k in range(params.r, params.k_max + 1):
        for subset in spanning_subsets(params.n, k):
            for q, (i, j) in enumerate(points_of(params)):
                if q in subset:
                    continue
                x = lifted_curve_point(i + 1, curve_parameter(params, i, j), params)
                checked += 1
                if witness_determinant(subset, x, params) <= 0:
                    return False, checked
    return True, checked


@pytest.mark.parametrize(
    "d, r, n, alpha_seed",
    [
        (3, 2, (4, 4), None),
        (4, 3, (3, 3, 3), None),
        (5, 2, (5, 5), None),
        (6, 4, (2, 2, 2, 2), None),
        (4, 2, (5, 5), "sweep-oracle"),
    ],
    ids=["3-2-n0", "4-3-n1", "5-2-n2", "6-4-n3", "4-2-random-alpha"],
)
def test_integer_sweep_matches_fraction_oracle(d, r, n, alpha_seed):
    # every halving up to two past the certified one, failing halvings
    # included; r = 4 pins the (-1)^r sign, and random rational alphas give
    # a common t denominator other than 4 * 2^k
    p = ConstructionParams.defaults(d, r, n)
    if alpha_seed is not None:
        rng = random.Random(alpha_seed)
        p = dataclasses.replace(p, alpha=tuple(admissible_alpha(rng, ni) for ni in n))
    tau_cert = find_tau_star(p)
    for h in range(tau_cert.halvings + 3):
        candidate = dataclasses.replace(p, tau=Fraction(1, 2**h))
        assert _sweep_all_positive(candidate) == _reference_sweep(candidate), h
    p = dataclasses.replace(p, tau=tau_cert.value)
    zeta_cert = find_zeta_diamond(p)
    for h in range(zeta_cert.halvings + 3):
        candidate = dataclasses.replace(p, zeta=Fraction(1, 2**h))
        assert _sweep_all_positive(candidate) == _reference_sweep(candidate), h


def test_curve_rows_and_family_are_the_fraction_curve():
    # every row of the one builder is L times the Fraction curve (vertex,
    # companion, then tail anchor) for one positive integer L, and
    # generate_family is the vertex rows over L, labels included; seeded
    # admissible alphas with denominators 3, 7 and 11, r = 2..4, unlifted
    # and at the certified zeta
    rng = random.Random(29)
    for d, r, n in [(4, 2, (3, 4)), (5, 3, (3, 2, 3)), (6, 4, (2, 3, 2, 2))]:
        alpha = []
        for ni in n:
            a = [Fraction(rng.randint(1, 8), rng.choice((3, 7, 11)))]
            while len(a) < ni:
                a.append(a[-1] + EPSILON + Fraction(rng.randint(1, 6), rng.choice((3, 7, 11))))
            alpha.append(tuple(a))
        certified, _, _ = certify_family(ConstructionParams(d=d, r=r, n=n, alpha=tuple(alpha)))
        for p in (dataclasses.replace(certified, zeta=Fraction(0)), certified):
            where = points_of(p)
            curve = [
                moment_curve_point(i + 1, curve_parameter(p, i, j, shifted), p)
                for i, j in where
                for shifted in (False, True)
            ]
            curve += [moment_curve_point(r, lam * p.m_tail, p) for lam in range(1, d - r)]
            rows, scale = _curve_rows(p)
            assert type(scale) is int and scale > 0
            assert all(type(v) is int for row in rows for v in row)
            assert rows == [[scale * v for v in y] for y in curve], (d, r, p.zeta)
            family = generate_family(p)
            for i, part in enumerate(family.parts):
                assert part.ambient_dim == d
                assert part.labels == tuple(f"v{j}" for j in range(1, n[i] + 1))
                assert part.points == tuple(curve[2 * q] for q, (k, _) in enumerate(where) if k == i)


def test_hyperplane_expands_witness_determinant():
    # with every curve point at one integer scale L and each part's rep (the
    # vertex of the subset's first point in it) subtracted from the other
    # fixed columns of that part, h = hyperplane of the d-1 differences
    # gives (-1)^r * (h.y_x - h.y_rep) = witness * L^d for every x on the
    # flat of rep's part (affine 1 and that part's Cayley prefix)
    rng = random.Random(19)
    cases = [
        (ConstructionParams.defaults(5, 2, (5, 5)), Fraction(1, 4), Fraction(0)),
        (ConstructionParams.defaults(5, 2, (5, 5)), Fraction(1, 4), Fraction(1, 8192)),
        (ConstructionParams.defaults(4, 3, (3, 3, 3)), Fraction(1), Fraction(1, 64)),
        (ConstructionParams.defaults(6, 4, (2, 2, 2, 2)), Fraction(1, 2), Fraction(1, 16)),
    ]
    for base, tau, zeta in cases:
        p = dataclasses.replace(base, tau=tau, zeta=zeta)
        where = points_of(p)
        vertex = [moment_curve_point(i + 1, curve_parameter(p, i, j), p) for i, j in where]
        companion = [moment_curve_point(i + 1, curve_parameter(p, i, j, True), p) for i, j in where]
        tails = [moment_curve_point(p.r, lam * p.m_tail, p) for lam in range(1, p.d - p.r)]
        scale = math.lcm(*(v.denominator for y in vertex + companion + tails for v in y))

        def scaled(y):
            return [int(v * scale) for v in y]

        for k in range(p.r, p.k_max + 1):
            subsets = list(spanning_subsets(p.n, k))
            for subset in rng.sample(subsets, min(4, len(subsets))):
                first = {}
                for q in subset:
                    first.setdefault(where[q][0], q)
                rep = {i: scaled(vertex[q]) for i, q in first.items()}
                fixed = [
                    (where[q][0], companion[q] if shifted else vertex[q])
                    for q in subset
                    for shifted in (False, True)
                    if shifted or first[where[q][0]] != q
                ]
                fixed += [(p.r - 1, y) for y in tails[: p.d + p.r - 1 - 2 * k]]
                h = hyperplane([[a - b for a, b in zip(scaled(y), rep[i])] for i, y in fixed])
                for _ in range(3):
                    i = rng.randrange(p.r)
                    y_x = [rng.randint(-9, 9) for _ in range(p.d)]
                    x = cayley_prefix(i, p.r) + tuple(Fraction(v) for v in y_x)
                    value = sum(c * scale * v for c, v in zip(h, y_x)) - sum(map(operator.mul, h, rep[i]))
                    assert (-1) ** p.r * value == witness_determinant(subset, x, p) * scale**p.d


def test_short_sweep_fails_under_python_O(tmp_path):
    # the sweep-completeness check is an explicit raise, which `python -O`
    # keeps (it strips a bare assert)
    script = (
        "import polysum.construction as c\n"
        "p = c.ConstructionParams.defaults(3, 2, (3, 3))\n"
        "expected = c.expected_check_count(p)\n"
        "c._sweep_all_positive = lambda params: (True, expected - 1)\n"
        "try:\n"
        "    c.find_tau_star(p)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(polysum.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "tau sweep checked 35 of 36 witnesses\n"


def test_witness_sign_matches_hull_face_membership():
    p = params_33()
    cert = find_tau_star(p)
    p = dataclasses.replace(p, tau=cert.value)
    fam = generate_family(p)
    lat = cayley_lattice(fam)
    for sub in spanning_subsets(p.n, 2):
        assert is_face(lat, sub)
        for i in (1, 2):
            for j in range(3):
                if 3 * (i - 1) + j in sub:
                    continue
                t = curve_parameter(p, i - 1, j)
                x = lifted_curve_point(i, t, p)
                assert witness_determinant(sub, x, p) > 0


def test_find_zeta_diamond_and_tightness_33():
    p = params_33()
    tcert = find_tau_star(p)
    p = dataclasses.replace(p, tau=tcert.value)
    zcert = find_zeta_diamond(p)
    assert zcert.expected_checks == tcert.expected_checks
    p = dataclasses.replace(p, zeta=zcert.value)
    fam = generate_family(p)
    fv_direct = minksum_direct(fam)
    fv_cayley = minksum_via_cayley(fam)
    assert fv_direct == fv_cayley
    assert fv_direct[0] == phi(2, (3, 3)) == 9


def test_find_zeta_requires_tau():
    with pytest.raises(ValueError):
        find_zeta_diamond(params_33())


def test_search_exhaustion_reported():
    with pytest.raises(SearchExhausted):
        find_tau_star(params_33(), max_halvings=-1)


def test_verify_neighborly_d3():
    p = params_33()
    cert = find_tau_star(p)
    p = dataclasses.replace(p, tau=cert.value)
    zcert = find_zeta_diamond(p)
    p = dataclasses.replace(p, zeta=zcert.value)
    checks = verify_neighborly(p)
    for pc in checks:
        # n_i = 3 <= d: the lifted part is a 2-simplex
        assert pc.polytope_dim == 2 == pc.expected_dim
        assert pc.ok
    # full-dimensional case: n_i = d + 1 = 4
    q = ConstructionParams.defaults(3, 2, (4, 4))
    tc = find_tau_star(q)
    q = dataclasses.replace(q, tau=tc.value)
    zc = find_zeta_diamond(q)
    q = dataclasses.replace(q, zeta=zc.value)
    for pc in verify_neighborly(q):
        assert pc.polytope_dim == 3 == pc.expected_dim
        assert pc.neighborliness >= 1
        assert pc.ok


def test_verify_neighborly_rejects_zero_zeta():
    p = params_33(tau=Fraction(1), zeta=Fraction(0))
    with pytest.raises(ValueError):
        verify_neighborly(p)


def test_verify_tightness_small():
    rep = verify_tightness(3, 2, (3, 3))
    assert rep.passed and rep.to_dict()["passed"] is True
    assert rep.inputs == {"d": 3, "r": 2, "n": [3, 3], "max_halvings": 64}
    assert rep.outputs["f_via_cayley"] == rep.outputs["f_direct"]
    assert rep.outputs["f_via_cayley"][0] == 9
    assert rep.outputs["tau_star"] and rep.outputs["zeta_diamond"]


@pytest.mark.parametrize(
    "d, r",
    [(d, r) for d in range(3, 8) for r in range(2, d) if (d, r) != (7, 6)] + [(8, 2), (8, 3), (8, 4)],
)
def test_verify_tightness_whole_range_n3(d, r):
    # the theorem's whole (d, r) range up to d = 7 but (7, 6), which CI runs;
    # at d = 8 only r <= 4, since (8, 5) alone takes seconds
    n = (3,) * r
    rep = verify_tightness(d, r, n)
    assert rep.passed
    # the Fukuda-Weibel upper bound holds for every k, not only the tight range
    profile = VertexProfile(n, d)
    for k, fk in enumerate(rep.outputs["f_via_cayley"]):
        assert fk <= trivial_upper_bound(k, profile)


def admissible_alpha(rng, ni):
    """A random rational alpha for one part: positive, increasing, gaps above 1/4."""
    a = [Fraction(rng.randint(1, 8), rng.randint(1, 4))]
    for _ in range(ni - 1):
        a.append(a[-1] + Fraction(1, 4) + Fraction(rng.randint(1, 6), rng.randint(1, 12)))
    return tuple(a)


@pytest.mark.parametrize(
    "d, r, n", [(4, 2, (5, 5)), (5, 3, (4, 4, 4)), (4, 3, (3, 3, 3))], ids=["d4r2", "d5r3", "d4r3"]
)
def test_tightness_holds_for_random_admissible_alpha(d, r, n):
    # the theorem holds for every admissible alpha, not only alpha_{i,j} = j
    rng = random.Random(f"{d}-{r}-{n}")
    for _ in range(8):
        alpha = tuple(admissible_alpha(rng, ni) for ni in n)
        params, _, _ = certify_family(ConstructionParams(d=d, r=r, n=n, alpha=alpha))
        family = generate_family(params)
        f = minksum_via_cayley(family)
        assert f == minksum_direct(family), alpha
        for k in range(params.k_max - r + 1):
            assert f[k] == phi(k + r, n), (alpha, k)
        assert all(pc.ok for pc in verify_neighborly(params)), alpha


@pytest.mark.parametrize(
    "d, r, n",
    [
        (3, 2, (1, 1)),
        (4, 2, (1, 1)),
        (4, 3, (1, 1, 1)),
        (5, 2, (1, 1)),
        (5, 2, (1, 2)),
        (5, 3, (1, 1, 1)),
        (5, 4, (1, 1, 1, 1)),
    ],
)
def test_verify_tightness_low_dimensional_lifted_hull(d, r, n):
    # the lifted hull has fewer face dimensions than the certified range asks
    # for: the polytope is its own one top face and has none above it
    rep = verify_tightness(d, r, n)
    assert rep.passed
    actual = {c["name"]: c["actual"] for c in rep.checks}
    top = len(rep.outputs["f_via_cayley"])  # the sum's dimension; the lifted one is top + r - 1
    assert actual[f"f_{top}_tight"] == 1
    assert actual[f"spanning_faces_dim_{top + r - 1}"] == 1


@pytest.mark.parametrize(
    "d, r", [(d, r) for d in range(3, 6) for r in range(2, d) if (d, r) != (5, 4)]
)
def test_verify_tightness_d_polytope_summands(d, r):
    # the theorem's own hypothesis: every summand a d-polytope, here a d-simplex
    n = (d + 1,) * r
    rep = verify_tightness(d, r, n)
    assert rep.passed
    assert len(rep.outputs["f_via_cayley"]) == d
    for k, fk in enumerate(rep.outputs["f_via_cayley"]):
        assert fk <= phi(k + r, n)


def test_verify_tightness_reports_the_upper_bound_past_the_tight_range():
    # tight range f_0, f_1; above it every f_k up to the facets is checked
    # against the Fukuda-Weibel bound, and there a check passes on <=
    rep = verify_tightness(6, 2, (8, 8))
    assert rep.passed
    bound = {c["name"]: c for c in rep.checks if c["name"].endswith("_upper_bound")}
    assert list(bound) == [f"f_{k}_upper_bound" for k in range(2, 6)]
    assert bound["f_2_upper_bound"] == {
        "name": "f_2_upper_bound",
        "expected": 1680,
        "actual": 1352,
        "pass": True,
    }
    for k, check in enumerate(bound.values(), 2):
        assert check["actual"] == rep.outputs["f_via_cayley"][k] <= check["expected"] == phi(k + 2, (8, 8))
