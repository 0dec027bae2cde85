"""Acceptance suite: one test per acceptance criterion, with runtime caps.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``).
Run with ``pytest tests/test_acceptance.py -v``.
"""

import dataclasses
import itertools
import random
import time

from polysum.bounds import cyclic_fvector_hull, phi, two_polytope_bound, zonotope_bound
from polysum.cayley import PartitionedPointSet, minksum_direct, minksum_via_cayley
from polysum.cli import run_command
from polysum.construction import ConstructionParams, generate_family, verify_tightness
from polysum.detasym import (
    certify_positivity,
    delta_polynomial,
    delta_value,
    laplace_expand,
    leading_term,
)
from polysum.exact import determinant, rat
from polysum.hull import convex_hull, is_face

from helpers import random_delta_spec, zonotope_points

TIGHT_INSTANCES = {
    1: dict(d=3, r=2, n=(4, 4), budget=30.0),
    2: dict(d=5, r=2, n=(5, 5), budget=300.0),
    3: dict(d=4, r=3, n=(4, 4, 4), budget=300.0),
}

_reports = {}


def tight_report(num):
    if num not in _reports:
        inst = TIGHT_INSTANCES[num]
        start = time.perf_counter()
        rep = verify_tightness(inst["d"], inst["r"], inst["n"])
        _reports[num] = (rep, time.perf_counter() - start)
    return _reports[num]


def emit(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def test_criterion_1_theorem_instance_d3_r2():
    rep, elapsed = tight_report(1)
    failures = []
    if rep.outputs["f_via_cayley"][0] != 16 or phi(2, (4, 4)) != 16:
        failures.append(f"f0={rep.outputs['f_via_cayley'][:1]} expected 16")
    if rep.outputs["f_via_cayley"] != rep.outputs["f_direct"]:
        failures.append(f"oracle mismatch {rep.outputs['f_via_cayley']} vs {rep.outputs['f_direct']}")
    if not rep.passed:
        failures.append([c for c in rep.checks if not c["pass"]])
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    emit(1, not failures, f"d=3 r=2 n=(4,4): f0=16, oracles agree, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_2_theorem_instance_d5_r2():
    rep, elapsed = tight_report(2)
    failures = []
    if rep.outputs["f_via_cayley"][0] != 25:
        failures.append(f"f0={rep.outputs['f_via_cayley'][0]} expected 25")
    if rep.outputs["f_via_cayley"][1] != 100 or phi(3, (5, 5)) != 100:
        failures.append(f"f1={rep.outputs['f_via_cayley'][1]} expected 100")
    if rep.outputs["f_via_cayley"] != rep.outputs["f_direct"]:
        failures.append("oracle mismatch")
    if not rep.passed:
        failures.append([c for c in rep.checks if not c["pass"]])
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    emit(2, not failures, f"d=5 r=2 n=(5,5): f0=25, f1=100, oracles agree, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_3_theorem_instance_d4_r3():
    rep, elapsed = tight_report(3)
    failures = []
    if rep.outputs["f_via_cayley"][0] != 64 or phi(3, (4, 4, 4)) != 64:
        failures.append(f"f0={rep.outputs['f_via_cayley'][0]} expected 64")
    if rep.outputs["f_via_cayley"] != rep.outputs["f_direct"]:
        failures.append("oracle mismatch")
    if not rep.passed:
        failures.append([c for c in rep.checks if not c["pass"]])
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    emit(3, not failures, f"d=4 r=3 n=(4,4,4): f0=64, oracles agree, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_4_parts_dimension_and_neighborliness():
    # Exhaustive subset check via the hull for every constructed summand.
    # With n_i >= d+1 vertices the summand must be d-dimensional; the chosen
    # instances for criteria 2-3 have n_i <= d, where n_i points can only
    # span an (n_i - 1)-simplex (necessarily neighborly).
    failures = []
    details = []
    for num, inst in TIGHT_INSTANCES.items():
        rep, _ = tight_report(num)
        params = ConstructionParams.defaults(inst["d"], inst["r"], inst["n"])
        tau, zeta = rat(rep.outputs["tau_star"]), rat(rep.outputs["zeta_diamond"])
        params = dataclasses.replace(params, tau=tau, zeta=zeta)
        family = generate_family(params)
        d = inst["d"]
        for idx, part in enumerate(family.parts):
            lat = convex_hull(part)
            ni = len(part)
            expected_dim = min(d, ni - 1)
            if lat.polytope_dim != expected_dim:
                failures.append(
                    f"criterion {num} part {idx}: dim {lat.polytope_dim} != {expected_dim}"
                )
            limit = min(d // 2, ni)
            for size in range(1, limit + 1):
                for sub in itertools.combinations(range(ni), size):
                    if not is_face(lat, sub):
                        failures.append(f"criterion {num} part {idx}: {sub} not a face")
            details.append(f"c{num}.P{idx + 1} dim={lat.polytope_dim}")
    emit(4, not failures, "every summand full-rank and floor(d/2)-neighborly: " + ", ".join(details))
    assert not failures, failures


def test_criterion_5_oracle_equivalence_randomized():
    start = time.perf_counter()
    rng = random.Random(20250810)
    failures = []
    for idx in range(20):
        d = rng.choice([2, 3, 4])
        r = rng.choice([2, 3])
        sizes = [rng.randint(1, 5) for _ in range(r)]
        parts = []
        for ni in sizes:
            pts = {tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(ni)}
            parts.append([list(p) for p in sorted(pts)])
        pps = PartitionedPointSet.from_rows(parts)
        via = minksum_via_cayley(pps)
        direct = minksum_direct(pps)
        if via != direct:
            failures.append(f"instance {idx}: {via} != {direct}")
            continue
        hull_sizes = tuple(
            max(1, len(convex_hull(p).vertex_indices)) for p in pps.parts
        )
        for k, fk in enumerate(via):
            if fk > phi(k + r, hull_sizes):
                failures.append(f"instance {idx}: f_{k}={fk} exceeds phi")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    emit(5, not failures, f"20 random instances, oracles equal, trivial bound holds, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_6_block_determinant_certification():
    start = time.perf_counter()
    rng = random.Random(424242)
    failures = []
    brute_checked = 0
    for idx in range(50):
        spec = random_delta_spec(rng, max_total=10)
        rep = certify_positivity(spec)
        if not (delta_value(spec, rep.tau0) > 0 and delta_value(spec, rep.tau0 / 2) > 0):
            failures.append(f"spec {idx}: Delta not positive at both tau0 and tau0/2")
        if spec.K <= 8:
            poly = delta_polynomial(spec)
            lt = leading_term(spec)
            low = min(poly)
            if low != lt.theta or poly[low] != lt.coefficient:
                failures.append(f"spec {idx}: leading term mismatch")
            brute_checked += 1
    elapsed = time.perf_counter() - start
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s >= 600s")
    emit(
        6,
        not failures,
        f"50 specs certified, {brute_checked} brute-force leading terms match, {elapsed:.1f}s",
    )
    assert not failures, failures


def test_criterion_7_laplace_equals_determinant():
    rng = random.Random(777)
    failures = []
    for idx in range(100):
        size = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        block = sorted(rng.sample(range(size), rng.randint(1, size)))
        total = sum(laplace_expand(m, block))
        if total != determinant(m):
            failures.append(f"matrix {idx}: expansion {total} != det")
    emit(7, not failures, "Laplace expansion equals determinant on 100 random matrices")
    assert not failures, failures


def test_criterion_8_bounds_cross_checks():
    failures = []
    if two_polytope_bound(1, 3, 4, 4) != 16:
        failures.append("two_polytope_bound(k=1) != 16")
    if two_polytope_bound(3, 3, 4, 4) != 18:
        failures.append("two_polytope_bound(k=3) != 18")
    fv = cyclic_fvector_hull(4, 6)
    if fv != (6, 15, 18, 9):
        failures.append(f"C_4(6) f-vector {fv}")
    if sum((-1) ** k * x for k, x in enumerate(fv)) != 0:
        failures.append("Euler sum of C_4(6) nonzero")
    for d in (2, 3, 4):
        gens = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        cube_f0 = convex_hull(zonotope_points(gens)).f_vector[0]
        if zonotope_bound(0, d, d) != 2**d or cube_f0 != 2**d:
            failures.append(f"cube check failed at d={d}")
    emit(8, not failures, "two-polytope, cyclic, and zonotope cross-checks agree")
    assert not failures, failures


def test_criterion_9_selftest_invariants():
    start = time.perf_counter()
    code, report = run_command(["selftest"])
    elapsed = time.perf_counter() - start
    failures = []
    if code != 0:
        failures.append(f"selftest exit {code}")
    if report is None or not report.passed:
        failures.append("selftest checks failed")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    emit(9, not failures, f"selftest invariant suites pass, {elapsed:.1f}s")
    assert not failures, failures
