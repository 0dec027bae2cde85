"""Command-line surface: bounds, hulls, Minkowski sums, family construction,
tightness verification, block-determinant leading terms, and a selftest.

Every command emits a deterministic JSON run report (identical argv gives
byte-identical output); wall-clock timings are opt-in via --timing since
they would break that determinism.  Exit codes: 0 all checks pass, 1 a
check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import os
import random
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import bounds as bnd
from . import detasym
from .cayley import PartitionedPointSet, minksum_direct, minksum_lattices, minksum_via_cayley
from .construction import ConstructionParams, certify_family, generate_family, verify_tightness
from .exact import SearchExhausted, determinant, rat, rat_to_str
from .hull import PointSet, convex_hull, verify_supporting
from .jsonio import (
    RunReport,
    delta_spec_from_dict,
    dump_json,
    lattice_to_dict,
    load_pointset,
    pointset_to_dict,
    read_json,
)

DEFAULT_SEED = 20240809


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


@functools.cache  # one parser per process: a dead one leaves ~400 objects for the cyclic GC
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysum",
        description="Exact Minkowski-sum face counts via the Cayley embedding",
    )
    parser.add_argument("--timing", action="store_true", help="include wall-clock timings (non-deterministic output)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="spanning-subset count (trivial bound kernel)")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--out")

    p = sub.add_parser("bound", help="evaluate a face-count bound")
    p.add_argument("--kind", required=True, choices=["trivial", "three", "two", "zonotope", "f0-many"])
    p.add_argument("--k", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=_int_list)
    p.add_argument("--out")

    p = sub.add_parser("hull", help="face lattice of a polytope JSON file")
    p.add_argument("--inputs", nargs=1, required=True)
    p.add_argument("--out")

    p = sub.add_parser("minksum", help="f-vector of a Minkowski sum")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--method", default="both", choices=["cayley", "direct", "both"])
    p.add_argument("--out")

    p = sub.add_parser("construct", help="build a certified tight family")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--alpha", help="per-part comma lists separated by ';'")
    p.add_argument("--max-halvings", type=int, default=64)
    p.add_argument("--out")

    p = sub.add_parser("verify-tight", help="end-to-end tightness verification")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--max-halvings", type=int, default=64)
    p.add_argument("--report")

    p = sub.add_parser("delta", help="find tau0 and the leading term of a block determinant")
    p.add_argument("--spec", required=True)
    p.add_argument(
        "--find-tau0", action="store_true", help="accepted and ignored: the tau0 search always runs"
    )
    p.add_argument("--max-halvings", type=int, default=64)
    p.add_argument("--report")

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out")

    return parser


def _parse_alpha(text: str) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(rat(tok) for tok in part.split(",") if tok.strip())
        for part in text.split(";")
    )


def _cmd_phi(args, report: RunReport) -> None:
    n = tuple(args.n)
    value = bnd.phi(args.ell, n)
    report.outputs["value"] = value
    if bnd.binom(sum(n), args.ell) <= bnd.PHI_BRUTE_FORCE_SIZE_CAP:
        report.check("phi_matches_composition_sum", bnd.phi_brute_force(args.ell, n), value)


_BOUND_OPTIONS = {
    "trivial": ("k", "d", "n"),
    "three": ("n",),
    "two": ("k", "d", "n"),
    "zonotope": ("ell", "d", "n"),
    "f0-many": ("d", "n"),
}
_BOUND_N_LENGTH = {"three": 2, "two": 2, "zonotope": 1}


def _cmd_bound(args, report: RunReport) -> None:
    kind = args.kind
    missing = [f"--{name}" for name in _BOUND_OPTIONS[kind] if getattr(args, name) is None]
    if missing:
        raise ValueError(f"bound --kind {kind} requires {' '.join(missing)}")
    want = _BOUND_N_LENGTH.get(kind)
    if want is not None and len(args.n) != want:
        values = "1 value" if want == 1 else f"{want} values"
        raise ValueError(f"bound --kind {kind} requires --n with {values}, got {len(args.n)}")
    if kind == "trivial":
        profile = bnd.VertexProfile(tuple(args.n), args.d)
        value = bnd.trivial_upper_bound(args.k, profile)
        report.outputs["value"] = value
    elif kind == "three":
        m1, m2 = args.n
        f0, f1, f2 = bnd.three_polytope_bounds(m1, m2)
        report.outputs["values"] = {"f0": f0, "f1": f1, "f2": f2}
        report.check("euler_consistency", 2, f0 - f1 + f2)
    elif kind == "two":
        n1, n2 = args.n
        value = bnd.two_polytope_bound(args.k, args.d, n1, n2)
        report.outputs["value"] = value
        fvector = list(bnd.cyclic_fvector(args.d + 1, n1 + n2))
        if sum(fvector) <= bnd.CYCLIC_HULL_FACE_CAP:
            hull = list(bnd.cyclic_fvector_hull(args.d + 1, n1 + n2))
            report.check("cyclic_fvector_matches_hull", hull, fvector)
    elif kind == "zonotope":
        (n_edges,) = args.n
        value = bnd.zonotope_bound(args.ell, n_edges, args.d)
        report.outputs["value"] = value
    else:
        profile = bnd.VertexProfile(tuple(args.n), args.d)
        sanyal, weibel = bnd.many_summand_f0_bounds(profile)
        report.outputs["values"] = {"sanyal": sanyal, "weibel": weibel}
        report.check_that("weibel_le_sanyal", weibel <= sanyal)


def _cmd_hull(args, report: RunReport) -> None:
    ps = load_pointset(args.inputs[0])
    lat = convex_hull(ps)
    report.outputs["lattice"] = lattice_to_dict(lat)
    euler = sum((-1) ** k * fk for k, fk in enumerate(lat.f_vector))
    report.check("euler_relation", 1 - (-1) ** lat.polytope_dim if lat.polytope_dim >= 1 else 0, euler)
    report.check_that("facets_support_all_points", verify_supporting(lat, ps))


def _cmd_minksum(args, report: RunReport) -> None:
    parts = tuple(load_pointset(path) for path in args.inputs)
    pps = PartitionedPointSet(parts)
    if args.method == "cayley":
        report.outputs["f_cayley"] = list(minksum_via_cayley(pps))
    else:  # the sum's facets are proposed by the Cayley hull, so both come from one
        lifted, direct = minksum_lattices(pps)
        if args.method == "both":
            report.outputs["f_cayley"] = list(minksum_via_cayley(pps, lifted))
        report.outputs["f_direct"] = list(direct.f_vector)
    if args.method == "both":
        report.check("oracle_equality", report.outputs["f_cayley"], report.outputs["f_direct"])
        report.outputs["f_vector"] = report.outputs["f_cayley"]
    else:
        key = "f_cayley" if args.method == "cayley" else "f_direct"
        report.outputs["f_vector"] = report.outputs[key]


def _cmd_construct(args, report: RunReport) -> None:
    params = ConstructionParams.defaults(args.d, args.r, args.n)
    if args.alpha is not None:
        params = dataclasses.replace(params, alpha=_parse_alpha(args.alpha))
    params, tau_cert, zeta_cert = certify_family(params, args.max_halvings)
    family = generate_family(params)
    report.outputs.update(
        {
            "tau_star": rat_to_str(tau_cert.value),
            "zeta_diamond": rat_to_str(zeta_cert.value),
            "certificates": {
                "tau": {
                    "halvings": tau_cert.halvings,
                    "determinants_checked": tau_cert.determinants_checked,
                },
                "zeta": {
                    "halvings": zeta_cert.halvings,
                    "determinants_checked": zeta_cert.determinants_checked,
                },
            },
            "parts": [pointset_to_dict(p) for p in family.parts],
        }
    )
    report.check("tau_checks_complete", tau_cert.expected_checks, tau_cert.determinants_checked)
    report.check("zeta_checks_complete", zeta_cert.expected_checks, zeta_cert.determinants_checked)


def _cmd_verify_tight(args, report: RunReport) -> None:
    result = verify_tightness(args.d, args.r, args.n, args.max_halvings)
    report.outputs.update(result.outputs)
    report.checks.extend(result.checks)


def _cmd_delta(args, report: RunReport) -> None:
    spec = delta_spec_from_dict(read_json(args.spec))
    report.inputs["spec"] = {
        "kappa": list(spec.kappa),
        "beta": list(spec.beta),
        "x": [[rat_to_str(v) for v in row] for row in spec.x],
    }
    pos = detasym.certify_positivity(spec, args.max_halvings)
    report.outputs["positivity"] = pos.to_dict()
    report.check_that("delta_positive_at_tau0", pos.delta(pos.tau0) > 0)
    report.check_that("delta_positive_at_half_tau0", pos.delta(pos.tau0 / 2) > 0)
    if spec.K <= detasym.BRUTE_FORCE_SIZE_CAP:
        poly = detasym.delta_polynomial(spec)
        low = min(poly)
        report.check("brute_force_lowest_degree", pos.theta, low)
        report.check(
            "brute_force_leading_coefficient",
            rat_to_str(pos.coefficient),
            rat_to_str(poly[low]),
        )
        # the two values behind the positivity checks, from the polynomial
        probes = (pos.tau0, pos.tau0 / 2)
        report.check(
            "brute_force_matches_evaluator",
            [rat_to_str(sum(c * t**e for e, c in poly.items())) for t in probes],
            [rat_to_str(pos.delta(t)) for t in probes],
        )


def _cmd_selftest(args, report: RunReport) -> None:
    rng = random.Random(args.seed)

    # Euler relation + supporting facets + scale/translate invariance on a
    # battery of random hulls
    euler_ok = invariance_ok = supporting_ok = True
    for _ in range(12):
        d = rng.randint(2, 4)
        n = rng.randint(d + 1, 8)
        ps = PointSet.from_rows([[rng.randint(-5, 5) for _ in range(d)] for _ in range(n)])
        lat = convex_hull(ps)
        euler = sum((-1) ** k * fk for k, fk in enumerate(lat.f_vector))
        if lat.polytope_dim >= 1 and euler != 1 - (-1) ** lat.polytope_dim:
            euler_ok = False
        if not verify_supporting(lat, ps):
            supporting_ok = False
        s = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        shift = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)]
        moved = PointSet(d, tuple(tuple(s * x + dx for x, dx in zip(p, shift)) for p in ps.points))
        lat2 = convex_hull(moved)
        if lat.masks != lat2.masks:
            invariance_ok = False
    report.check_that("euler_relation_on_random_hulls", euler_ok)
    report.check_that("facets_support_all_points", supporting_ok)
    report.check_that("scale_translate_invariance", invariance_ok)

    # canonical hull values
    report.check("cyclic_c4_6_f_vector", [6, 15, 18, 9], list(bnd.cyclic_fvector_hull(4, 6)))

    # GVD positivity on 100 random increasing positive inputs
    gvd_ok = True
    done = 0
    while done < 100:
        k = rng.randint(2, 5)
        xs = sorted({Fraction(rng.randint(1, 60), rng.randint(1, 5)) for _ in range(k)})
        if len(xs) < 2:
            continue
        mu = sorted(rng.sample(range(0, 9), len(xs)))
        if detasym.gvd(xs, mu) <= 0:
            gvd_ok = False
        done += 1
    report.check_that("gvd_positive_100_random", gvd_ok)

    # phi subset-count identity, exhaustively for sum(n) <= 12
    phi_ok = True

    profiles = (
        n for r in (2, 3, 4) for n in itertools.product(range(1, 12), repeat=r) if sum(n) <= 12
    )
    for n in profiles:
        total = sum(bnd.phi(ell, n) for ell in range(len(n), sum(n) + 1))
        if total != math.prod(2**ni - 1 for ni in n):
            phi_ok = False
            break
    report.check_that("phi_subset_count_identity_sum_le_12", phi_ok)

    # Laplace expansion recovers determinants
    laplace_ok = True
    for _ in range(20):
        size = rng.randint(2, 6)
        m = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        block = sorted(rng.sample(range(size), rng.randint(1, size)))
        if sum(detasym.laplace_expand(m, block)) != determinant(m):
            laplace_ok = False
    report.check_that("laplace_expansion_equals_det", laplace_ok)

    # Minkowski oracle equivalence on small random instances
    oracle_ok = True
    for _ in range(4):
        d = rng.choice([2, 3])
        r = rng.choice([2, 3])
        parts = []
        for _ in range(r):
            ni = rng.randint(1, 4)
            pts = {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(ni)}
            parts.append([list(p) for p in sorted(pts)])
        pps = PartitionedPointSet.from_rows(parts)
        # the raw sums' own hull reads nothing of the Cayley polytope
        sums = PointSet.from_rows([list(map(sum, zip(*pick))) for pick in itertools.product(*parts)])
        if not minksum_via_cayley(pps) == minksum_direct(pps) == convex_hull(sums).f_vector:
            oracle_ok = False
    report.check_that("minksum_oracle_equivalence", oracle_ok)

    for c in report.checks:
        print(("ok   - " if c["pass"] else "FAIL - ") + c["name"])


_HANDLERS = {
    "phi": _cmd_phi,
    "bound": _cmd_bound,
    "hull": _cmd_hull,
    "minksum": _cmd_minksum,
    "construct": _cmd_construct,
    "verify-tight": _cmd_verify_tight,
    "delta": _cmd_delta,
    "selftest": _cmd_selftest,
}


def run_command(argv: Sequence[str]) -> tuple[int, Optional[RunReport]]:
    """Parse and dispatch; returns (exit_code, report)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None
    inputs = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "timing") and v is not None
    }
    report = RunReport(command=args.command, inputs=inputs)
    started = time.perf_counter()
    try:
        if getattr(args, "max_halvings", 0) < 0:
            raise ValueError(f"--max-halvings must be at least 0, got {args.max_halvings}")
        _HANDLERS[args.command](args, report)
        if args.timing:
            report.timing = {"total_seconds": round(time.perf_counter() - started, 6)}
        out_path = getattr(args, "out", None) or getattr(args, "report", None)
        text = dump_json(report.to_dict(), out_path)
    except (ValueError, IndexError, OSError, KeyError, SearchExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    if args.command == "phi":
        print(report.outputs["value"])
    elif args.command != "selftest" and not out_path:
        print(text)
    return (0 if report.passed else 1), report


def main() -> None:
    try:
        code, _ = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout (`polysum hull ... | head -1`); the
        # interpreter's final flush would hit the same closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
