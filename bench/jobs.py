"""Job lists for the three benchmark workloads, their seeded inputs, and the
golden-output checks.

Every job is one ``polysum`` command line.  The ``minksum`` and ``delta``
inputs start from fixed base instances (drawn once from ``BASE_SEED``; their
outputs are recorded in ``golden.json``).  ``--seed`` then applies, per job,
a random transformation that changes every coordinate the program sees but
provably keeps the recorded answer, so each seed is a fresh input with an
exact golden value:

* ``minksum``: one signed coordinate permutation with positive integer
  column scales applied to every summand, an independent integer
  translation per summand, shuffled points and shuffled summand order.
  Minkowski sums commute with linear maps (``A(P+Q) = AP + AQ``) and
  translations only shift the sum, so the f-vector is unchanged.
* ``delta``: every abscissa is multiplied by one positive rational ``c``.
  The linear row of each block and the power row ``p`` scale by ``c`` and
  ``c^p``, so ``Delta(tau)`` becomes ``c^E * Delta(tau)`` with
  ``E = n + 2 + 3 + ... + (K - 2n + 1)``.  Signs, ``tau0``, the halvings,
  ``theta`` and the deviation ratios are unchanged and the leading
  coefficient scales by ``c^E``.

``tight`` runs the three fixed acceptance instances; it ignores the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

BASE_SEED = 20240809
WORKLOADS = ("tight", "minksum", "delta")

TIGHT_INSTANCES = (
    ("d3-r2-n4.4", 3, 2, (4, 4)),
    ("d5-r2-n5.5", 5, 2, (5, 5)),
    ("d4-r3-n4.4.4", 4, 3, (4, 4, 4)),
)


@dataclass
class Job:
    """One command line plus the files it reads and the report it writes."""

    workload: str
    name: str
    argv: list
    report_path: str
    inputs: dict  # file path -> JSON document to write before the run
    expect: dict  # golden values this job's report must reproduce


# ---------------------------------------------------------------------------
# base instances
# ---------------------------------------------------------------------------


def _integerize(parts):
    """Scale each coordinate column to integers (a positive linear map)."""
    d = len(parts[0][0])
    scales = [
        math.lcm(*(Fraction(p[c]).denominator for part in parts for p in part))
        for c in range(d)
    ]
    return [[[int(Fraction(x) * s) for x, s in zip(p, scales)] for p in part] for part in parts]


def _paper_curves(d, ns, tau, zeta):
    """The paper's lifted moment curves (part i carries t in coordinate i)."""
    r = len(ns)
    parts = []
    for i in range(1, r + 1):
        pts = []
        for j in range(1, ns[i - 1] + 1):
            t = Fraction(j) * tau ** (r - i)
            c = [Fraction(0)] * d
            c[i - 1] = t
            for m in range(1, d - r + 1):
                c[r - 1 + m] = t ** (m + 1)
            e = d - r + 2
            for q in range(1, r + 1):
                if q != i:
                    c[q - 1] = zeta * t**e
                    e += 1
            pts.append(c)
        parts.append(pts)
    return _integerize(parts)


def _rotated_curves(d, ns, rng):
    """Part i lies on the moment curve with its coordinates rotated by i."""
    parts = []
    for i, n in enumerate(ns):
        pts = []
        for t in sorted(rng.sample(range(1, 3 * n + 4), n)):
            curve = [t ** (e + 1) for e in range(d)]
            pts.append(curve[i:] + curve[:i])
        parts.append(pts)
    return parts


def _lattice_points(d, ns, rng, box=4):
    """Distinct random lattice points in [-box, box]^d per summand."""
    parts = []
    for n in ns:
        pts: dict = {}
        while len(pts) < n:
            pts.setdefault(tuple(rng.randint(-box, box) for _ in range(d)), None)
        parts.append([list(p) for p in pts])
    return parts


# name, kind, generator.  Facet-rich: every vertex sum is a vertex of the sum.
# Facet-poor: most vertex sums are interior and facets are often degenerate.
MINKSUM_SPECS = (
    ("rich-d3-r2-n6.6", "facet-rich", lambda rng: _paper_curves(3, (6, 6), Fraction(1, 4), Fraction(1, 64))),
    ("rich-d4-r2-n5.5", "facet-rich", lambda rng: _rotated_curves(4, (5, 5), rng)),
    ("rich-d5-r2-n6.6", "facet-rich", lambda rng: _rotated_curves(5, (6, 6), rng)),
    ("rich-d4-r3-n3.3.3", "facet-rich", lambda rng: _paper_curves(4, (3, 3, 3), Fraction(1, 4), Fraction(1, 256))),
    ("rich-d5-r3-n3.3.4", "facet-rich", lambda rng: _rotated_curves(5, (3, 3, 4), rng)),
    ("poor-d3-r2-n12.12", "facet-poor", lambda rng: _lattice_points(3, (12, 12), rng)),
    ("poor-d3-r3-n5.5.5", "facet-poor", lambda rng: _lattice_points(3, (5, 5, 5), rng)),
    ("poor-d4-r2-n8.8", "facet-poor", lambda rng: _lattice_points(4, (8, 8), rng)),
    ("poor-d5-r2-n6.6", "facet-poor", lambda rng: _lattice_points(5, (6, 6), rng)),
    ("poor-d3-r2-n22.22", "facet-poor", lambda rng: _lattice_points(3, (22, 22), rng)),
)

DELTA_SPEC_COUNT = 180
DELTA_K_RANGE = (4, 18)


def _delta_base(rng, K):
    """Random spec of size K: 2..5 blocks of 2..6 columns, increasing halves."""
    while True:
        n = rng.randint(2, min(5, K // 2))
        kappa = [2] * n
        for _ in range(K - 2 * n):
            i = rng.randrange(n)
            if kappa[i] < 6:
                kappa[i] += 1
        if sum(kappa) == K:
            break
    beta = sorted(rng.sample(range(0, 2 * n + 1), n), reverse=True)
    if rng.random() < 0.5:
        beta[-1] = 0
    x = []
    for k in kappa:
        vals = [Fraction(rng.randint(1, 4), 2)]
        for _ in range(k - 1):
            vals.append(vals[-1] + Fraction(rng.randint(1, 4), 2))
        x.append(vals)
    return {"kappa": kappa, "beta": beta, "x": x}


def base_minksum():
    """name -> (kind, list of summands as integer point lists)."""
    rng = random.Random(BASE_SEED)
    return {name: (kind, gen(rng)) for name, kind, gen in MINKSUM_SPECS}


def base_delta():
    """name -> spec dict with Fraction abscissas."""
    rng = random.Random(BASE_SEED)
    lo, hi = DELTA_K_RANGE
    out = {}
    for i in range(DELTA_SPEC_COUNT):
        K = lo + i % (hi - lo + 1)
        out[f"spec{i:03d}-K{K}"] = _delta_base(rng, K)
    return out


def distinct_sums(parts) -> int:
    """Number of distinct vertex sums (the points the direct oracle hulls)."""
    return len({tuple(map(sum, zip(*combo))) for combo in itertools.product(*parts)})


def candidate_counts(parts):
    """Candidate facet subsets of the direct and the Cayley hull."""
    d, r = len(parts[0][0]), len(parts)
    total = sum(len(p) for p in parts)
    return math.comb(distinct_sums(parts), d), math.comb(total, d + r - 1)


def delta_scale_exponent(spec) -> int:
    """E with Delta(tau; c*x) = c^E * Delta(tau; x)."""
    n, K = len(spec["kappa"]), sum(spec["kappa"])
    return n + sum(range(2, K - 2 * n + 2))


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def rat_str(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def pointset_doc(points) -> dict:
    return {"ambient_dim": len(points[0]), "points": [[rat_str(x) for x in p] for p in points]}


def spec_doc(spec) -> dict:
    return {
        "kappa": list(spec["kappa"]),
        "beta": list(spec["beta"]),
        "x": [[rat_str(v) for v in row] for row in spec["x"]],
    }


def fingerprint(doc) -> str:
    """Short hash of a JSON document, to pin base instances to their goldens."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# seeded transformations
# ---------------------------------------------------------------------------


def transform_summands(parts, rng):
    """Face-lattice-preserving random re-embedding of a Minkowski-sum instance."""
    d = len(parts[0][0])
    perm = list(range(d))
    rng.shuffle(perm)
    coef = [rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(d)]
    out = []
    for part in parts:
        shift = [rng.randint(-5, 5) for _ in range(d)]
        pts = [[coef[c] * p[perm[c]] + shift[c] for c in range(d)] for p in part]
        rng.shuffle(pts)
        out.append(pts)
    rng.shuffle(out)
    return out


def delta_scale(rng) -> Fraction:
    return Fraction(rng.randint(2, 5), rng.randint(2, 5))


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


def build_jobs(workload: str, seed: int, workdir: str, golden: Optional[dict], names=None) -> list:
    """The workload's fixed job list for this seed.

    ``golden`` None builds the untransformed base jobs (used to record the
    goldens).  ``names`` restricts the list (used by the self-check).
    """
    make_jobs = {"tight": _tight_jobs, "minksum": _minksum_jobs, "delta": _delta_jobs}[workload]
    jobs = make_jobs(seed, workdir, golden)
    if names is not None:
        jobs = [j for j in jobs if j.name in names]
    return jobs


def _tight_jobs(seed, workdir, golden):
    jobs = []
    for name, d, r, n in TIGHT_INSTANCES:
        report = os.path.join(workdir, f"tight-{name}.json")
        argv = ["verify-tight", "--d", str(d), "--r", str(r), "--n", ",".join(map(str, n)), "--report", report]
        expect = golden["tight"][name] if golden else {}
        jobs.append(Job("tight", name, argv, report, {}, expect))
    return jobs


def _minksum_jobs(seed, workdir, golden):
    jobs = []
    for index, (name, (kind, parts)) in enumerate(base_minksum().items()):
        if golden is not None:
            entry = golden["minksum"][name]
            if entry["input_sha"] != fingerprint(parts):
                raise RuntimeError(f"minksum base instance {name} differs from the one in golden.json")
            parts = transform_summands(parts, random.Random(seed * 1009 + index))
            expect = {k: entry[k] for k in ("f_cayley", "f_direct", "f_vector")}
        else:
            expect = {}
        files = {}
        for i, part in enumerate(parts):
            files[os.path.join(workdir, f"minksum-{name}-{i}.json")] = pointset_doc(part)
        report = os.path.join(workdir, f"minksum-{name}-out.json")
        argv = ["minksum", "--inputs", *files, "--method", "both", "--out", report]
        jobs.append(Job("minksum", name, argv, report, files, expect))
    return jobs


def _delta_jobs(seed, workdir, golden):
    jobs = []
    for index, (name, spec) in enumerate(base_delta().items()):
        if golden is not None:
            entry = golden["delta"][name]
            if entry["input_sha"] != fingerprint(spec_doc(spec)):
                raise RuntimeError(f"delta base spec {name} differs from the one in golden.json")
            c = delta_scale(random.Random(seed * 1009 + index))
            spec = dict(spec, x=[[c * v for v in row] for row in spec["x"]])
            expect = {
                "tau0": entry["tau0"],
                "halvings": entry["halvings"],
                "theta": entry["theta"],
                "coefficient": rat_str(Fraction(entry["coefficient"]) * c ** delta_scale_exponent(spec)),
            }
        else:
            expect = {}
        path = os.path.join(workdir, f"delta-{name}.json")
        report = os.path.join(workdir, f"delta-{name}-out.json")
        argv = ["delta", "--spec", path, "--find-tau0", "--report", report]
        jobs.append(Job("delta", name, argv, report, {path: spec_doc(spec)}, expect))
    return jobs


def write_inputs(jobs) -> None:
    for job in jobs:
        for path, doc in job.inputs.items():
            with open(path, "w") as fh:
                json.dump(doc, fh)


# ---------------------------------------------------------------------------
# golden checks
# ---------------------------------------------------------------------------


def observed(workload: str, report: dict) -> dict:
    """The golden-checked values of one run report."""
    out = report["outputs"]
    if workload == "tight":
        return {
            "tau_star": out["tau_star"],
            "zeta_diamond": out["zeta_diamond"],
            "tau_halvings": out["tau_certificate"]["halvings"],
            "zeta_halvings": out["zeta_certificate"]["halvings"],
            "tau_determinants_checked": out["tau_certificate"]["determinants_checked"],
            "zeta_determinants_checked": out["zeta_certificate"]["determinants_checked"],
            "f_via_cayley": out["f_via_cayley"],
            "f_direct": out["f_direct"],
        }
    if workload == "minksum":
        return {k: out[k] for k in ("f_cayley", "f_direct", "f_vector")}
    pos = out["positivity"]
    return {k: pos[k] for k in ("tau0", "halvings", "theta", "coefficient")}


def check_job(job: Job, code: int) -> list:
    """Mismatches of a finished job against its golden values (empty: pass)."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        with open(job.report_path) as fh:
            report = json.load(fh)
        got = observed(job.workload, report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = [] if report.get("passed") is True else ["passed is not true"]
    for key, want in job.expect.items():
        if got.get(key) != want:
            problems.append(f"{key}: expected {want!r}, got {got.get(key)!r}")
    return problems

