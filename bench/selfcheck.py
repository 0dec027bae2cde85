#!/usr/bin/env python3
"""Quick self-check of the benchmark itself.

    python3 bench/selfcheck.py

Runs a tiny version of each workload, untraced and traced twice, and checks
that every metric named in BENCHMARK.json is emitted with its unit, that the
two traced runs give identical work counts, and that altering one
golden-checked output of the program makes every job fail.  Takes about
half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile

import run
import jobs
from layertrace import COUNT_METRICS

SEED = 3
TINY = {
    "tight": {"d3-r2-n4.4"},
    "minksum": {"rich-d3-r2-n6.6", "poor-d3-r3-n5.5.5"},
    "delta": set(list(jobs.base_delta())[:8]),
}


def _tamper(data: dict) -> None:
    """Alter one golden-checked output of whichever command wrote ``data``."""
    out = data["outputs"]
    if "f_direct" in out:
        out["f_direct"][0] += 1
    if "f_vector" in out:
        out["f_vector"][0] += 1
    if "positivity" in out:
        out["positivity"]["theta"] += 1


def _units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def check_workload(workload, bench, workdir) -> list:
    """Problems found for one workload (empty when it passes)."""
    problems = []
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    def tiny(trace):
        with contextlib.redirect_stdout(io.StringIO()):
            return run.run_workload(workload, SEED, 0, trace, workdir, TINY[workload], setup_repeats=1)

    plain = tiny(0)
    if not plain["correct"] or plain["failed"]:
        problems.append(f"untraced run failed {plain['failed']} of {plain['attempted']} jobs")
    if _units(plain) != end_to_end:
        problems.append(f"end-to-end metrics {_units(plain)} != BENCHMARK.json {end_to_end}")

    first, second = tiny(1), tiny(1)
    if _units(first) != per_layer:
        problems.append(f"per-layer metrics {sorted(_units(first))} != BENCHMARK.json {sorted(per_layer)}")
    for name in COUNT_METRICS:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            problems.append(f"count {name} differs between traced runs: {a} vs {b}")
    if not first["correct"] or not second["correct"]:
        problems.append("traced run failed a golden check")

    import polysum.cli

    original = polysum.cli.dump_json

    def tampered_dump(data, path):
        _tamper(data)
        return original(data, path)

    polysum.cli.dump_json = tampered_dump
    try:
        with contextlib.redirect_stderr(io.StringIO()):  # the expected FAIL lines
            altered = tiny(0)
    finally:
        polysum.cli.dump_json = original
    if altered["failed"] != altered["attempted"] or altered["correct"]:
        problems.append(f"altered outputs failed only {altered['failed']} of {altered['attempted']} jobs")
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    failures = 0
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=run.ROOT)
    try:
        for workload in jobs.WORKLOADS:
            problems = check_workload(workload, bench, workdir)
            failures += bool(problems)
            print(("ok   " if not problems else "FAIL ") + workload)
            for p in problems:
                print("     " + p)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
