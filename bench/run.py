#!/usr/bin/env python3
"""polysum benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload tight|minksum|delta|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Each workload is a closed loop with one client: its
jobs run one after another in this process, each through
``polysum.cli.run_command`` with the argv a user would type, and every job's
report is checked against ``golden.json``.  Passes over the fixed job list
repeat while at least half of the next one fits in ``--seconds`` (at least
one pass).

``--trace 0`` reports the end-to-end metrics, with every time rescaled to a
reference machine speed by the calibration kernel in ``calibrate.py``, which
runs about once a second (the raw times are printed above the result).
``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
TRACE_DIR = ROOT / ".bench-out"
SETUP_REPEATS = 5
CALIBRATE_EVERY_S = 1.0  # wall seconds between two runs of the calibration kernel

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import jobs  # noqa: E402
from layertrace import COUNT_METRICS, METRIC_UNITS, Tracer  # noqa: E402

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare(workload, seed, workdir, names=None):
    """All a run does before its first job: imports, then the seeded inputs."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polysum.cli  # noqa: F401  (imports every layer)

    try:
        import scipy.spatial  # noqa: F401  (the hull's qhull backend loads it on first use)
    except ImportError:
        pass
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    job_list = jobs.build_jobs(workload, seed, workdir, golden, names)
    jobs.write_inputs(job_list)
    return job_list


def measure_setup(workload, seed, repeats):
    """Median time of fresh processes doing ``prepare`` and exiting, at reference speed."""
    times = []
    cal = [calibrate.measure()[0]]
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
            check=True,
            stdout=subprocess.DEVNULL,
            cwd=ROOT,
        )
        elapsed = time.perf_counter() - start
        cal.append(calibrate.measure()[0])
        times.append(calibrate.rescale(elapsed, cal[-2], cal[-1]))
    return statistics.median(times)


def run_pass(job_list, tracer=None, clock=None):
    """One pass over the job list: (wall seconds of the jobs, failed jobs)."""
    from polysum.cli import run_command  # looked up per pass: tracing rebinds it

    wall = 0.0
    failed = 0
    for job in job_list:
        if os.path.exists(job.report_path):
            os.remove(job.report_path)
        if tracer is not None:
            tracer.job = job.name
        if clock is not None:
            clock.job_started()
        start = time.perf_counter()
        try:
            code, _ = run_command(job.argv)
        except Exception:  # a crashing job is a failed job, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
            code = -1
        wall += time.perf_counter() - start
        if clock is not None:
            clock.job_finished()
        problems = jobs.check_job(job, code)
        if problems:
            failed += 1
            print(f"FAIL {job.workload}/{job.name}: {'; '.join(problems)}", file=sys.stderr)
    return wall, failed


def _keep_going(started, seconds, unit_s):
    """Start another unit only when at least half of it fits in the budget."""
    return time.perf_counter() - started + unit_s / 2 < seconds


def measure_end_to_end(job_list, seconds):
    """Median pass wall and CPU seconds, at reference speed."""
    walls, cpus, raw, failed = [], [], [], 0
    started = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        with calibrate.SpeedClock(CALIBRATE_EVERY_S) as clock:
            _, f = run_pass(job_list, clock=clock)
        walls.append(clock.ref_wall)
        cpus.append(clock.ref_cpu)
        raw.append(clock.wall)
        failed += f
        if not _keep_going(started, seconds, time.perf_counter() - unit_start):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"pass_s": statistics.median(walls), "cpu_s": statistics.median(cpus), "peak_rss_mb": peak_mb}
    print("raw pass wall seconds:       " + " ".join(f"{w:.3f}" for w in raw))
    print("reference-speed pass seconds: " + " ".join(f"{w:.3f}" for w in walls))
    return metrics, len(walls), failed


def measure_layers(job_list, seconds, dump_path):
    """Alternate untraced and traced passes; per-layer metrics of the traced ones."""
    tracer = Tracer()
    plain, traced, per_pass, failed = [], [], [], 0
    started = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        wall, f = run_pass(job_list)
        plain.append(wall)
        failed += f
        tracer.install()
        try:
            tracer.begin_pass()
            t_wall, f = run_pass(job_list, tracer)
            tracer.end_pass()
        finally:
            tracer.uninstall()
        traced.append(t_wall)
        failed += f
        per_pass.append(tracer.pass_metrics(len(job_list)))
        tracer.dump(dump_path, len(traced) - 1)
        if not _keep_going(started, seconds, time.perf_counter() - unit_start):
            break
    for later in per_pass[1:]:
        drift = [n for n in COUNT_METRICS if later[n] != per_pass[0][n]]
        if drift:
            print(f"warning: counts differ between traced passes: {', '.join(drift)}", file=sys.stderr)
    metrics = {
        name: (per_pass[0][name] if name in COUNT_METRICS else statistics.median(p[name] for p in per_pass))
        for name in per_pass[0]
    }
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    return metrics, 2 * len(traced), failed


def run_workload(workload, seed, seconds, trace, workdir, names=None, setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns the result object printed on the last line."""
    if trace:
        job_list = prepare(workload, seed, workdir, names)
        TRACE_DIR.mkdir(exist_ok=True)
        dump_path = TRACE_DIR / f"trace-{workload}-seed{seed}.jsonl"
        dump_path.unlink(missing_ok=True)
        values, passes, failed = measure_layers(job_list, seconds, dump_path)
        units = METRIC_UNITS
    else:
        setup_s = measure_setup(workload, seed, setup_repeats)
        job_list = prepare(workload, seed, workdir, names)
        values, passes, failed = measure_end_to_end(job_list, seconds)
        values["setup_s"] = setup_s
        units = E2E_UNITS
    attempted = passes * len(job_list)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "passes": passes,
    }


def print_result(workload, result):
    """Human-readable summary lines (the JSON result follows them)."""
    print(
        f"{workload}: passes={result['passes']} jobs={result['attempted']} "
        f"failed_frac={result['failed'] / result['attempted']:.4g} (failed {result['failed']})"
    )
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def run_all(args):
    """Every workload, each in its own process; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in jobs.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polysum" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: run this from a polysum checkout ({SRC / 'polysum'} or {GOLDEN} is missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        if args.setup_only:
            prepare(args.workload, args.seed, workdir)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_result(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
