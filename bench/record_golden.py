#!/usr/bin/env python3
"""Record ``golden.json``: the outputs every benchmark job must reproduce.

    python3 bench/record_golden.py

Runs each workload's untransformed base jobs once through
``polysum.cli.run_command`` and stores the golden-checked values, with a
fingerprint of each base input and, for ``minksum``, the job's kind and
candidate counts.  The stored goldens were recorded from the commit that
introduced the benchmark; re-recording is only right when a change is meant
to alter these outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run
import jobs


def main() -> int:
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=run.ROOT)
    sys.path.insert(0, str(run.SRC))
    from polysum.cli import run_command

    golden = {}
    try:
        for workload in jobs.WORKLOADS:
            golden[workload] = {}
            for job in jobs.build_jobs(workload, 0, workdir, None):
                jobs.write_inputs([job])
                code, report = run_command(job.argv)
                if code != 0 or not report.passed:
                    raise SystemExit(f"{workload}/{job.name} failed with exit code {code}")
                with open(job.report_path) as fh:
                    entry = jobs.observed(workload, json.load(fh))
                golden[workload][job.name] = entry
                print(workload, job.name, entry, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (kind, parts) in jobs.base_minksum().items():
        direct, cayley = jobs.candidate_counts(parts)
        entry = golden["minksum"][name]
        if kind == "facet-rich" and entry["f_vector"][0] != jobs.distinct_sums(parts):
            raise SystemExit(f"{name} is labelled facet-rich but not every vertex sum is a vertex")
        entry.update(kind=kind, input_sha=jobs.fingerprint(parts), direct_candidates=direct, cayley_candidates=cayley)
    for name, spec in jobs.base_delta().items():
        golden["delta"][name].update(K=sum(spec["kappa"]), input_sha=jobs.fingerprint(jobs.spec_doc(spec)))

    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
