"""Rebuild reference.json: the report digest of every job a workload can draw.

    python3 perfbench/make_reference.py

Runs each job once (selftest, the fgl-deep jobs, the whole batch-verify
pool), requires the exit code known by construction, and records the sha256
of its ``--json`` report under the job's content key.  Rebuild only when a
change is meant to alter report bytes or generated inputs, and say so.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import run
import workloads


def all_jobs():
    jobs = workloads.selftest_jobs(0) + workloads.fgl_deep_jobs(0) + workloads.batch_pool()
    return list({j.key: j for j in jobs}.values())


def main():
    run.import_fglcheck()
    wd = run.Workdir(run.OUT / f"reference-{os.getpid()}", all_jobs())
    wd.write()
    ref, bad = {}, []
    try:
        for job, argv, report in wd.slots:
            rc, dt, out = run.run_job(argv)
            if rc != job.expect or "Traceback" in out:
                bad.append(f"{job.name}: exit {rc!r}, expected {job.expect}")
                continue
            ref[job.key] = {"name": job.name, "expect": job.expect,
                            "sha256": hashlib.sha256(report.read_bytes()).hexdigest()}
    finally:
        shutil.rmtree(wd.base, ignore_errors=True)
    if bad:
        raise SystemExit("jobs did not behave as constructed:\n" + "\n".join(bad))
    with open(run.REFERENCE, "w") as fh:
        json.dump(dict(sorted(ref.items())), fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(ref)} reference digests written to {run.REFERENCE}")


if __name__ == "__main__":
    main()
