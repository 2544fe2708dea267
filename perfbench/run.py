"""fglcheck benchmark: seeded CLI workloads, timed in-process, every verdict checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload selftest|fgl-deep|batch-verify \
        [--seed N] [--seconds S] [--trace 0|1]

Load is one client in a closed loop: each job is one call of the public entry
point ``fglcheck.cli.run(argv)`` and the next job starts when it returns.
A pass runs the workload's job list once; passes repeat until the next one
would overrun ``--seconds`` (at least one pass).  Each untraced pass is
preceded by timed set-ups: a fresh import of fglcheck plus writing the
inputs.  Job timings are 90th percentiles over the run's passes, set-up
time is the upper quartile of its samples.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one untraced pass, then traced passes (see tracer.py) and prints the
per-layer metrics; its report digests must equal the untraced pass's.

A job fails on a wrong exit code, exit 2, an exception or traceback, a
``--json`` report whose verdict disagrees with the expected exit code, or a
report whose sha256 differs from ``reference.json``.  The last stdout line is
the JSON result; the line before it carries unscored metadata, which is also
written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SETUP_SECONDS = 0.5  # set-up time per round: short set-ups repeat to fill it

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, wrong package)."""


def import_fglcheck():
    """Import fglcheck afresh from this checkout's src/."""
    init = SRC / "fglcheck" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no fglcheck sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "fglcheck" or n.startswith("fglcheck.")]:
        del sys.modules[name]
    pkg = importlib.import_module("fglcheck")
    importlib.import_module("fglcheck.cli")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise SetupError(f"imported fglcheck from {pkg.__file__}, not {init}")
    return pkg


class Workdir:
    """Input files and report paths for one job list."""

    def __init__(self, base, jobs):
        self.base = base
        self.inputs = base / "in"
        self.outputs = base / "out"
        self.jobs = jobs
        self.slots = []  # (job, argv, report path)

    def write(self):
        shutil.rmtree(self.base, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self.outputs.mkdir(parents=True)
        written = {}
        for i, job in enumerate(self.jobs):
            path = None
            if job.input is not None:
                path = written.get(job.key)
                if path is None:
                    path = self.inputs / f"{job.key[:16]}.json"
                    path.write_bytes(job.input)
                    written[job.key] = path
            report = self.outputs / f"{i:03d}.json"
            argv = [a.replace("{input}", str(path)).replace("{json}", str(report))
                    for a in job.argv]
            self.slots.append((job, argv, report))


def setup(workload, seed, base):
    """Import fglcheck and build the workload's inputs; returns (seconds, workdir)."""
    shutil.rmtree(base, ignore_errors=True)
    gc.collect()
    t0 = time.perf_counter()
    import_fglcheck()
    wd = Workdir(base, workloads.jobs_for(workload, seed))
    wd.write()
    return time.perf_counter() - t0, wd


# ---------------------------------------------------------------------------
# running and checking jobs


def run_job(argv, tracer=None, name=None):
    """One closed-loop job: (exit code or exception, seconds, captured output)."""
    cli = sys.modules["fglcheck.cli"]
    buf = io.StringIO()
    span = tracer.job_span(name) if tracer is not None else None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception as e:  # a raised exception is a failed job, not a crash
            rc = e
        t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_job_span(span, t0, t1)
    return rc, t1 - t0, buf.getvalue()


def check_job(job, rc, output, data, reference):
    """None when the job behaved as expected, else the reason it failed."""
    if isinstance(rc, Exception):
        return f"raised {type(rc).__name__}: {rc}"
    if "Traceback" in output:
        return "traceback in output"
    if rc != job.expect:
        return f"exit {rc}, expected {job.expect}"
    if data is None:
        return "no --json report written"
    try:
        verdict = json.loads(data)["report"]["verdict"]
    except (ValueError, KeyError, TypeError):
        return "malformed --json report"
    if verdict != ("pass" if job.expect == 0 else "fail"):
        return f"report verdict {verdict} disagrees with exit {job.expect}"
    ref = reference.get(job.key)
    if ref is None:
        return "no reference digest for this input"
    if ref["expect"] != job.expect:
        return "reference was built for another expected exit code"
    if hashlib.sha256(data).hexdigest() != ref["sha256"]:
        return "report digest differs from the reference"
    return None


def run_pass(wd, reference, tracer=None):
    """Run the job list once; returns per-job (seconds, failure, digest)."""
    gc.collect()
    results = []
    for job, argv, report in wd.slots:
        with contextlib.suppress(FileNotFoundError):
            report.unlink()
        rc, dt, out = run_job(argv, tracer, job.name)
        try:
            data = report.read_bytes()
        except OSError:
            data = None
        fail = check_job(job, rc, out, data, reference)
        results.append((dt, fail, data and hashlib.sha256(data).hexdigest()))
    return results


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def passes_until(budget, started, rounds):
    """Closed-loop pacing: start another round only if it should fit the budget."""
    if not rounds:
        return True
    return time.perf_counter() - started + statistics.median(rounds) <= budget


# ---------------------------------------------------------------------------
# metadata


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def repeat_ring_share(jobs):
    """Share of jobs whose ring descriptor already appeared earlier in the pass."""
    seen, repeats = set(), 0
    for job in jobs:
        if job.ring is not None and job.ring in seen:
            repeats += 1
        seen.add(job.ring)
    return repeats / len(jobs)


def percentile(values, pct):
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def p90(values):
    return percentile(values, 90)


# ---------------------------------------------------------------------------


def measure(workload, seed, seconds, trace):
    reference = load_reference()
    base = OUT / f"work-{os.getpid()}"
    try:
        setup(workload, seed, base)  # warm-up, untimed: writes the bytecode caches
        started = time.perf_counter()
        if trace:
            return measure_traced(workload, seed, base, reference, seconds, started)
        return measure_untraced(workload, seed, base, reference, seconds, started)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def metadata(workload, seed, seconds, trace, wd):
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "src_lines": src_lines(),
            "jobs_per_pass": len(wd.slots),
            "repeat_ring_share": round(repeat_ring_share(wd.jobs), 4),
            "load": "closed loop, 1 client, 1 process, 1 thread"}


def failures_of(wd, res):
    return [(job.name, r[1]) for (job, _, _), r in zip(wd.slots, res) if r[1]]


def traced_failures(wd, res, untraced):
    """One failure per traced job run: its failed check, else a digest change."""
    return [(job.name, r[1] or "traced report digest differs from untraced")
            for (job, _, _), r, u in zip(wd.slots, res, untraced) if r[1] or r[2] != u[2]]


def measure_untraced(workload, seed, base, reference, seconds, started):
    """End-to-end metrics: upper quantiles over the run's passes and set-ups.

    Each pass is preceded by SETUP_SECONDS of timed set-ups, so set-up samples
    are spread over the run like the passes.  A job's time is the 90th
    percentile of its times over the passes; wall_s sums them, job_p50_ms and
    job_p90_ms are taken over them.  setup_s is the upper quartile of the
    set-up samples.  A fixed quantile does not drift with the number of
    samples, as a maximum would.  An upper one follows the host's usual,
    slower state rather than the share of fast phases in the run (README.md).
    """
    rounds, setups, per_pass, failures = [], [], [], []
    while passes_until(seconds, started, rounds):
        r0 = time.perf_counter()
        spent = 0.0
        while spent < SETUP_SECONDS:
            dt, wd = setup(workload, seed, base)
            setups.append(dt)
            spent += dt
        res = run_pass(wd, reference)
        rounds.append(time.perf_counter() - r0)
        per_pass.append([r[0] for r in res])
        failures.extend(failures_of(wd, res))
    job_times = [p90(ts) for ts in zip(*per_pass)]
    metrics = {
        "wall_s": (sum(job_times), "s"),
        "job_p50_ms": (statistics.median(job_times) * 1e3, "ms"),
        "job_p90_ms": (p90(job_times) * 1e3, "ms"),
        "setup_s": (percentile(setups, 75), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    meta = metadata(workload, seed, seconds, 0, wd)
    meta.update({"passes": len(per_pass), "pass_wall_s": [sum(ts) for ts in per_pass],
                 "setup_samples_s": setups, "job_seconds": per_pass,
                 "jobs_beyond_p90": sum(1 for t in job_times if t > p90(job_times))})
    return metrics, len(per_pass) * len(job_times), failures, meta


def measure_traced(workload, seed, base, reference, seconds, started):
    from tracer import Tracer
    _, wd = setup(workload, seed, base)
    untraced = run_pass(wd, reference)
    failures = failures_of(wd, untraced)
    untraced_wall = sum(r[0] for r in untraced)
    tracer = Tracer("fglcheck")
    tracer.install()
    walls, snaps = [], []
    try:
        while not walls or passes_until(seconds, started, walls):
            tracer.reset()
            res = run_pass(wd, reference, tracer)
            snaps.append(tracer.snapshot())
            walls.append(sum(r[0] for r in res))
            failures.extend(traced_failures(wd, res, untraced))
    finally:
        tracer.uninstall()
    metrics = {}
    for name in snaps[0]:
        unit = "count" if name.endswith((".calls", ".pairs")) else "s"
        metrics[name] = (statistics.median(s[name] for s in snaps), unit)
    meta = metadata(workload, seed, seconds, 1, wd)
    meta.update({"passes": len(walls), "untraced_wall_s": untraced_wall,
                 "traced_wall_s": walls,
                 "tracing_overhead_s": statistics.median(walls) - untraced_wall,
                 "spans": len(tracer.spans), "dropped_spans": tracer.dropped_spans,
                 "function_calls_last_pass": tracer.function_calls(),
                 "span_records": tracer.spans_json()})
    return metrics, len(wd.slots) * (1 + len(walls)), failures, meta


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def selected_metrics(metrics, trace):
    spec = benchmark_spec()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise SetupError(f"benchmark did not measure {missing}")
    return {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = float(benchmark_spec()["run_seconds"])
        metrics, attempted, failures, meta = measure(args.workload, args.seed,
                                                     args.seconds, args.trace)
        selected = selected_metrics(metrics, args.trace)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    failed = len(failures)
    meta["failed_ratio"] = failed / attempted
    meta["failures"] = failures[:20]
    for name, m in selected.items():
        print(f"{args.workload:>12}  {name:<44} {m['value']:>14.6f} {m['unit']}")
    print(f"{args.workload:>12}  {'failed_ratio':<44} {meta['failed_ratio']:>14.6f} "
          f"ratio ({failed}/{attempted} jobs)")
    for name, why in failures[:5]:
        print(f"FAILED {name}: {why}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"metrics": selected, "meta": meta}, indent=1) + "\n")
    meta.pop("span_records", None)
    meta.pop("function_calls_last_pass", None)
    meta.pop("job_seconds", None)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": selected}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
