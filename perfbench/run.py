"""covg benchmark: closed loop, one client, one `covg` CLI command per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed generates every input file
(in a temporary directory inside the checkout); each job runs `python3 -m
covg.cli --timing ...` against the checkout's `src/` in a fresh process, one at
a time, and its report is checked against the oracle.  The first pass runs
every job once; further jobs start round-robin while they still fit in the
run's seconds.  Per job the median of its runs is taken, and workload metrics
sum those medians, so they estimate one pass over the job list.

--trace 0 prints the end-to-end metrics:
  wall_s       wall time of the job list, spawn to exit
  setup_s      process wall minus the report's own --timing value, summed over
               jobs: interpreter start, imports, argument parsing, report write
  cpu_s        user + sys CPU time of the job processes
  peak_rss_mb  the largest max-RSS of any job process
  correct_frac share of the workload's jobs whose every run exited 0 in time
               with the oracle's answer (1 - the failed share)
--trace 1 splits the seconds between untraced runs and runs under
perfbench/tracing.py, and prints the per-layer metrics of the traced runs.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
`attempted` is the number of jobs in the workload and `failed` the number of
them with at least one failed run, so both are the same on every run of the
same code however many repeats fit in the seconds; `correct` is false when a
job outside workloads.KNOWN_WRONG failed.  Earlier lines give provenance and
per-job medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata

import inputs
import tracing
from oracle import Oracle
from workloads import KNOWN_WRONG, WORKLOADS, Job

JOB_TIMEOUT_S = 90.0
RUN_LIMIT_S = 170.0  # no job may run past this point of the whole run

PER_LAYER = (
    "cli.startup_s", "cli.io_s",
    "com.check_axioms.calls", "com.check_axioms.s", "com.contract.calls", "com.contract.s",
    "com.flats_of.calls", "com.flat_poset.calls", "com.self_s",
    "realize.lp.calls", "realize.lp.s", "realize.lp.feasible_ratio", "realize.self_s",
    "matroidal.circuits.calls", "matroidal.circuits.s", "matroidal.closure.calls",
    "matroidal.closure.s", "matroidal.nbc_sets.s", "matroidal.basic_sets.s", "matroidal.self_s",
    "harmonics.locus.s", "harmonics.advance_degree.calls", "harmonics.advance_degree.s",
    "harmonics.evaluate.calls", "harmonics.evaluate.s", "harmonics.gr_membership.calls",
    "harmonics.generators.s", "harmonics.self_s",
    "exactla.insert.calls", "exactla.insert.s", "exactla.insert.rank_ratio",
    "exactla.contains.calls", "exactla.contains.s", "exactla.copy.calls", "exactla.copy.s",
    "exactla.trace.calls", "exactla.trace.s", "exactla.poly.s", "exactla.self_s",
    "equivariant.group.s", "equivariant.character.calls", "equivariant.character.s",
    "equivariant.induced.s", "equivariant.locus_action.calls", "equivariant.self_s",
    "trace_overhead",
)


@dataclass
class JobRun:
    """One process: measurements plus the oracle's verdict (None when right)."""

    job: Job
    wall: float
    cpu: float
    rss_kb: int
    report_timing: float | None
    error: str | None
    trace: dict | None = None


class Runner:
    def __init__(self, checkout, workdir, paths, oracle, started):
        self.checkout = checkout
        self.workdir = workdir
        self.paths = paths
        self.oracle = oracle
        self.started = started
        self.env = job_env(checkout)
        self.count = 0

    def run_job(self, job, traced):
        self.count += 1
        out_path = os.path.join(self.workdir, f"out{self.count}.json")
        trace_path = os.path.join(self.workdir, f"trace{self.count}.json")
        argv = ["--timing", *job.command(self.paths)]
        timeout = min(JOB_TIMEOUT_S, RUN_LIMIT_S - (time.monotonic() - self.started))
        if timeout <= 0:
            return JobRun(job, 0.0, 0.0, 0, None, "not started: run time limit reached")
        with open(out_path, "wb") as out:
            spawned = time.monotonic()
            if traced:
                cmd = [sys.executable, os.path.join(self.checkout, "perfbench", "tracing.py"),
                       job.name, repr(spawned), trace_path, "--", *argv]
            else:
                cmd = [sys.executable, "-m", "covg.cli", *argv]
            proc = subprocess.Popen(cmd, cwd=self.checkout, env=self.env, stdout=out,
                                    stderr=subprocess.DEVNULL)
            timer = threading.Timer(timeout, _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.monotonic() - spawned
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        report, error = None, None
        if code < 0:
            error = f"killed by signal {-code} (timeout {timeout:.0f}s)"
        else:
            try:
                with open(out_path, encoding="utf-8") as fh:
                    report = json.load(fh)
            except (OSError, ValueError) as exc:
                error = f"exit {code}, unreadable report: {exc}"
        os.remove(out_path)
        if error is None:
            error = self.judge(job, code, report)
        trace = None
        if traced and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            os.remove(trace_path)
        timing = report.get("timing_seconds") if isinstance(report, dict) else None
        return JobRun(job, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, timing, error, trace)

    def judge(self, job, code, report):
        """The oracle's verdict on one report: None when right, else the reason."""
        if not isinstance(report, dict) or "error" in report:
            return f"exit {code}: {report.get('error') if isinstance(report, dict) else report!r}"
        try:
            error = job.verdict(self.oracle, report)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            error = f"report lacks the checked answer: {exc!r}"
        if error is None and code != 0:
            error = f"exit {code}"
        return error

    def run_mix(self, jobs, seconds, traced):
        """Every job once, then round-robin while the next job still fits."""
        t0 = time.monotonic()
        runs = {job.name: [] for job in jobs}
        for job in jobs:
            runs[job.name].append(self.run_job(job, traced))
        while True:
            progressed = False
            for job in jobs:
                left = seconds - (time.monotonic() - t0)
                if runs[job.name][-1].wall <= left:
                    runs[job.name].append(self.run_job(job, traced))
                    progressed = True
            if not progressed:
                return runs


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def job_env(checkout):
    """Environment of every job process.

    BLAS and OpenMP pools default to one thread: on a small shared machine the
    second OpenBLAS thread spins against other load, and the braid5 axiom check
    then swings between 8 and 20 s.  A value already set by the caller wins.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    return env


def _kill(pid):
    # os.kill, not Popen.kill: Popen would reap the child behind os.wait4's back.
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def median_sum(runs, value):
    """Sum over jobs of the median of value(run) across that job's runs."""
    total = 0.0
    for job_runs in runs.values():
        samples = [v for v in map(value, job_runs) if v is not None]
        if samples:
            total += statistics.median(samples)
    return total


def end_to_end(runs):
    jobs_ok = sum(all(r.error is None for r in rs) for rs in runs.values())
    return {
        "wall_s": (median_sum(runs, lambda r: r.wall), "s"),
        "setup_s": (median_sum(runs, lambda r: None if r.report_timing is None
                               else r.wall - r.report_timing), "s"),
        "cpu_s": (median_sum(runs, lambda r: r.cpu), "s"),
        "peak_rss_mb": (max(r.rss_kb for rs in runs.values() for r in rs) / 1024.0, "MB"),
        "correct_frac": (jobs_ok / len(runs), "ratio"),
    }


def per_layer(runs, untraced_wall):
    per_job = {}
    for name, job_runs in runs.items():
        samples = [tracing.layer_metrics(*tracing.summarize(r.trace))
                   for r in job_runs if r.trace is not None]
        if samples:
            per_job[name] = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    total = {}
    for metrics in per_job.values():
        for k, v in metrics.items():
            total[k] = total.get(k, 0) + v
    total["realize.lp.feasible_ratio"] = tracing.ratio(
        total.get("realize.lp.true", 0), total.get("realize.lp.calls", 0))
    total["exactla.insert.rank_ratio"] = tracing.ratio(
        total.get("exactla.insert.true", 0), total.get("exactla.insert.calls", 0))
    total["trace_overhead"] = tracing.ratio(median_sum(runs, lambda r: r.wall), untraced_wall)

    def unit(name):
        return "count" if name.endswith(".calls") else "s" if name.endswith("s") else "ratio"

    return {k: (total.get(k, 0), unit(k)) for k in PER_LAYER}


def provenance(checkout, args, workload):
    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    def numpy_version():
        try:
            return metadata.version("numpy")
        except metadata.PackageNotFoundError:
            return None

    def git_sha():
        if not os.path.exists(os.path.join(checkout, ".git")):
            return None  # an exported tree: do not let git search the parent directories
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    env = job_env(checkout)
    return {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one job process at a time",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "git_sha": git_sha(),
        "blas_threads_env": {k: env[k] for k in BLAS_THREAD_VARS},
    }


def job_table(runs):
    return [
        {
            "job": name,
            "runs": len(rs),
            "wall_s": statistics.median(r.wall for r in rs),
            "cpu_s": statistics.median(r.cpu for r in rs),
            "errors": sorted({r.error for r in rs if r.error}),
        }
        for name, rs in runs.items()
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = os.getcwd()
    fixture_dir = os.path.join(checkout, "src", "covg", "data")
    if not os.path.isfile(os.path.join(checkout, "src", "covg", "cli.py")):
        print("perfbench: run from the root of a covg checkout (src/covg/cli.py not found)",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the finally blocks: kill the job, drop the inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=checkout)
    try:
        paths, expect = inputs.write_inputs(workdir, args.seed, fixture_dir)
        runner = Runner(checkout, workdir, paths, Oracle(checkout, expect), started)
        print(json.dumps({"provenance": provenance(checkout, args, workload)}))
        if args.trace:
            runs = runner.run_mix(workload.jobs, args.seconds / 2, traced=False)
            untraced_wall = median_sum(runs, lambda r: r.wall)
            traced_runs = runner.run_mix(workload.jobs, args.seconds / 2, traced=True)
            metrics = per_layer(traced_runs, untraced_wall)
            all_runs = [r for rs in (*runs.values(), *traced_runs.values()) for r in rs]
            print(json.dumps({"jobs": job_table(runs), "traced_jobs": job_table(traced_runs)}))
        else:
            runs = runner.run_mix(workload.jobs, args.seconds, traced=False)
            metrics = end_to_end(runs)
            all_runs = [r for rs in runs.values() for r in rs]
            print(json.dumps({"jobs": job_table(runs)}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for r in all_runs:
        if r.error is not None:
            print(f"perfbench: {r.job.name} failed: {r.error}", file=sys.stderr)
    failed = {r.job.name for r in all_runs if r.error is not None}
    result = {
        "correct": failed <= KNOWN_WRONG,
        "attempted": len(workload.jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
