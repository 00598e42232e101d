"""End-to-end benchmark of the equifred command line, with an optional traced run.

Run from the repository root:

    python3 benchmarks/run.py --workload grid --seed 1 --seconds 30 --trace 0

Each workload is a fixed job list of ``python -m equifred <verb> ...`` calls
on inputs generated from --seed (see workloads.py).  The jobs run as a closed
loop: one client, one equifred child process at a time.  The list is run in
rounds, each in a seeded random order, until --seconds is spent, and every
report is checked by an oracle that does not use the package.

--trace 0 prints the end-to-end metrics, measured without tracing:
  setup_s      median of bare ``import equifred.cli`` interpreter starts,
               spread over the run
  wall_s       the job list's wall time: the sum over its jobs of each job's
               median spawn-to-exit time across the rounds
  job_p50_s    median, over the job list, of each job's median time
  top_job_s    median time of the workload's heaviest job
  peak_rss_mb  largest peak RSS of any job child (from wait4)
--trace 1 prints the per-layer metrics of a traced in-process run instead
(tracing.py), and writes its spans to .bench_trace/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  fail_ratio (failed / attempted) is printed above it.
"""
from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and (through the environment) in
# every child, so timings and generated inputs do not depend on the machine's
# default thread count.  The imports below must stay after this.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Job

SETUP_EVERY_S = 1.0  # a bare interpreter start for setup_s at most this often
SETUP_MIN_STARTS = 15
JOB_TIMEOUT_S = 90.0  # a job running this long is killed and counted as failed


def environment() -> dict:
    """Machine facts printed with every run, so runs on different machines are not compared."""
    import scipy

    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.is_file() else []
    return {
        "nproc": os.cpu_count(),
        "cpu": models[0] if models else platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_threads": int(BLAS_THREADS),
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict, stderr_path: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with stderr_path.open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def check(job: Job, rc: int, err: str) -> str | None:
    """Run a job's oracle on its report; any oracle crash is a failure too."""
    report = None
    if job.report is not None and job.report.exists():
        try:
            report = json.loads(job.report.read_text())
        except ValueError as exc:
            return f"unreadable report: {exc}"
    if job.report is not None and report is None and rc in (0, 2):
        return f"exit {rc} but no report"
    try:
        return job.oracle(rc, report, err)
    except Exception as exc:  # a malformed report must count, not abort the run
        return f"oracle failed on the report: {exc!r}"


def measure(workload, root: Path, work: Path, seconds: float, seed: int):
    """Run the job list in rounds, each in a fresh seeded order, for `seconds`.

    The first round always completes.  After it, a job starts only if its
    last time still fits before the deadline, so the run uses the whole
    window and every job has at least one sample.
    """
    env = child_env(root)
    bare = [sys.executable, "-c", "import equifred.cli"]
    stderr_path = work / "stderr.txt"
    spawn(bare, env, stderr_path)  # warm the bytecode cache first

    setup, rss = [], []
    per_job: list[list[float]] = [[] for _ in workload.jobs]
    failed = 0
    last_bare = time.perf_counter()
    deadline = last_bare + seconds
    shuffle = random.Random(seed)
    rounds = 0
    while True:
        for i in shuffle.sample(range(len(workload.jobs)), len(workload.jobs)):
            if rounds and time.perf_counter() + per_job[i][-1] > deadline:
                break
            # bare starts are spread over the whole run, so that setup_s
            # samples the same machine states as the jobs do
            if time.perf_counter() - last_bare >= SETUP_EVERY_S:
                setup.append(spawn(bare, env, stderr_path)[0])
                last_bare = time.perf_counter()
            job = workload.jobs[i]
            if job.report is not None:
                job.report.unlink(missing_ok=True)
            wall, rc, peak = spawn([sys.executable, "-m", "equifred", *job.argv], env, stderr_path)
            reason = check(job, rc, stderr_path.read_text())
            if reason is not None:
                failed += 1
                print(f"FAIL {job.name}: {reason}", file=sys.stderr)
            per_job[i].append(wall)
            rss.append(peak)
        else:
            rounds += 1
            continue
        break
    while len(setup) < SETUP_MIN_STARTS:
        setup.append(spawn(bare, env, stderr_path)[0])
    medians = [statistics.median(walls) for walls in per_job]
    top = [w for job, walls in zip(workload.jobs, per_job)
           if job.name.startswith(workload.top_job) for w in walls]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        # each job's median over the rounds, so one slow burst moves one
        # sample and a partial last round does not shift the mix of jobs
        "wall_s": (sum(medians), "s"),
        "job_p50_s": (statistics.median(medians), "s"),
        "top_job_s": (statistics.median(top), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    info = {"full_rounds": rounds, "jobs_per_round": len(workload.jobs),
            "job_runs": len(rss), "top_job_runs": len(top), "setup_starts": len(setup)}
    return metrics, len(rss), failed, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "equifred" / "cli.py").is_file():
        print("benchmarks/run.py: no src/equifred here; run it from the repository root",
              file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](work, np.random.default_rng(args.seed))
        print(json.dumps({"environment": environment()}))
        if args.trace:
            sys.path.insert(0, str(root / "src"))
            import tracing

            trace_dir = root / ".bench_trace"
            trace_dir.mkdir(exist_ok=True)
            trace_path = trace_dir / f"{args.workload}-{args.seed}.jsonl"
            layer, attempted, failed = tracing.traced_run(
                workload, child_env(root), check, trace_path)
            metrics = {name: (layer[name], unit) for name, unit in tracing.PER_LAYER}
            print(json.dumps({"spans": str(trace_path.relative_to(root)),
                              "computed_not_measured": tracing.COMPUTED}))
        else:
            metrics, attempted, failed, info = measure(workload, root, work, args.seconds, args.seed)
            print(json.dumps(info))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} 1")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
