"""One fresh process of a benchmark run: set up, then run jobs in a closed loop.

    python3 bench/worker.py SPEC.json RESULT.json

SPEC holds the workload, the round of jobs, the run length, the run
directory and the package's src directory.  In-process workloads import
lbstates and run one untimed warm-up job (together the set-up time), then
call `cli_main` for each job with stdout captured.  The cli workload runs
each job as a fresh `python -m lbstates.cli` subprocess instead.  Whole
rounds are run for about the run length.  Outputs are left in the
run directory for the checker; this process checks nothing, so its peak
resident memory is the program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import jobs as joblib


def _job_paths(run_dir: str, k: int, job: dict) -> tuple:
    out = None
    if joblib.writes_file(job):
        ext = "json" if job["cmd"] == "scan-v" else job["format"]
        out = os.path.join(run_dir, f"job{k:04d}.{ext}")
    return out, os.path.join(run_dir, f"job{k:04d}.stdout")


def _written_bytes(job: dict, out: str | None) -> int:
    if out is None:
        return 0
    size = os.path.getsize(out)
    if job["cmd"] == "density" and job["format"] == "csv":
        size += os.path.getsize(out + ".meta.json")
    return size


def run_in_process(cli_main, job: dict, out: str | None) -> tuple:
    """(exit code, stdout text, stderr text, seconds) of one in-process job."""
    buf_out, buf_err = io.StringIO(), io.StringIO()
    args = joblib.argv(job, out)
    with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
        t0 = time.perf_counter()
        rc = cli_main(args)
        dt = time.perf_counter() - t0
    return rc, buf_out.getvalue(), buf_err.getvalue(), dt


def run_subprocess(job: dict, out: str | None, stdout_path: str, env: dict, cwd: str) -> tuple:
    args = [sys.executable, "-m", "lbstates.cli"] + joblib.argv(job, out)
    with open(stdout_path, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.run(args, stdout=fh, stderr=subprocess.PIPE, env=env, cwd=cwd,
                              timeout=120)
        dt = time.perf_counter() - t0
    return proc.returncode, proc.stderr.decode(errors="replace"), dt


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    run_dir, seconds = spec["run_dir"], spec["seconds"]
    workload, traced = spec["workload"], spec["trace"]
    subprocess_jobs = workload == "cli" and not traced
    result = {"jobs": []}

    if subprocess_jobs:
        env = dict(os.environ, PYTHONPATH=spec["src"])
        warm = spec["round"][0]
        out, stdout_path = _job_paths(run_dir, 9999, warm)
        run_subprocess(warm, out, stdout_path, env, run_dir)
    else:
        sys.path.insert(0, spec["src"])
        t0 = time.perf_counter()
        from lbstates.cli import cli_main
        warm = spec["warmup"]
        out, _ = _job_paths(run_dir, 9999, warm)
        rc, _, err, _ = run_in_process(cli_main, warm, out)
        result["setup_s"] = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"warm-up job failed: {err}")
        if spec.get("setup_only"):
            with open(result_path, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
            return 0

    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    def one(k, job, rnd, slot, probe=False):
        out, stdout_path = _job_paths(run_dir, k, job)
        if subprocess_jobs:
            rc, err, dt = run_subprocess(job, out, stdout_path, env, run_dir)
        else:
            call = lambda: run_in_process(cli_main, job, out)
            rc, text, err, dt = (tracer.run_job(k, job["cmd"], probe, call) if tracer else call())
            with open(stdout_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        result["jobs"].append({
            "k": k, "round": rnd, "slot": slot, "probe": probe, "seconds": dt, "rc": rc,
            "stderr": err[-2000:], "out": out, "stdout": stdout_path,
            "bytes": _written_bytes(job, out) + os.path.getsize(stdout_path),
        })

    # Whole rounds, without starting one that would end past the run length.
    k = 0
    rounds = []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for slot, job in enumerate(spec["round"]):
            one(k, job, len(rounds), slot)
            k += 1
        rounds.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    result["rounds"] = rounds
    who = resource.RUSAGE_CHILDREN if subprocess_jobs else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0

    if tracer is not None:
        for slot, job in enumerate(spec["probe"]):
            one(k, job, -1, slot, probe=True)
            k += 1
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.dump(spec["trace_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
