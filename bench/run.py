"""lbstates benchmark: seeded closed-loop jobs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/ without
installing it.  One client runs the workload's round of jobs again and
again in a fresh worker process until S seconds have passed, then every
output is checked against the oracles in bench/oracles.py.  The last line
of stdout is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as joblib  # noqa: E402

SETUP_SAMPLES = 3
IMPORT_MODULES = {"lbstates": "import.lbstates_s", "scipy.sparse": "import.scipy_sparse_s",
                  "scipy.integrate": "import.scipy_integrate_s"}
WORKER_TIMEOUT = 170
IMPORT_SNIPPET = ("import time; t0 = time.perf_counter(); import lbstates; "
                  "print(time.perf_counter() - t0)")


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=src)


def run_worker(spec: dict, run_dir: str, name: str) -> dict:
    spec_path = os.path.join(run_dir, f"{name}.spec.json")
    result_path = os.path.join(run_dir, f"{name}.result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    # The worker gets its own process group, so that on a timeout the job
    # processes it started are stopped with it.
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), spec_path,
                             result_path], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=run_dir, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for _ in range(100):  # until the group's other processes are gone too
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} failed:\n{err.decode(errors='replace')}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def bare_import_seconds(src: str, run_dir: str) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=_env(src), cwd=run_dir, timeout=60, check=True)
    return float(proc.stdout.decode().strip())


def import_layers(src: str, run_dir: str) -> dict:
    """Cumulative import times from `-X importtime`, median of SETUP_SAMPLES."""
    samples = {key: [] for key in IMPORT_MODULES.values()}
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lbstates"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(src),
                              cwd=run_dir, timeout=60, check=True)
        for line in proc.stderr.decode().splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m and m.group(2) in IMPORT_MODULES:
                samples[IMPORT_MODULES[m.group(2)]].append(int(m.group(1)) / 1e6)
    return {key: statistics.median(vals) for key, vals in samples.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lbstates", "__init__.py")):
        sys.stderr.write(f"no lbstates package under {src}: run from the root of a checkout\n")
        return 2
    sys.path.insert(0, src)
    import verify  # imports numpy; lbstates is imported lazily by the checks

    compileall.compile_dir(os.path.join(src, "lbstates"), quiet=1)
    out_root = os.path.join(root, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_root)
    try:
        return measure(args, src, run_dir, out_root, verify)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, src: str, run_dir: str, out_root: str, verify) -> int:
    rnd = joblib.round_jobs(args.workload, args.seed)
    probe = joblib.probe_jobs(args.seed)
    spec = {"workload": args.workload, "seconds": args.seconds, "run_dir": run_dir, "src": src,
            "round": rnd, "warmup": joblib.warmup_job(args.workload), "trace": bool(args.trace),
            "probe": probe,
            "trace_path": os.path.join(out_root, f"trace-{args.workload}-{args.seed}.json")}

    setup = []
    if not args.trace:
        for i in range(SETUP_SAMPLES if args.workload == "cli" else SETUP_SAMPLES - 1):
            if args.workload == "cli":
                setup.append(bare_import_seconds(src, run_dir))
            else:
                setup.append(run_worker(dict(spec, setup_only=True), run_dir, f"setup{i}")["setup_s"])
    result = run_worker(spec, run_dir, "main")
    if "setup_s" in result and not args.trace:
        setup.append(result["setup_s"])

    checker = verify.Checker(args.seed)
    records = result["jobs"]
    failed = 0
    wrong = 0
    for rec in records:
        job = (probe if rec["probe"] else rnd)[rec["slot"]]
        problems = checker.check_job(job, rec)
        if rec["rc"] != 0:
            failed += 1
        elif problems:
            wrong += 1
        for p in problems[:5]:
            sys.stderr.write(f"job {rec['k']} ({' '.join(joblib.argv(job, None))}): {p}\n")

    own = [r for r in records if not r["probe"]]
    if args.trace:
        metrics = dict(result["layers"])
        metrics.update(import_layers(src, run_dir))
        units = {k: _layer_unit(k) for k in metrics}
        extra = {"jobs_per_s (traced)": len(rnd) / typical_round_seconds(own)}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "jobs_per_s": len(rnd) / typical_round_seconds(own),
            "job_p50_s": statistics.median(r["seconds"] for r in own),
            "peak_rss_mb": result["peak_rss_mb"],
            "output_mb": sum(r["bytes"] for r in own) / len(own) / 1e6,
        }
        units = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_s": "s", "peak_rss_mb": "MB",
                 "output_mb": "MB/job"}
        extra = {"rounds": len(result["rounds"]), "job samples": len(own)}

    for key, value in {**metrics, **extra}.items():
        print(f"{args.workload:15s} {key:48s} {value:14.6g} {units.get(key, '')}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(own),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def typical_round_seconds(records: list) -> float:
    """Sum over the slots of a round of each slot's median job time: the
    round time of the closed loop with each job's run-to-run noise taken
    out by its median over the rounds."""
    by_slot = {}
    for rec in records:
        by_slot.setdefault(rec["slot"], []).append(rec["seconds"])
    return sum(statistics.median(times) for times in by_slot.values())


def _layer_unit(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflop"):
        return "Gflop"
    if name.endswith("_per_job"):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
