"""chronoseq benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload {train,generate,zeroshot,audit} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The workload runs in a fresh child process
with a fixed environment (PYTHONHASHSEED=0, one BLAS/OpenMP thread, the
checkout's src/ on PYTHONPATH). With --trace 0 the last line of output holds
the end-to-end metrics; set-up is measured in that process and in two more
set-up-only processes, and the median is reported. With --trace 1 it holds
the per-layer metrics of a traced run, whose spans are written to
perfbench/results/. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
TIMEOUT_S = 170
SETUP_RUNS = 3


def child_env():
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return env


def run_child(args, timeout):
    """Last stdout line of a workload process, parsed; exits on any failure."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), *args], env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"workload process exceeded {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"workload process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description="chronoseq benchmark")
    ap.add_argument("--workload", required=True, choices=("train", "generate", "zeroshot", "audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke tests")
    args = ap.parse_args()
    if args.seed < 0:
        sys.exit("--seed must be non-negative")
    if not (ROOT / "src" / "chronoseq" / "__init__.py").is_file():
        sys.exit(f"{ROOT}: no src/chronoseq here; run from the root of a chronoseq checkout")

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work-dir", str(work)]
    if args.tiny:
        common.append("--tiny")
    try:
        if args.trace:
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            out = run_child([*common, "--seconds", str(args.seconds), "--trace", "1",
                             "--trace-out", str(results / f"trace-{args.workload}-seed{args.seed}.json")], TIMEOUT_S)
        else:
            out = run_child([*common, "--seconds", str(args.seconds), "--trace", "0"], TIMEOUT_S)
            setups = [out["metrics"]["setup_s"]["value"]]
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_child([*common, "--seconds", "0", "--setup-only"], 60)["setup_s"])
            out["metrics"]["setup_s"]["value"] = statistics.median(setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
