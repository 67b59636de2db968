"""Benchmark of the rigidflow engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in its own fresh process
(`worker.py`) with the BLAS and OpenMP thread pools pinned to one thread.
With `--trace 0` the result carries the end-to-end metrics of
BENCHMARK.json, with `--trace 1` the per-layer metrics of a traced run.
The last line printed is the result object of the workload; with
`--workload all` a table of every metric, by workload, name and unit, comes
first and the last line holds all results keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("refine-plane-64", "refine-mover-256", "loss-slanted-odd")
WORKER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_workload(name: str, args) -> tuple[list[str], dict]:
    """Run one workload in a child process; return its output lines and result."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RIGIDFLOW_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    # subprocess.run kills the child on timeout and waits for it to end
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != RESULT_KEYS:
        raise RuntimeError(f"workload {name} printed no result object")
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rigidflow benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--ops", type=int, default=None, help="stop after this many ops per phase (smoke runs)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    missing = [p for p in ("BENCHMARK.json", "src/rigidflow/__init__.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: checkout at {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            lines, _ = run_workload(args.workload, args)
            print("\n".join(lines))
            return 0
        results = {}
        for name in WORKLOADS:
            _, results[name] = run_workload(name, args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
