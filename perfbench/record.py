"""Record the benchmark's output references and its baseline.

    python3 perfbench/record.py reference
    python3 perfbench/record.py baseline

`reference` runs each workload's computation for seeds 0..REFERENCE_SEEDS-1
in this process and rewrites reference.json with the outputs the benchmark
checks against: per seed, the final loss terms, depth_abs_rel, flow_epe and
trace digest of a refine, or the loss totals of the first perturbations;
plus the band all recorded seeds span, which checks seeds and perturbations
that were not recorded.

`baseline` runs `run.py` for seeds 0..BASELINE_RUNS-1 on every workload,
traced and untraced, and rewrites baseline.json with the median, quartiles
and spread (interquartile range over median) of each end-to-end metric, and
the median of each per-layer metric, with the environment they were
measured in. It prints each spread and flags those above a third of the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

REFINE_RTOL = 1e-5  # final loss terms and recovery metrics after a whole refine
LOSS_RTOL = 1e-9  # one forward evaluate
BAND_SLACK = 0.25
REFERENCE_SEEDS = 32
BASELINE_RUNS = 10


def record_reference(name: str) -> dict:
    spec = worker.WORKLOADS[name]
    table = {}
    for seed in range(REFERENCE_SEEDS):
        case = worker.set_up(spec, seed)
        if spec["kind"] == "refine":
            state, trace = worker.refine_once(case, spec["iterations"], None, None, worker.Phase())
            table[str(seed)] = worker.refine_outcome(case, state, trace)
        else:
            gt = case.gt
            totals = []
            for index in range(worker.REFERENCE_PERTURBATIONS):
                report, _, _ = worker.optimize.evaluate(
                    worker.perturb(case.init, seed, index), gt.image_t, gt.image_t1, gt.intrinsics, worker.CONFIG, masks=case.frozen, want_grads=False
                )
                totals.append(float(report.total))
            table[str(seed)] = {"totals": totals}
        print(f"{name} seed {seed}: recorded", file=sys.stderr)
    entries = list(table.values())
    if spec["kind"] == "refine":
        band = {
            "total": [min(e["final"][-1] for e in entries), max(e["final"][-1] for e in entries)],
            "depth_abs_rel": [min(e["depth_abs_rel"] for e in entries), max(e["depth_abs_rel"] for e in entries)],
            "flow_epe": [min(e["flow_epe"] for e in entries), max(e["flow_epe"] for e in entries)],
        }
        rtol = REFINE_RTOL
    else:
        totals = [t for e in entries for t in e["totals"]]
        band = {"total": [min(totals), max(totals)]}
        rtol = LOSS_RTOL
    return {"rtol": rtol, "band_slack": BAND_SLACK, "band": band, "spec": spec, "seeds": table}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def run_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=200).stdout
    lines = out.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def record_baseline() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {"run_seconds": seconds, "seeds": list(range(BASELINE_RUNS)), "workloads": {}}
    for name in worker.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            runs_out = [run_once(name, seed, seconds, trace) for seed in range(BASELINE_RUNS)]
            out["environment"] = runs_out[-1]["detail"]["environment"]
            key = "end_to_end" if trace == 0 else "per_layer"
            metrics = {}
            for m in bench[key]:
                values = [r["result"]["metrics"][m["name"]]["value"] for r in runs_out]
                stats = quartiles(values)
                metrics[m["name"]] = stats if trace == 0 else {"median": stats["median"], "unit": m["unit"]}
                if trace == 0:
                    stats["unit"] = m["unit"]
                    stats["bound"] = m["bound"]
            entry[key] = metrics
            entry[f"all_correct_trace{trace}"] = all(r["result"]["correct"] for r in runs_out)
            entry[f"failed_trace{trace}"] = sum(r["result"]["failed"] for r in runs_out)
            if trace == 0:
                entry["tail_percentiles"] = [r["detail"]["tail_percentile"] for r in runs_out]
                for m, s in metrics.items():
                    flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- spread over bound/3"
                    print(f"{name} {m}: median {s['median']:.6g} spread {s['spread']:.4f} bound {s['bound']}{flag}",
                          file=sys.stderr)
        out["workloads"][name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="record benchmark references or baseline")
    ap.add_argument("what", choices=("reference", "baseline"))
    args = ap.parse_args(argv)
    if args.what == "reference":
        path = worker.REFERENCE_FILE
        data = {name: record_reference(name) for name in worker.WORKLOADS}
    else:
        path = HERE / "baseline.json"
        data = record_baseline()
    path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
