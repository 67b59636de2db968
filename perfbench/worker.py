"""Run one benchmark workload in this process and print its result.

`run.py` starts this file in a fresh process with the BLAS thread pools
pinned to one thread; it is not meant to be started by hand. The engine is
imported from `src/` of the checkout this file sits in.

Each workload is a closed loop: one operation runs at a time, and the next
starts when the previous one has returned.

- refine workloads: an op is one iteration of `optimize.refine` (one
  evaluate, plus the Adam step of the previous iteration). Ops are timed
  between calls of refine's per-iteration callback; the lead-in of a refine
  (state copy, moment set-up) lands in its first op. Every refine of a run
  starts from the same seeded initial state, so every one must return the
  same trace, bit for bit.
- loss workload: an op is one forward `optimize.evaluate(..., masks=frozen,
  want_grads=False)` on a seeded perturbation of one state, a fresh one each
  op, except that every REPEAT_EVERY-th op evaluates one of the first
  REFERENCE_PERTURBATIONS again, so repeats are checked bit for bit.

Every op and every set-up is followed by a timing of the calibration kernel
(`calibrate.py`), outside the op's own time, in traced and untraced phases
alike.

The last line of standard output is the result object; the line before it
holds the run's details (environment, checks, tail percentile, and in a
traced run the full per-layer table).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from rigidflow import metrics, optimize, scenes  # noqa: E402
from calibrate import Kernel, local_scale  # noqa: E402
from tracer import SAMPLER_LAYERS, Tracer  # noqa: E402

# kernel_ms: the calibration kernel's reference time at the workload's image
# size, about the lowest run median seen on the 2-core Xeon the benchmark was
# written on; timings are reported as they would read at that speed
WORKLOADS = {
    "refine-plane-64": {"kind": "refine", "preset": "plane", "width": 64, "height": 64, "iterations": 40, "kernel_ms": 0.9},
    "refine-mover-256": {"kind": "refine", "preset": "mover", "width": 256, "height": 256, "iterations": 16, "kernel_ms": 11.0},
    "loss-slanted-odd": {"kind": "loss", "preset": "slanted", "width": 129, "height": 97, "kernel_ms": 2.2},
}
DEPTH_NOISE = 0.2
SETUP_REPEATS = 15  # set-ups timed back to back after the warm-up
WARMUP_ITERATIONS = 2  # one short refine before timing
WARMUP_EVALUATES = 3
REFERENCE_PERTURBATIONS = 16  # loss totals recorded per seed in reference.json
REPEAT_EVERY = 16
# a refine runs the kernel inside its callback, i.e. inside the refine span; in
# a traced run the kernel gets a span of this layer, which no metric counts
KERNEL_LAYER = "perfbench.kernel"
CONFIG = optimize.OptimizerConfig()  # 4 scales, defaults throughout

REFERENCE_FILE = HERE / "reference.json"
TERMS = ("photometric", "smooth", "forward_backward", "cross", "total")


@dataclass
class Case:
    """The inputs of one workload: rendered scene and seeded start state."""

    gt: object
    init: object
    frozen: list | None = None


@dataclass
class Phase:
    """What one timed phase measured and checked."""

    latencies: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)  # calibration timing after each op
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    skipped_steps: int = 0
    checks: dict = field(default_factory=dict)
    first: dict | None = None  # outcome of the first refine / report row of each perturbation


# -- inputs ------------------------------------------------------------------


def set_up(spec: dict, seed: int) -> Case:
    gt = scenes.render(scenes.preset(spec["preset"], width=spec["width"], height=spec["height"]))
    init = optimize.make_initial_state(gt, np.random.default_rng(seed), depth_noise=DEPTH_NOISE)
    case = Case(gt, init)
    if spec["kind"] == "loss":
        _, _, case.frozen = optimize.evaluate(init, gt.image_t, gt.image_t1, gt.intrinsics, CONFIG, want_grads=False)
    return case


def perturb(state, seed: int, j: int):
    """Small seeded perturbation j of state, inside the frozen masks' basin."""
    rng = np.random.default_rng([seed, j])
    shape = state.depth_t.shape
    return optimize.SceneState(
        depth_t=state.depth_t * (1.0 + rng.uniform(-0.01, 0.01, shape)),
        depth_t1=state.depth_t1 * (1.0 + rng.uniform(-0.01, 0.01, shape)),
        pose_params=state.pose_params + rng.uniform(-1e-3, 1e-3, 6),
        flow_fwd=state.flow_fwd + rng.uniform(-0.05, 0.05, shape + (2,)),
        flow_bwd=state.flow_bwd + rng.uniform(-0.05, 0.05, shape + (2,)),
    )


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def report_row(report) -> list:
    return [float(getattr(report, t)) for t in TERMS]


def recovery(case: Case, state) -> dict:
    gt = case.gt
    return {
        "depth_abs_rel": metrics.depth_metrics(state.depth_t, gt.depth_t).abs_rel,
        "flow_epe": metrics.flow_metrics(state.flow_fwd, gt.flow_fwd, ~gt.occlusion).epe,
    }


# -- operations --------------------------------------------------------------


def refine_once(case: Case, iterations: int, tracer: Tracer | None, time_kernel, phase: Phase):
    """One refine; appends its op latencies to phase. Returns (state, trace).

    The calibration kernel runs inside the callback, between two ops, and is
    left out of both ops' latencies."""
    gt = case.gt
    resumed = [time.perf_counter()]

    def tick(it, state, report):
        phase.latencies.append(time.perf_counter() - resumed[0])
        if it < iterations and report.total < CONFIG.converge_tol:
            phase.skipped_steps += 1
        if tracer is not None:
            tracer.op += 1
        if time_kernel is not None:
            phase.kernel_s.append(time_kernel())
        resumed[0] = time.perf_counter()

    cfg = optimize.OptimizerConfig(iterations=iterations)
    return optimize.refine(gt.image_t, gt.image_t1, gt.intrinsics, case.init, cfg, callback=tick)


def refine_outcome(case: Case, state, trace) -> dict:
    return {
        "final": report_row(trace[-1]),
        **recovery(case, state),
        "trace_sha256": digest([report_row(r) for r in trace]),
        "state_sha256": digest(state.depth_t, state.depth_t1, state.pose_params, state.flow_fwd, state.flow_bwd),
    }


def run_refines(run: Run, case: Case, tracer: Tracer | None) -> Phase:
    spec = run.spec
    iterations = spec["iterations"] if run.max_ops is None else max(1, min(spec["iterations"], run.max_ops - 1))
    full_length = iterations == spec["iterations"]
    time_kernel = run.kernel.time if tracer is None else tracer.wrap(run.kernel.time, KERNEL_LAYER)
    phase = Phase()
    phase.checks = {"diverged": 0, "loss_not_decreased": 0, "not_repeatable": 0, "reference_mismatch": 0}
    while True:
        ops = iterations + 1
        phase.attempted += ops
        try:
            state, trace = refine_once(case, iterations, tracer, time_kernel, phase)
        except optimize.DivergenceError as exc:
            phase.failed += ops
            phase.checks["diverged"] += 1
            phase.checks["divergence"] = str(exc)
            break
        phase.busy_s = sum(phase.latencies)
        outcome = refine_outcome(case, state, trace)
        # a refine cut short by --ops may not have descended yet
        ok = trace[-1].total < trace[0].total or not full_length
        phase.checks["loss_not_decreased"] += not ok
        if phase.first is None:
            phase.first = outcome
            verdict = check_refine(outcome, run.reference, full_length)
            phase.checks["reference"] = verdict
            if not verdict["ok"]:
                phase.checks["reference_mismatch"] += 1
                ok = False
        elif (outcome["trace_sha256"], outcome["state_sha256"]) != (
            phase.first["trace_sha256"],
            phase.first["state_sha256"],
        ):
            phase.checks["not_repeatable"] += 1
            ok = False
        if not ok:
            phase.failed += ops
        refines = len(phase.latencies) // ops
        if run.max_ops is not None or phase.busy_s * (refines + 1) / refines > run.seconds:
            break
    return phase


def loss_sequence(j: int) -> int:
    """Perturbation evaluated by op j of a loss phase."""
    if j % REPEAT_EVERY == REPEAT_EVERY - 1:
        return (j // REPEAT_EVERY) % REFERENCE_PERTURBATIONS
    return j - j // REPEAT_EVERY


def run_losses(run: Run, case: Case, tracer: Tracer | None) -> Phase:
    gt = case.gt
    phase = Phase()
    phase.checks = {"non_finite": 0, "not_repeatable": 0, "reference_mismatch": 0, "reference_mode": run.reference["mode"]}
    phase.first = {}
    j = 0
    while phase.busy_s < run.seconds if run.max_ops is None else j < run.max_ops:
        index = loss_sequence(j)
        state = perturb(case.init, run.seed, index)
        phase.attempted += 1
        start = time.perf_counter()
        try:
            report, _, _ = optimize.evaluate(
                state, gt.image_t, gt.image_t1, gt.intrinsics, CONFIG, masks=case.frozen, want_grads=False
            )
        except optimize.NonFiniteLossError:
            report = None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op += 1
        phase.kernel_s.append(run.kernel.time())
        phase.latencies.append(elapsed)
        phase.busy_s += elapsed
        j += 1
        if report is None:
            phase.failed += 1
            phase.checks["non_finite"] += 1
            continue
        row = report_row(report)
        if index in phase.first:
            ok = row == phase.first[index]
            phase.checks["not_repeatable"] += not ok
        else:
            phase.first[index] = row
            ok = check_total(row[-1], index, run.reference)
            phase.checks["reference_mismatch"] += not ok
        phase.failed += not ok
    return phase


# -- output checks -----------------------------------------------------------


def load_reference(name: str, seed: int) -> dict:
    """Reference entry for this workload: exact values for recorded seeds,
    otherwise the band spanned by all recorded seeds."""
    if not REFERENCE_FILE.is_file():
        return {"mode": "missing"}
    table = json.loads(REFERENCE_FILE.read_text()).get(name)
    if table is None:
        return {"mode": "missing"}
    exact = table["seeds"].get(str(seed))
    common = {"rtol": table["rtol"], "band": table["band"], "band_slack": table["band_slack"]}
    if exact is not None:
        return {"mode": "exact", "values": exact, **common}
    return {"mode": "band", **common}


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def _in_band(value: float, band, slack: float) -> bool:
    lo, hi = band
    return lo * (1.0 - slack) <= value <= hi * (1.0 + slack)


def check_refine(outcome: dict, reference: dict, full_length: bool) -> dict:
    mode = reference["mode"] if full_length else "skipped"
    verdict = {"mode": mode, "ok": True}
    if mode == "exact":
        ref = reference["values"]
        rtol = reference["rtol"]
        bad = [t for t, v, r in zip(TERMS, outcome["final"], ref["final"]) if not _close(v, r, rtol)]
        bad += [k for k in ("depth_abs_rel", "flow_epe") if not _close(outcome[k], ref[k], rtol)]
        verdict.update(ok=not bad, mismatched=bad, rtol=rtol)
        verdict["trace_bit_identical"] = outcome["trace_sha256"] == ref["trace_sha256"]
    elif mode == "band":
        band, slack = reference["band"], reference["band_slack"]
        values = {"total": outcome["final"][-1], "depth_abs_rel": outcome["depth_abs_rel"], "flow_epe": outcome["flow_epe"]}
        bad = [k for k, v in values.items() if not _in_band(v, band[k], slack)]
        verdict.update(ok=not bad, mismatched=bad, slack=slack)
    elif mode == "missing":
        verdict["ok"] = False
    return verdict


def check_total(total: float, index: int, reference: dict) -> bool:
    """Perturbations the reference recorded match it; the others fall in its band."""
    if not np.isfinite(total):
        return False
    if reference["mode"] == "exact" and index < len(reference["values"]["totals"]):
        return _close(total, reference["values"]["totals"][index], reference["rtol"])
    if reference["mode"] in ("exact", "band"):
        return _in_band(total, reference["band"]["total"], reference["band_slack"])
    return False


# -- measurement -------------------------------------------------------------


@dataclass
class Run:
    """Settings of one benchmark run, and its set-up time samples."""

    spec: dict
    seed: int
    seconds: float
    max_ops: int | None
    reference: dict
    kernel: Kernel
    setup_times: list = field(default_factory=list)
    setup_kernel_s: list = field(default_factory=list)  # calibration timing after each set-up

    def time_setups(self, count: int) -> None:
        """Set up `count` times back to back, each followed by a kernel timing."""
        for _ in range(count):
            start = time.perf_counter()
            set_up(self.spec, self.seed)
            self.setup_times.append(time.perf_counter() - start)
            self.setup_kernel_s.append(self.kernel.time())


def warm_up(run: Run, case: Case) -> None:
    if run.spec["kind"] == "refine":
        refine_once(case, WARMUP_ITERATIONS, None, run.kernel.time, Phase())
    else:
        gt = case.gt
        for _ in range(WARMUP_EVALUATES):
            # the unperturbed state, which no timed op evaluates
            optimize.evaluate(case.init, gt.image_t, gt.image_t1, gt.intrinsics, CONFIG, masks=case.frozen, want_grads=False)
            run.kernel.time()


def run_phase(run: Run, case: Case, tracer: Tracer | None = None) -> Phase:
    runner = run_refines if run.spec["kind"] == "refine" else run_losses
    return runner(run, case, tracer)


def tail_latency(latencies_s):
    """Latency at the highest percentile with at least 10 samples beyond it.

    Runs with fewer than 21 samples have no such percentile above the
    median; they report the median."""
    ordered = sorted(latencies_s)
    n = len(ordered)
    k = max(n - 11, (n - 1) // 2)
    return ordered[k], 100.0 * (k + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(phase: Phase, run: Run, case: Case) -> tuple[dict, dict]:
    """End-to-end metrics; timings at the machine's reference speed."""
    spec = run.spec
    latencies = (np.asarray(phase.latencies) * local_scale(phase.kernel_s, spec["kernel_ms"])).tolist()
    setups = np.asarray(run.setup_times) * local_scale(run.setup_kernel_s, spec["kernel_ms"])
    tail_s, tail_pct, n = tail_latency(latencies)
    if spec["kind"] == "refine" and phase.first is not None:
        quality = {k: phase.first[k] for k in ("depth_abs_rel", "flow_epe")}
    else:
        # the loss workload reports the evaluated state's own error; a refine
        # that diverged returned no state, so its input is the best estimate
        quality = recovery(case, case.init)
    values = {
        "setup_s": float(np.median(setups)),
        "ops_per_s": n / sum(latencies),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * tail_s,
        **quality,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - phase.failed / phase.attempted,
    }
    extra = {
        "tail_percentile": tail_pct,
        "latency_samples": n,
        "setup_samples_s": run.setup_times,
        "kernel_ms_median": 1e3 * statistics.median(phase.kernel_s),
        "unscaled": {
            "setup_s": statistics.median(run.setup_times),
            "ops_per_s": n / phase.busy_s,
            "op_ms_p50": 1e3 * statistics.median(phase.latencies),
            "op_ms_tail": 1e3 * tail_latency(phase.latencies)[0],
        },
    }
    return values, extra


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase, kernel_ms: float) -> tuple[dict, dict]:
    """Per-op layer metrics of the traced phase; set-up layers per set-up (one is traced)."""
    table = tracer.layer_table()
    table.pop(KERNEL_LAYER, None)
    n = len(traced.latencies)
    values = {}
    for layer, row in table.items():
        if layer.startswith("scenes."):
            values[f"{layer}.calls"] = row["setup_calls"]
            values[f"{layer}.self_s"] = row["setup_self_ns"] / 1e9
        else:
            values[f"{layer}.calls"] = row["calls"] / n
            values[f"{layer}.self_s"] = row["self_ns"] / 1e9 / n
    counters = tracer.counters
    op_spans = sum(row["calls"] for row in table.values())
    op_self_ns = sum(row["self_ns"] for row in table.values())
    # both rates at the machine's reference speed, scaled alike, as ops_per_s is
    traced_rate, untraced_rate = (
        len(p.latencies) / float(np.sum(np.asarray(p.latencies) * local_scale(p.kernel_s, kernel_ms)))
        for p in (traced, untraced)
    )
    values.update(
        {
            "sampling.cell_calls": sum(table.get(layer, {"calls": 0})["calls"] for layer in SAMPLER_LAYERS) / n,
            "sampling.px_sampled": counters["px_sampled"] / n,
            "masks.valid_frac": counters["fb_passed"] / counters["fb_checked"] if counters["fb_checked"] else 0.0,
            "losses.degenerate": counters["degenerate"] / n,
            "optimize.skipped_steps": traced.skipped_steps / n,
            "trace.wrapped_calls": op_spans / n,
            "trace.self_cover_frac": op_self_ns / 1e9 / traced.busy_s,
            "trace.ops_per_s": traced_rate,
            "trace.untraced_ops_per_s": untraced_rate,
            "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
            "machine.kernel_ms": 1e3 * statistics.median(untraced.kernel_s),
        }
    )
    extra = {"layers": {k: v for k, v in sorted(table.items())}, "traced_ops": n}
    return values, extra


def pick(values: dict, wanted: list) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with its units.

    A layer the engine no longer has reads 0 calls and 0 s."""
    out = {}
    for m in wanted:
        name = m["name"]
        if name not in values and not name.endswith((".calls", ".self_s")):
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--ops", type=int, default=None, help="stop after this many ops per phase (smoke runs)")
    args = ap.parse_args(argv)
    if args.ops is not None and args.ops < 2:
        ap.error("--ops must be at least 2")
    if Path(optimize.__file__).resolve().parent != ROOT / "src" / "rigidflow":
        raise SystemExit(f"rigidflow was imported from {optimize.__file__}, not from this checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = WORKLOADS[args.workload]
    reference = load_reference(args.workload, args.seed)
    repeats = 1 if args.ops is not None else SETUP_REPEATS

    seconds = args.seconds if not args.trace else args.seconds / 2.0
    run = Run(spec, args.seed, seconds, args.ops, reference, Kernel(spec["height"], spec["width"]))
    # the first set-up runs cold; the timed ones follow the warm-up
    case = set_up(spec, args.seed)
    if args.ops is None:
        warm_up(run, case)
    run.time_setups(repeats)
    phase = run_phase(run, case)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **spec}
    detail["environment"] = environment()
    detail["checks"] = phase.checks
    attempted, failed = phase.attempted, phase.failed
    correct = failed == 0

    if not args.trace:
        values, extra = end_to_end(phase, run, case)
        detail.update(extra)
        result_metrics = pick(values, bench["end_to_end"])
    else:
        tracer = Tracer()
        tracer.install()
        try:
            case_t = set_up(spec, args.seed)
            tracer.op = 0
            traced = run_phase(run, case_t, tracer)
        finally:
            tracer.uninstall()
        same = (
            traced.first["state_sha256"] == phase.first["state_sha256"]
            if spec["kind"] == "refine"
            else all(traced.first[s] == phase.first[s] for s in traced.first if s in phase.first)
        )
        values, extra = per_layer(tracer, traced, phase, spec["kernel_ms"])
        cover = values["trace.self_cover_frac"]
        detail.update(extra)
        detail["traced_checks"] = traced.checks
        detail["traced_matches_untraced"] = same
        detail["self_cover_ok"] = abs(cover - 1.0) <= 0.05
        attempted += traced.attempted
        failed += traced.failed
        correct = failed == 0 and same and detail["self_cover_ok"]
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        result_metrics = pick(values, bench["per_layer"])

    result = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": result_metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1)
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
