"""End-to-end acceptance checks for the engine.

Ten checks, one verdict line each (run with ``pytest -s`` to see the lines
for passing checks too). Each line states the measured quantity next to its
bound, so a transcript of this module doubles as a numbers report.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

from gradcheck import TERMS, WRTS, check_block, random_scene, suite_cfg
from oracles import depth_metrics_ref, flow_metrics_ref

from rigidflow.camera import Intrinsics, PoseSE3, invert, params_from_pose, pose_from_params, rigid_flow
from rigidflow.flowio import read_flo, read_pfm, write_flo, write_pfm
from rigidflow.losses import LossWeights
from rigidflow.masks import fb_check
from rigidflow.metrics import depth_metrics, flow_metrics
from rigidflow.optimize import OptimizerConfig, SceneState, evaluate, make_initial_state, refine
from rigidflow.scenes import preset, render


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


# ---------------------------------------------------------------------------
# 1. identity-pose rigid flow is zero


def test_01_identity_pose_rigid_flow_is_zero():
    rng = np.random.default_rng(1)
    depth = rng.uniform(2.0, 10.0, size=(256, 256))
    k = Intrinsics(200.0, 200.0, 127.5, 127.5)
    t0 = time.perf_counter()
    flow, valid = rigid_flow(depth, k, PoseSE3(np.eye(3), np.zeros(3)))
    dt = time.perf_counter() - t0
    worst = float(np.max(np.abs(flow)))
    ok = worst <= 1e-12 and bool(valid.all()) and dt < 1.0
    _verdict(1, "identity-pose rigid flow", ok,
             f"max |flow| {worst:.2e} (bound 1e-12), {dt * 1e3:.1f} ms at 256x256 (bound 1 s)")


# ---------------------------------------------------------------------------
# 2. closed-form flow of a fronto-parallel plane under x-translation


def test_02_fronto_parallel_plane_flow_is_closed_form():
    settings = (
        (100.0, 100.0, 31.5, 31.5, 5.0, 0.25),
        (120.0, 90.0, 30.0, 33.0, 2.0, -0.1),
        (250.0, 250.0, 10.0, 50.0, 8.0, 0.4),
        (80.0, 140.0, 40.0, 12.0, 3.5, 0.07),
        (500.0, 400.0, 63.0, 0.0, 12.0, -1.2),
    )
    worst = 0.0
    for fx, fy, cx, cy, d, tx in settings:
        k = Intrinsics(fx, fy, cx, cy)
        depth = np.full((64, 64), d)
        flow, valid = rigid_flow(depth, k, pose_from_params([0.0, 0.0, 0.0, tx, 0.0, 0.0]))
        assert valid.all()
        err_u = np.max(np.abs(flow[..., 0] - fx * tx / d))
        err_v = np.max(np.abs(flow[..., 1]))
        worst = max(worst, float(err_u), float(err_v))
    ok = worst < 1e-6
    _verdict(2, "fronto-parallel closed-form flow", ok,
             f"worst deviation from (fx*tx/d, 0) over 5 settings: {worst:.2e} (bound 1e-6)")


# ---------------------------------------------------------------------------
# 3. analytic gradients vs central finite differences


def test_03_gradient_suite_matches_finite_differences():
    rng = np.random.default_rng(515)
    t0 = time.perf_counter()
    worst, worst_at = 0.0, "-"
    cfg = suite_cfg()
    for seed in (11, 12, 13):
        scene = random_scene(seed)
        for term in TERMS:
            for wrt in WRTS:
                err, _ = check_block(scene, cfg, term, wrt, 100, rng)
                if err > worst:
                    worst, worst_at = err, f"{term}/{wrt} scene {seed}"
    dt = time.perf_counter() - t0
    ok = worst < 1e-3 and dt < 120.0
    _verdict(3, "analytic gradients vs central differences", ok,
             f"worst relative error {worst:.2e} at {worst_at} "
             f"(bound 1e-3; 5 terms x 3 variables x 100 coords x 3 scenes, h=1e-4), {dt:.1f} s (bound 120 s)")


# ---------------------------------------------------------------------------
# 4. joint recovery on the textured-plane fixture


def test_04_depth_and_rigid_flow_recovery():
    gt = render(preset("plane"))
    rng = np.random.default_rng(0)
    init = make_initial_state(gt, rng, depth_noise=0.2, flow_init="rigid")
    cfg = OptimizerConfig(iterations=2000, weights=LossWeights(3.0, 0.2, 0.2))
    t0 = time.perf_counter()
    state, trace = refine(gt.image_t, gt.image_t1, gt.intrinsics, init, cfg)
    dt = time.perf_counter() - t0
    abs_rel = depth_metrics(state.depth_t, gt.depth_t).abs_rel
    flow, valid_flow = rigid_flow(state.depth_t, gt.intrinsics, pose_from_params(state.pose_params))
    epe = flow_metrics(flow, gt.flow_fwd, mask=valid_flow).epe
    ok = abs_rel < 0.05 and epe < 0.5 and dt < 120.0 and len(trace) - 1 <= 2000
    _verdict(4, "depth and rigid-flow recovery", ok,
             f"abs_rel {abs_rel:.5f} (bound 0.05), rigid-flow EPE {epe:.4f} px (bound 0.5), "
             f"{len(trace) - 1} iterations in {dt:.1f} s (bound 120 s)")


# ---------------------------------------------------------------------------
# 5. cross-task coupling ablation, paired by seed


def _ablation_final_abs_rel(seed: int, lambda_c: float) -> float:
    gt = render(preset("plane"))
    rng = np.random.default_rng(seed)
    init = make_initial_state(gt, rng, depth_noise=0.2, flow_noise=0.3, flow_init="gt")
    cfg = OptimizerConfig(iterations=70, learning_rate=3e-3,
                          weights=LossWeights(3.0, 0.2, lambda_c))
    state, _ = refine(gt.image_t, gt.image_t1, gt.intrinsics, init, cfg)
    return depth_metrics(state.depth_t, gt.depth_t).abs_rel


def test_05_cross_task_term_improves_depth():
    # The flow starts at the true flow plus U[-0.3, 0.3] noise, so it carries
    # information the depth init (GT x U[0.8, 1.2]) lacks, and the cross-task
    # term is the only path through which depth's gradient sees the flow
    # fields at all. The shortened, slowed schedule (70 iterations at 3e-3)
    # compares the arms while that transport still matters; run much longer,
    # both arms reach the same texture-noise floor (abs_rel ~1e-3) and the
    # ordering decorrelates.
    results = []
    for seed in (0, 1, 2, 3, 4):
        with_cross = _ablation_final_abs_rel(seed, 0.2)
        without = _ablation_final_abs_rel(seed, 0.0)
        results.append((seed, with_cross, without))
    wins = sum(w < wo for _, w, wo in results)
    margin = min((wo - w) / wo for _, w, wo in results)
    ok = wins == 5
    _verdict(5, "cross-task ablation direction", ok,
             f"lambda_c=0.2 strictly below lambda_c=0 on {wins}/5 paired seeds "
             f"(need 5/5), worst paired margin {margin:+.1%}")


# ---------------------------------------------------------------------------
# 6. mover detection via forward-backward check on rigid flow


def test_06_mover_detection(mover_gt):
    fwd, _ = rigid_flow(mover_gt.depth_t, mover_gt.intrinsics, mover_gt.pose)
    bwd, _ = rigid_flow(mover_gt.depth_t1, mover_gt.intrinsics, invert(mover_gt.pose))
    valid = fb_check(fwd, bwd)
    mover = mover_gt.mover_mask
    static = ~mover & ~mover_gt.occlusion
    mover_flagged = float((~valid[mover]).mean())
    static_kept = float(valid[static].mean())
    ok = mover_flagged >= 0.90 and static_kept >= 0.95
    _verdict(6, "mover detection", ok,
             f"{mover_flagged:.1%} of mover pixels invalid (need >= 90%), "
             f"{static_kept:.1%} of static non-occluded pixels valid (need >= 95%)")


# ---------------------------------------------------------------------------
# 7. census photometric invariance to uniform brightness shifts


def test_07_photometric_brightness_invariance(mover_gt):
    gt = mover_gt
    state = SceneState(gt.depth_t, gt.depth_t1, params_from_pose(gt.pose),
                       gt.flow_fwd, gt.flow_bwd)
    cfg = OptimizerConfig()
    base, _, _ = evaluate(state, gt.image_t, gt.image_t1, gt.intrinsics, cfg, want_grads=False)
    worst = 0.0
    for shift in (0.1, -0.1):
        rep, _, _ = evaluate(state, gt.image_t + shift, gt.image_t1 + shift,
                             gt.intrinsics, cfg, want_grads=False)
        worst = max(worst, abs(rep.photometric - base.photometric))
    ok = worst < 1e-9
    _verdict(7, "photometric brightness invariance", ok,
             f"max |change| under +/-0.1 shift of both frames: {worst:.2e} (bound 1e-9)")


# ---------------------------------------------------------------------------
# 8. evaluation metrics vs independent scalar oracles


def test_08_metrics_match_scalar_oracles():
    bitwise = True
    for seed in (81, 82, 83):
        rng = np.random.default_rng(seed)
        est_d = rng.uniform(0.5, 80.0, size=(32, 32))
        gt_d = rng.uniform(0.5, 80.0, size=(32, 32))
        mask = rng.random((32, 32)) < 0.9
        for median_scale in (False, True):
            got = depth_metrics(est_d, gt_d, mask=mask, cap=50.0, median_scale=median_scale)
            ref = depth_metrics_ref(est_d, gt_d, mask=mask, cap=50.0, median_scale=median_scale)
            for field in ("abs_rel", "sq_rel", "rmse", "log_rmse", "a1", "a2", "a3"):
                bitwise &= getattr(got, field) == ref[field]
        est_f = rng.normal(0.0, 8.0, size=(32, 32, 2))
        gt_f = rng.normal(0.0, 8.0, size=(32, 32, 2))
        fmask = rng.random((32, 32)) < 0.9
        got_f = flow_metrics(est_f, gt_f, mask=fmask)
        ref_f = flow_metrics_ref(est_f, gt_f, mask=fmask)
        bitwise &= got_f.epe == ref_f["epe"] and got_f.f1 == ref_f["f1"]

    # outlier fraction needs BOTH a 3 px absolute excess and a 5% relative
    # one: a 4 px error on a 100 px vector is not an outlier, on a 10 px
    # vector it is
    gt_f1 = np.array([[[100.0, 0.0], [10.0, 0.0]]])
    est_f1 = gt_f1 + np.array([0.0, 4.0])
    f1 = flow_metrics(est_f1, gt_f1).f1
    hand = f1 == 0.5
    ok = bitwise and hand
    _verdict(8, "metric oracles", ok,
             f"bitwise match with scalar loops on 3 random 32x32 inputs: {bitwise}; "
             f"4 px error outlier at |gt|=10 but not |gt|=100 (f1 {f1} == 0.5): {hand}")


# ---------------------------------------------------------------------------
# 9. flow and depth file round trips


def test_09_io_round_trips(tmp_path):
    rng = np.random.default_rng(9)
    flo_ok = pfm_ok = True
    for i in range(100):
        h, w = rng.integers(1, 17, size=2)
        flow = rng.normal(0.0, 10.0, size=(h, w, 2)).astype(np.float32)
        p = tmp_path / f"f{i}.flo"
        write_flo(p, flow)
        back = read_flo(p)
        flo_ok &= back.dtype == np.float32 and back.tobytes() == flow.tobytes()
        field = rng.normal(0.0, 10.0, size=(h, w)).astype(np.float32)
        q = tmp_path / f"d{i}.pfm"
        write_pfm(q, field)
        back = read_pfm(q)
        pfm_ok &= back.dtype == np.float32 and back.tobytes() == field.tobytes()
    tiny = tmp_path / "tiny.flo"
    write_flo(tiny, np.zeros((1, 1, 2), dtype=np.float32))
    nbytes = tiny.stat().st_size
    ok = flo_ok and pfm_ok and nbytes == 20
    _verdict(9, "file I/O round trips", ok,
             f".flo bit-identical 100/100: {flo_ok}; PFM bit-identical 100/100: {pfm_ok}; "
             f"1x1 .flo is {nbytes} bytes (need exactly 20)")


# ---------------------------------------------------------------------------
# 10. bit-identical refinement traces across thread counts


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _threads_after_import(env) -> int:
    """The thread count of a child process that imported rigidflow under env."""
    code = "import rigidflow; print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_10_trace_determinism_across_thread_counts(tmp_path):
    envs = {n: dict(os.environ, **dict.fromkeys(THREAD_VARS, n)) for n in ("1", "4")}
    if sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) > 1:
        # the variables reach the BLAS pool: the two settings run apart
        counts = {n: _threads_after_import(env) for n, env in envs.items()}
        assert counts["1"] != counts["4"], f"thread counts after import: {counts}"
    blobs = []
    for threads, env in envs.items():
        for rep in ("a", "b"):
            trace = tmp_path / f"t{threads}{rep}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "rigidflow.cli", "refine",
                 "--preset", "plane", "--seed", "5",
                 "--set", "iterations=60", "--trace", str(trace)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            blobs.append(trace.read_bytes())
    ok = len(set(blobs)) == 1 and len(blobs[0]) > 0
    _verdict(10, "trace determinism", ok,
             f"4 runs (2 at 1 thread, 2 at 4 threads, same seed/config) produced "
             f"{len(set(blobs))} distinct trace file(s) of {len(blobs[0])} bytes (need 1)")
