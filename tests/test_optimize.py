import numpy as np
import pytest

from rigidflow.losses import LossWeights
from rigidflow.optimize import (
    AdamMoments,
    DivergenceError,
    OptimizerConfig,
    SceneState,
    evaluate,
    make_initial_state,
    refine,
    step,
)
from rigidflow.scenes import preset, render

from conftest import state_from_gt


def small_cfg(**kwargs):
    defaults = dict(iterations=8, scales=2, cross_scales=2)
    defaults.update(kwargs)
    return OptimizerConfig(**defaults)


# ---------------------------------------------------------------------------
# state plumbing


def test_scene_state_validation():
    good = dict(
        depth_t=np.ones((4, 4)),
        depth_t1=np.ones((4, 4)),
        pose_params=np.zeros(6),
        flow_fwd=np.zeros((4, 4, 2)),
        flow_bwd=np.zeros((4, 4, 2)),
    )
    SceneState(**good)
    with pytest.raises(ValueError, match="positive"):
        SceneState(**{**good, "depth_t": np.zeros((4, 4))})
    with pytest.raises(ValueError, match="6-vector"):
        SceneState(**{**good, "pose_params": np.zeros(5)})
    with pytest.raises(ValueError, match="matching"):
        SceneState(**{**good, "flow_fwd": np.zeros((5, 4, 2))})
    for name, value in good.items():
        for bad in (np.nan, np.inf):
            field = value.copy()
            field.flat[1] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                SceneState(**{**good, name: field})


def test_scene_state_copy_is_deep(plane_gt):
    state = state_from_gt(plane_gt)
    other = state.copy()
    other.depth_t[0, 0] = 99.0
    assert state.depth_t[0, 0] != 99.0


def test_make_initial_state_bounds(plane_gt):
    rng = np.random.default_rng(0)
    init = make_initial_state(plane_gt, rng, depth_noise=0.2)
    ratio = init.depth_t / plane_gt.depth_t
    assert ratio.min() >= 0.8 and ratio.max() <= 1.2
    assert ratio.std() > 0.01  # actually perturbed
    assert np.array_equal(init.pose_params[3:], np.asarray([0.4, 0.0, 0.0]))


def test_make_initial_state_flow_modes(plane_gt):
    rng = np.random.default_rng(1)
    gt_flow = make_initial_state(plane_gt, rng, flow_init="gt")
    assert np.array_equal(gt_flow.flow_fwd, plane_gt.flow_fwd)
    rng = np.random.default_rng(1)
    noisy = make_initial_state(plane_gt, rng, flow_init="gt", flow_noise=0.5)
    gap = np.abs(noisy.flow_fwd - plane_gt.flow_fwd)
    assert gap.max() <= 0.5 and gap.max() > 0.1
    with pytest.raises(ValueError, match="flow_init"):
        make_initial_state(plane_gt, rng, flow_init="telepathy")


def test_optimizer_config_validation():
    with pytest.raises(ValueError, match="betas"):
        OptimizerConfig(beta1=1.0)
    with pytest.raises(ValueError, match="positive"):
        OptimizerConfig(learning_rate=0.0)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_gradient_shapes(plane_gt):
    state = state_from_gt(plane_gt)
    report, grad, masks = evaluate(
        state, plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics, small_cfg()
    )
    assert np.isfinite(report.total)
    assert grad.depth_t.shape == (64, 64)
    assert grad.pose_params.shape == (6,)
    assert grad.flow_fwd.shape == (64, 64, 2)
    assert len(masks) == 2


@pytest.mark.parametrize("scales", [4, 5, 6])
def test_evaluate_rejects_scales_too_deep_for_the_image(scales):
    gt = render(preset("plane", width=12, height=12))
    args = (state_from_gt(gt), gt.image_t, gt.image_t1, gt.intrinsics, OptimizerConfig(scales=scales))
    if scales == 4:
        # 12 -> 6 -> 3 -> 2: no level has a side of 1
        report, _, masks = evaluate(*args)
        assert np.isfinite(report.total)
        assert masks[-1].flow_fwd.shape == (2, 2)
    else:
        with pytest.raises(ValueError, match=f"^scales={scales} .* got 12x12"):
            evaluate(*args)


def test_evaluate_gradient_matches_fd_with_frozen_masks(plane_gt):
    rng = np.random.default_rng(2)
    # pose_noise keeps the warp coordinates off the integer lattice: at the
    # exact ground-truth pose this scene has v = 0 everywhere, every sample
    # sits on a bilinear kink, and finite differences straddle it.
    state = make_initial_state(
        plane_gt, rng, depth_noise=0.15, pose_noise=0.02, flow_init="gt", flow_noise=0.4
    )
    cfg = small_cfg()
    args = (plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics)
    _, grad, masks = evaluate(state, *args, cfg)

    def total_at(s):
        rep, _, _ = evaluate(s, *args, cfg, masks=masks, want_grads=False)
        return rep.total

    h = 1e-5
    checked = 0
    for y, x in [(5, 7), (20, 33), (50, 12), (40, 59)]:
        for fieldname in ("depth_t", "flow_fwd"):
            plus = state.copy()
            minus = state.copy()
            if fieldname == "depth_t":
                plus.depth_t[y, x] += h
                minus.depth_t[y, x] -= h
                analytic = grad.depth_t[y, x]
            else:
                plus.flow_fwd[y, x, 0] += h
                minus.flow_fwd[y, x, 0] -= h
                analytic = grad.flow_fwd[y, x, 0]
            fd = (total_at(plus) - total_at(minus)) / (2 * h)
            scale = max(abs(fd), abs(analytic), 1e-8)
            assert abs(analytic - fd) / scale < 1e-3, (fieldname, y, x)
            checked += 1
    for i in range(6):
        params_plus = state.pose_params.copy()
        params_plus[i] += h
        params_minus = state.pose_params.copy()
        params_minus[i] -= h
        plus, minus = state.copy(), state.copy()
        plus.pose_params = params_plus
        minus.pose_params = params_minus
        fd = (total_at(plus) - total_at(minus)) / (2 * h)
        scale = max(abs(fd), abs(grad.pose_params[i]), 1e-8)
        assert abs(grad.pose_params[i] - fd) / scale < 1e-3, ("pose", i)
        checked += 1
    assert checked == 14


# ---------------------------------------------------------------------------
# step


def zero_grad_like(state):
    from rigidflow.optimize import StateGrad

    return StateGrad(
        depth_t=np.zeros_like(state.depth_t),
        depth_t1=np.zeros_like(state.depth_t1),
        pose_params=np.zeros(6),
        flow_fwd=np.zeros_like(state.flow_fwd),
        flow_bwd=np.zeros_like(state.flow_bwd),
    )


def test_step_with_zero_gradient_keeps_state(plane_gt):
    state = state_from_gt(plane_gt)
    moments = AdamMoments.zeros(state)
    new_state, new_moments = step(state, zero_grad_like(state), moments)
    assert np.array_equal(new_state.depth_t, state.depth_t)
    assert np.array_equal(new_state.pose_params, state.pose_params)
    assert np.array_equal(new_state.flow_fwd, state.flow_fwd)
    assert new_moments.count == 1


def test_first_step_is_signed_learning_rate(plane_gt):
    # from zero moments the bias-corrected Adam update is lr * g / (|g| + eps)
    state = state_from_gt(plane_gt)
    grad = zero_grad_like(state)
    grad.flow_fwd[3, 3, 0] = 0.25
    cfg = OptimizerConfig(learning_rate=1e-2)
    new_state, _ = step(state, grad, AdamMoments.zeros(state), cfg)
    want = state.flow_fwd[3, 3, 0] - 1e-2 * 0.25 / (0.25 + cfg.adam_eps)
    assert abs(new_state.flow_fwd[3, 3, 0] - want) < 1e-15
    untouched = np.ones((64, 64, 2), bool)
    untouched[3, 3, 0] = False
    assert np.array_equal(new_state.flow_fwd[untouched], state.flow_fwd[untouched])


def test_depth_updates_run_in_log_space(plane_gt):
    state = state_from_gt(plane_gt)
    grad = zero_grad_like(state)
    grad.depth_t[2, 2] = 1.0  # chain rule: log-space gradient is d * dL/dd
    cfg = OptimizerConfig(learning_rate=0.1)
    new_state, _ = step(state, grad, AdamMoments.zeros(state), cfg)
    g_log = 1.0 * state.depth_t[2, 2]
    want = state.depth_t[2, 2] * np.exp(-0.1 * g_log / (g_log + cfg.adam_eps))
    assert abs(new_state.depth_t[2, 2] - want) < 1e-12
    assert new_state.depth_t[2, 2] > 0.0


def test_step_does_not_mutate_inputs(plane_gt):
    state = state_from_gt(plane_gt)
    snapshot = state.copy()
    grad = zero_grad_like(state)
    grad.flow_fwd[...] = 0.5
    moments = AdamMoments.zeros(state)
    step(state, grad, moments)
    assert np.array_equal(state.flow_fwd, snapshot.flow_fwd)
    assert moments.count == 0
    assert not moments.m["flow_fwd"].any()


# ---------------------------------------------------------------------------
# refine


def test_refine_trace_length_and_callback(plane_gt):
    state = state_from_gt(plane_gt)
    seen = []
    _, trace = refine(
        plane_gt.image_t,
        plane_gt.image_t1,
        plane_gt.intrinsics,
        state,
        small_cfg(iterations=5),
        callback=lambda it, s, rep: seen.append(it),
    )
    assert len(trace) == 6
    assert seen == list(range(6))


def test_refine_from_ground_truth_stays_flat(plane_gt):
    state = state_from_gt(plane_gt)
    _, trace = refine(
        plane_gt.image_t,
        plane_gt.image_t1,
        plane_gt.intrinsics,
        state,
        small_cfg(iterations=10, scales=4, cross_scales=4),
    )
    assert all(rep.total < 1e-4 for rep in trace)


def test_first_step_decreases_loss(plane_gt):
    rng = np.random.default_rng(3)
    state = make_initial_state(plane_gt, rng, depth_noise=0.15)
    _, trace = refine(
        plane_gt.image_t,
        plane_gt.image_t1,
        plane_gt.intrinsics,
        state,
        small_cfg(iterations=1, learning_rate=1e-4),
    )
    assert trace[1].total < trace[0].total


def test_refine_is_deterministic(plane_gt):
    rng = np.random.default_rng(4)
    init = make_initial_state(plane_gt, rng, depth_noise=0.2)
    runs = []
    for _ in range(2):
        _, trace = refine(
            plane_gt.image_t,
            plane_gt.image_t1,
            plane_gt.intrinsics,
            init.copy(),
            small_cfg(iterations=6),
        )
        runs.append(trace)
    for a, b in zip(*runs):
        assert (a.photometric, a.smooth, a.forward_backward, a.cross, a.total) == (
            b.photometric,
            b.smooth,
            b.forward_backward,
            b.cross,
            b.total,
        )


def test_divergence_carries_partial_trace(plane_gt):
    rng = np.random.default_rng(5)
    state = make_initial_state(plane_gt, rng, depth_noise=0.2)
    with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
        refine(
            plane_gt.image_t,
            plane_gt.image_t1,
            plane_gt.intrinsics,
            state,
            small_cfg(iterations=50, learning_rate=1e3),
        )
    assert len(err.value.trace) >= 1
    assert np.isfinite(err.value.trace[0].total)


def test_step_to_a_non_finite_state_is_divergence(plane_gt, monkeypatch):
    import rigidflow.optimize as optimize

    evaluate_finite = optimize.evaluate

    def evaluate_nan_grad(*args, **kwargs):
        report, grad, masks = evaluate_finite(*args, **kwargs)
        if grad is not None:
            grad.flow_fwd[5, 5, 0] = np.nan
        return report, grad, masks

    monkeypatch.setattr(optimize, "evaluate", evaluate_nan_grad)
    state = make_initial_state(plane_gt, np.random.default_rng(0))
    with pytest.raises(DivergenceError, match="iteration 0: flow_fwd must be finite") as err:
        refine(plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics, state, small_cfg())
    assert len(err.value.trace) == 1


def test_refine_recovers_depth_quickly(plane_gt):
    from rigidflow.metrics import depth_metrics

    rng = np.random.default_rng(6)
    init = make_initial_state(plane_gt, rng, depth_noise=0.2)
    before = depth_metrics(init.depth_t, plane_gt.depth_t).abs_rel
    final, trace = refine(
        plane_gt.image_t,
        plane_gt.image_t1,
        plane_gt.intrinsics,
        init,
        OptimizerConfig(iterations=60, weights=LossWeights(3.0, 0.2, 0.2)),
    )
    after = depth_metrics(final.depth_t, plane_gt.depth_t).abs_rel
    assert after < before / 3
    assert trace[-1].total < trace[0].total
