import functools
import re
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rigidflow import camera, losses, optimize
from rigidflow.losses import ALL_TERMS, CensusParams, LevelMasks, LossWeights
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
from rigidflow.sampling import WarpPlan
from rigidflow.scenes import preset, render

from conftest import channel_last, planar, state_from_gt
from oracles import pool_ref, project_backward


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
    with pytest.raises(ValueError, match="^depth_t must be positive$"):
        SceneState(**{**good, "depth_t": np.zeros((4, 4))})
    with pytest.raises(ValueError, match=r"^pose_params must be a 6-vector, got shape \(5,\)$"):
        SceneState(**{**good, "pose_params": np.zeros(5)})
    with pytest.raises(ValueError, match=r"^flow_fwd has shape \(5, 4, 2\), expected \(4, 4, 2\) to match depth_t$"):
        SceneState(**{**good, "flow_fwd": np.zeros((5, 4, 2))})
    with pytest.raises(ValueError, match=r"^flow_bwd has shape \(4, 4\), expected \(4, 4, 2\) to match depth_t$"):
        SceneState(**{**good, "flow_bwd": np.zeros((4, 4))})
    with pytest.raises(ValueError, match=r"^depth_t1 has shape \(4, 5\), expected \(4, 4\) to match depth_t$"):
        SceneState(**{**good, "depth_t1": np.ones((4, 5))})
    with pytest.raises(ValueError, match=r"^depth_t must be \(H, W\), got shape \(4, 4, 1\)$"):
        SceneState(**{**good, "depth_t": np.ones((4, 4, 1))})
    for name, value in good.items():
        for bad in (np.nan, np.inf, -np.inf):
            field = value.copy()
            field.flat[1] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                SceneState(**{**good, name: field})
    for name in ("depth_t", "depth_t1"):
        for bad in (0.0, -0.0, -2.0):
            field = good[name].copy()
            field.flat[5] = bad
            with pytest.raises(ValueError, match=f"^{name} must be positive$"):
                SceneState(**{**good, name: field})
    # every field is checked for finiteness before any depth for positivity
    flow_bwd, depth_t = good["flow_bwd"].copy(), good["depth_t"].copy()
    flow_bwd[2, 3, 1], depth_t[0, 0] = np.nan, 0.0
    with pytest.raises(ValueError, match="^flow_bwd must be finite$"):
        SceneState(**{**good, "flow_bwd": flow_bwd, "depth_t": depth_t})
    # a rotation component of either sign above sqrt(max float / 3), whose
    # square rodrigues's w @ w could overflow; at it the state is taken
    ceiling = np.sqrt(np.finfo(float).max / 3)
    for i in range(3):
        for bad in (1e154, -1e300, np.nextafter(ceiling, np.inf)):
            pose = np.zeros(6)
            pose[i] = bad
            with pytest.raises(ValueError) as err:
                SceneState(**{**good, "pose_params": pose})
            assert str(err.value) == (
                f"pose_params has a rotation component of magnitude {abs(bad):.6g}, "
                f"above the {ceiling:.6g} the rotation angle can square"
            )
    SceneState(**{**good, "pose_params": np.array([ceiling, -ceiling, ceiling, 0.0, 0.0, 0.0])})


def test_evaluate_rechecks_a_state_changed_in_place(plane_gt):
    args = (plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics)
    state = state_from_gt(plane_gt)
    state.flow_fwd[5, 5, 0] = np.nan
    with pytest.raises(ValueError, match="^flow_fwd must be finite$"):
        evaluate(state, *args)
    state = state_from_gt(plane_gt)
    state.depth_t1[3, 4] = 0.0
    with pytest.raises(ValueError, match="^depth_t1 must be positive$"):
        evaluate(state, *args)


def test_a_depth_too_small_to_normalize_is_named(plane_gt):
    # the depth smoothness divides each level by its mean, which must reach
    # 1e-12: rejected at the state, naming the field and the mean, before
    # any kernel warns
    import warnings

    args = (plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics)
    state = state_from_gt(plane_gt)
    tiny = state.depth_t * 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            SceneState(tiny, state.depth_t1, state.pose_params, state.flow_fwd, state.flow_bwd)
        assert str(err.value) == f"depth_t has mean {np.mean(tiny):.6g}, below the 1e-12 the depth smoothness needs"
        state.depth_t1 *= 1e-13
        with pytest.raises(ValueError, match=r"^depth_t1 has mean \S+, below the 1e-12 the depth smoothness needs$"):
            evaluate(state, *args)
    # a mean at the floor is accepted
    SceneState(np.full((4, 4), 1e-12), np.ones((4, 4)), np.zeros(6), np.zeros((4, 4, 2)), np.zeros((4, 4, 2)))


@pytest.mark.parametrize("name, kwargs", [("plane", {}), ("mover", dict(width=32, height=24)), ("slanted", {})])
def test_a_flow_too_large_to_square_is_named(name, kwargs):
    # the fb check squares the sum of two flows: a flow whose largest
    # magnitude is above sqrt(max float / 8) is rejected at the state, naming
    # the field and the magnitude; at that ceiling, both flows at it with
    # either sign, evaluate runs without a warning
    import warnings

    gt = render(preset(name, **kwargs))
    args = (gt.image_t, gt.image_t1, gt.intrinsics)
    state = make_initial_state(gt, np.random.default_rng(0))
    ceiling = np.sqrt(np.finfo(float).max / 8)
    huge = state.flow_fwd / np.abs(state.flow_fwd).max() * 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as err:
            SceneState(state.depth_t, state.depth_t1, state.pose_params, huge, state.flow_bwd)
        top = np.abs(huge).max()
        assert str(err.value) == (
            f"flow_fwd has a largest magnitude of {top:.6g}, above the {ceiling:.6g} the fb check can square"
        )
        for sign in (1.0, -1.0):
            flows = [sign**i * f / np.abs(f).max() * ceiling for i, f in enumerate((state.flow_fwd, state.flow_bwd))]
            report, grad, _ = evaluate(SceneState(state.depth_t, state.depth_t1, state.pose_params, *flows), *args)
            assert np.isfinite(report.total)
            assert all(np.all(np.isfinite(getattr(grad, f.name))) for f in fields(grad))


@pytest.mark.parametrize("name", ["plane", "mover", "slanted"])
def test_a_rotation_too_large_to_square_is_named(name):
    # rodrigues squares the rotation, w @ w: with every component at
    # sqrt(max float / 3), either sign, evaluate runs without a warning; one
    # float above it, or at 1e300, whose square would overflow and whose
    # angle math.sin cannot take, the state is rejected, naming the field
    # and the value
    import warnings

    gt = render(preset(name))
    args = (gt.image_t, gt.image_t1, gt.intrinsics, small_cfg())
    state = make_initial_state(gt, np.random.default_rng(0))
    ceiling = np.sqrt(np.finfo(float).max / 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for sign in (1.0, -1.0):
            state.pose_params[:3] = sign * ceiling
            report, grad, _ = evaluate(state, *args)
            assert np.isfinite(report.total)
            assert all(np.all(np.isfinite(getattr(grad, f.name))) for f in fields(grad))
            for bad in (np.nextafter(ceiling, np.inf), 1e300):
                state.pose_params[:3] = sign * bad
                with pytest.raises(ValueError) as err:
                    evaluate(state, *args)
                assert str(err.value) == (
                    f"pose_params has a rotation component of magnitude {bad:.6g}, "
                    f"above the {ceiling:.6g} the rotation angle can square"
                )


def test_a_depth_too_large_to_square_is_named(plane_gt):
    # the depth smoothness's gradient divides by size * mean**2: a depth
    # above sqrt(max float / size) is rejected at the state, naming the
    # field and its largest value, before any kernel overflows; up to that
    # ceiling evaluate runs without a warning
    import warnings

    args = (plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics)
    state = state_from_gt(plane_gt)
    ceiling = np.sqrt(np.finfo(float).max / (64 * 64))
    huge = state.depth_t * 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as err:
            SceneState(huge, state.depth_t1 * 1e300, state.pose_params, state.flow_fwd, state.flow_bwd)
        assert str(err.value) == (
            f"depth_t has a largest value of {huge.max():.6g}, "
            f"above the {ceiling:.6g} the depth smoothness can square at 64x64"
        )
        scale = ceiling / max(state.depth_t.max(), state.depth_t1.max())
        top = SceneState(
            state.depth_t * scale, state.depth_t1 * scale, state.pose_params, state.flow_fwd, state.flow_bwd
        )
        report, grad, _ = evaluate(top, *args)
        assert np.isfinite(report.total)
        assert all(np.all(np.isfinite(getattr(grad, f.name))) for f in fields(grad))
        top.depth_t1[7, 9] = 2 * ceiling
        with pytest.raises(ValueError, match=r"^depth_t1 has a largest value of \S+, above the \S+ .* at 64x64$"):
            evaluate(top, *args)


def test_evaluate_rejects_images_of_another_size(plane_gt):
    small = render(preset("plane", width=32, height=32))
    state = state_from_gt(small)
    with pytest.raises(ValueError, match="^img_t is 64x64 but the state is 32x32$"):
        evaluate(state, plane_gt.image_t, small.image_t1, small.intrinsics)
    with pytest.raises(ValueError, match="^img_t1 is 64x64 but the state is 32x32$"):
        evaluate(state, small.image_t, plane_gt.image_t1, small.intrinsics)


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
    with pytest.raises(ValueError, match=r"^beta1 must be in \[0, 1\), got 1.0$"):
        OptimizerConfig(beta1=1.0)
    with pytest.raises(ValueError, match="^learning_rate must be positive"):
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


def test_level_flows_reach_the_objective_row_major(plane_gt, monkeypatch):
    # each level keeps the memory order of the one before, so a stack of the
    # state's channel-last flows would give every level strided planes: the
    # same numbers, computed more slowly
    seen = []

    def spy(level, depths, entries, flows, *args, real=optimize.scale_objective, **kwargs):
        seen.append(flows.flags.c_contiguous)
        return real(level, depths, entries, flows, *args, **kwargs)

    monkeypatch.setattr(optimize, "scale_objective", spy)
    evaluate(state_from_gt(plane_gt), plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics, small_cfg(scales=3))
    assert seen == [True] * 3


def test_state_gradient_flows_stay_channel_last():
    # the objective holds flows as planar (2, h, w) arrays; the state and its
    # gradient keep (H, W, 2), row-major, on an odd non-square pyramid too
    gt = render(preset("mover", width=45, height=37))
    state = state_from_gt(gt)
    _, grad, _ = evaluate(state, gt.image_t, gt.image_t1, gt.intrinsics, OptimizerConfig(scales=3))
    for name in ("flow_fwd", "flow_bwd"):
        for arr in (getattr(grad, name), getattr(state, name)):
            assert arr.shape == (37, 45, 2), name
            assert arr.flags.c_contiguous, name


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
# forward-only evaluate

FORWARD_SCENES = {
    "plane": ("plane", 64, 64),
    "mover": ("mover", 64, 64),
    "slanted-45x37": ("slanted", 45, 37),
    "slanted-129x97": ("slanted", 129, 97),
}
# (scales, cross_scales, census radius, terms): between them every pyramid
# depth from 1 to 4, the cross term on no level and on the finest only, both
# radii, and term subsets from one term to all five
FORWARD_CONFIGS = [
    (1, 0, 1, ALL_TERMS),
    (2, 1, 2, ALL_TERMS),
    (3, 1, 1, frozenset({"photometric", "fb_flow", "cross"})),
    (4, 0, 2, frozenset({"smooth", "fb_depth"})),
    (4, 1, 1, frozenset({"cross"})),
]
MASK_MODES = {
    "recomputed": None,
    "frozen": lambda m, rng: m,
    "thinned": lambda m, rng: m & (rng.random(m.shape) < 0.5),
    "empty": lambda m, rng: np.zeros_like(m),
}


@functools.lru_cache(maxsize=None)
def forward_scene(name):
    base, width, height = FORWARD_SCENES[name]
    return render(preset(base, width=width, height=height))


def forward_case(scene, config, mode):
    """(state, evaluate's positional inputs, masks, terms) of one case: a
    perturbed state, and for a frozen mode the masks of a nearer state,
    passed as they are, with about half their pixels cleared, or cleared."""
    gt = forward_scene(scene)
    scales, cross_scales, radius, terms = config
    cfg = OptimizerConfig(scales=scales, cross_scales=cross_scales, census=CensusParams(radius=radius))
    rng = np.random.default_rng(17)
    state = make_initial_state(gt, rng, depth_noise=0.1, pose_noise=0.01, flow_noise=0.5)
    args = (gt.image_t, gt.image_t1, gt.intrinsics, cfg)
    masks = None
    if MASK_MODES[mode] is not None:
        near = make_initial_state(gt, rng, depth_noise=0.05, flow_noise=0.2)
        _, _, levels = evaluate(near, *args, want_grads=False)
        keep = MASK_MODES[mode]
        masks = [LevelMasks(*(keep(getattr(lv, f.name), rng) for f in fields(lv))) for lv in levels]
    return state, args, masks, terms


def report_bytes(report):
    return np.asarray(astuple(report)).tobytes()


@pytest.mark.parametrize("mode", list(MASK_MODES))
@pytest.mark.parametrize("config", FORWARD_CONFIGS, ids=lambda c: f"s{c[0]}c{c[1]}r{c[2]}-{'+'.join(sorted(c[3]))}")
@pytest.mark.parametrize("scene", list(FORWARD_SCENES))
def test_forward_only_evaluate_matches_the_full_pass(scene, config, mode):
    state, args, masks, terms = forward_case(scene, config, mode)
    full, grad, full_masks = evaluate(state, *args, masks=masks, terms=terms)
    fwd, no_grad, fwd_masks = evaluate(state, *args, masks=masks, terms=terms, want_grads=False)
    assert grad is not None and no_grad is None
    assert report_bytes(fwd) == report_bytes(full), (fwd, full)
    assert len(fwd_masks) == len(full_masks) == config[0]
    for lvl, (a, b) in enumerate(zip(fwd_masks, full_masks)):
        for f in fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), (lvl, f.name)


def test_forward_only_evaluate_runs_no_gradient_work(monkeypatch):
    config = (4, 1, 2, ALL_TERMS)
    cases = [forward_case(scene, config, mode) for scene in FORWARD_SCENES for mode in MASK_MODES]
    expected = [evaluate(state, *args, masks=masks)[0] for state, args, masks, _ in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("gradient work in a forward-only evaluate")

    monkeypatch.setattr(WarpPlan, "sample_grad", forbidden)
    monkeypatch.setattr(WarpPlan, "scatter", forbidden)
    # the names the objective calls them by
    monkeypatch.setattr(losses, "_project_backward", forbidden)
    monkeypatch.setattr(optimize, "pose_param_gradient", forbidden)
    for (state, args, masks, _), want in zip(cases, expected):
        report, grad, _ = evaluate(state, *args, masks=masks, want_grads=False)
        assert grad is None
        assert report_bytes(report) == report_bytes(want)
    state, args, masks, _ = cases[0]
    with pytest.raises(AssertionError, match="gradient work"):
        evaluate(state, *args, masks=masks)


def test_an_evaluate_on_empty_masks_allocates_no_zeros_in_the_losses(monkeypatch):
    # an empty mask runs the general path of every term, whose arrays are
    # the workspace's: no term makes zeros of its own
    import sys

    gt = render(preset("mover"))
    state = make_initial_state(gt, np.random.default_rng(0))
    args = (state, gt.image_t, gt.image_t1, gt.intrinsics, OptimizerConfig(scales=3))
    empty = [LevelMasks(*(np.zeros_like(getattr(m, f.name)) for f in fields(m))) for m in evaluate(*args)[2]]
    calls = []
    for name in ("zeros", "zeros_like"):

        def spy(*a, real=getattr(np, name), name=name, **kw):
            if sys._getframe(1).f_globals.get("__name__") == "rigidflow.losses":
                calls.append(name)
            return real(*a, **kw)

        monkeypatch.setattr(np, name, spy)
    for split in (0, 10**9):
        monkeypatch.setattr(losses, "STACKED_PIXELS", split)
        report, grad, _ = evaluate(*args, masks=empty)
        assert calls == [], split
        assert report.photometric == report.forward_backward == report.cross == 0.0
        assert all(np.all(np.isfinite(getattr(grad, f.name))) for f in fields(grad))


# ---------------------------------------------------------------------------
# the projection: once per block, its pose entries once per evaluate


def test_objective_projects_each_block_once_and_its_adjoint_matches(monkeypatch):
    # mover 128x96 at 3 scales: by default level 0 (12,288 pixels) runs a side
    # at a time and levels 1 and 2 both sides stacked; the adjoint reads the
    # transformed points of the block's rigid flow instead of projecting again
    from rigidflow.camera import invert, pose_from_params
    from rigidflow.losses import _side_blocks

    gt = render(preset("mover", width=128, height=96))
    state = make_initial_state(gt, np.random.default_rng(0), depth_noise=0.1, pose_noise=0.02, flow_noise=0.3)
    args = (gt.image_t, gt.image_t1, gt.intrinsics, OptimizerConfig(scales=3))
    pose = pose_from_params(state.pose_params)
    poses = (pose, invert(pose))
    projected, adjoints = [], []

    def counted(pixels, depth, *rest, real=camera._transform):
        projected.append(depth.shape)
        return real(pixels, depth, *rest)

    def spy(depth, k, pixels, r, q, valid, grad_u, grad_v, ws, out=None, real=camera._project_backward):
        got = real(depth, k, pixels, r, q, valid, grad_u, grad_v, ws, out)
        adjoints.append((depth.copy(), k, grad_u.copy(), grad_v.copy(), [a.copy() for a in got]))
        return got

    monkeypatch.setattr(camera, "_transform", counted)
    monkeypatch.setattr(losses, "_project_backward", spy)
    for split in (losses.STACKED_PIXELS, 0, 10**9):
        monkeypatch.setattr(losses, "STACKED_PIXELS", split)
        projected.clear()
        adjoints.clear()
        evaluate(state, *args)
        sizes = ((96, 128), (48, 64), (24, 32))
        blocks = [(own, (own.stop - own.start, h, w)) for h, w in sizes for own, _ in _side_blocks(h, w)]
        assert projected == [shape for _, shape in blocks], split
        if split == 100 * 100:
            assert projected == [(1, 96, 128), (1, 96, 128), (2, 48, 64), (2, 24, 32)]
        assert [a[0].shape for a in adjoints] == projected
        for (own, _), (depth, k, gu, gv, got) in zip(blocks, adjoints):
            want = project_backward(depth, k, poses[own], gu, gv)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (split, own)


def test_refine_builds_no_pose_and_the_entries_once_per_layout(monkeypatch):
    # the objective builds the pose entries from the pose parameters, once
    # per block layout (one side 0, one side 1, both stacked) of an evaluate,
    # and the rotation once per evaluate: the pose gradient and its
    # rotation jacobians take the one the entries were built from
    gt = render(preset("mover", width=128, height=96))
    state = make_initial_state(gt, np.random.default_rng(0), depth_noise=0.1, flow_noise=0.3)
    built, entries, rotations, per_evaluate = [], [], [], []

    def post_init(self, real=camera.PoseSE3.__post_init__):
        built.append(self)
        real(self)

    def counted(sides, real=camera._entries):
        entries.append(tuple(map(id, sides)))  # each side's pose
        return real(sides)

    def rotation(w, real=camera.rodrigues):
        rotations.append(tuple(w))
        return real(w)

    def callback(it, state, report):
        per_evaluate.append((entries[:], rotations[:]))
        entries.clear()
        rotations.clear()

    monkeypatch.setattr(camera.PoseSE3, "__post_init__", post_init)
    monkeypatch.setattr(losses, "_entries", counted)
    # by every name the engine calls it by
    monkeypatch.setattr(camera, "rodrigues", rotation)
    monkeypatch.setattr(optimize, "rodrigues", rotation)
    _, trace = refine(gt.image_t, gt.image_t1, gt.intrinsics, state, small_cfg(iterations=3, scales=3), callback)
    assert len(trace) == len(per_evaluate) == 4
    assert built == []
    for calls, rotated in per_evaluate:
        # side 0 and side 1 of level 0, then both sides of levels 1 and 2
        assert len(calls) == len(set(calls)) == 3, calls
        assert len(rotated) == 1, rotated
    # the rotation is zero at the start and moves with the first step
    assert per_evaluate[0][1] == [(0.0, 0.0, 0.0)] and per_evaluate[1][1] != per_evaluate[0][1]


# ---------------------------------------------------------------------------
# the per-pair context: the image-only inputs, built once per refine


def test_refine_builds_edge_weights_once_per_frame_and_level(plane_gt, monkeypatch):
    sizes = []

    def counted(guide, real=optimize.edge_weights):
        sizes.append(np.shape(guide)[-2:])
        return real(guide)

    monkeypatch.setattr(optimize, "edge_weights", counted)
    monkeypatch.setattr(losses, "edge_weights", counted)
    state = make_initial_state(plane_gt, np.random.default_rng(4), depth_noise=0.1, flow_noise=0.3)
    cfg = small_cfg(iterations=5, scales=3, cross_scales=3)
    final, trace = refine(plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics, state, cfg)
    assert len(trace) == 6 and not np.array_equal(final.depth_t, state.depth_t)
    assert sizes == [(64, 64)] * 2 + [(32, 32)] * 2 + [(16, 16)] * 2
    # evaluate builds a context on its first call on the pair and keeps it
    # for the next
    monkeypatch.setattr(optimize, "_spare", [])
    sizes.clear()
    for _ in range(2):
        evaluate(state, plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics, cfg)
        assert len(sizes) == 6


def test_census_descriptors_are_built_once_per_context_and_level(plane_gt, monkeypatch):
    # one build per level, of both frames' stacked gray images, for a whole
    # refine; evaluate builds them with its context and reuses them with it
    sizes = []

    def counted(gray, params, real=optimize._census_reference):
        sizes.append(np.shape(gray))
        return real(gray, params)

    monkeypatch.setattr(optimize, "_census_reference", counted)
    monkeypatch.setattr(losses, "_census_reference", counted)
    state = make_initial_state(plane_gt, np.random.default_rng(4), depth_noise=0.1, flow_noise=0.3)
    cfg = small_cfg(iterations=5, scales=3, cross_scales=3)
    refine(plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics, state, cfg)
    assert sizes == [(2, 64, 64), (2, 32, 32), (2, 16, 16)]
    monkeypatch.setattr(optimize, "_spare", [])
    sizes.clear()
    for _ in range(3):
        evaluate(state, plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics, cfg)
        assert len(sizes) == 3


def test_a_level_is_never_evaluated_with_other_census_settings(plane_gt):
    ctx = optimize.PairContext(plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics, small_cfg(), (64, 64))
    assert all(level.census == CensusParams() for level in ctx.levels)
    state = state_from_gt(plane_gt)
    for census in (CensusParams(radius=2), CensusParams(epsilon=0.05), CensusParams(charbonnier_eps=1e-2)):
        with pytest.raises(ValueError, match="^the level's census descriptors are for CensusParams"):
            optimize._objective(state, ctx, small_cfg(census=census), None, ALL_TERMS, False)


def context_bytes(ctx):
    return [a.tobytes() for level in ctx.levels for pair in (level.gray, *level.edges) for a in pair]


@pytest.mark.parametrize("config", FORWARD_CONFIGS, ids=lambda c: f"s{c[0]}c{c[1]}r{c[2]}-{'+'.join(sorted(c[3]))}")
@pytest.mark.parametrize("scene", list(FORWARD_SCENES))
def test_one_context_serves_every_state_of_the_pair(scene, config):
    """One context, run through the states and masks of every mode in turn,
    gives what a fresh `evaluate` gives, and is left as it was."""
    cases = [forward_case(scene, config, mode) for mode in MASK_MODES]
    img_t, img_t1, k, cfg = cases[0][1]
    ctx = optimize.PairContext(img_t, img_t1, k, cfg, cases[0][0].depth_t.shape)
    before = context_bytes(ctx)
    for state, args, masks, terms in cases:
        got_report, got_grad, got_masks = optimize._objective(state, ctx, cfg, masks, terms, True)
        report, grad, want_masks = evaluate(state, *args, masks=masks, terms=terms)
        assert report_bytes(got_report) == report_bytes(report)
        for f in fields(grad):
            assert getattr(got_grad, f.name).tobytes() == getattr(grad, f.name).tobytes(), f.name
        assert len(got_masks) == len(want_masks) == config[0]
        for a, b in zip(got_masks, want_masks):
            for f in fields(a):
                assert getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes(), f.name
    assert context_bytes(ctx) == before


@pytest.mark.parametrize("channels", [3, 9])
def test_context_pools_colour_frames_channel_by_channel(channels):
    # on every level, each frame's gray image and edge weights are those of
    # the loop reference's per-channel pyramid, averaged over the channels
    # of its channel-last layout
    gt = render(preset("mover", width=45, height=37))
    rng = np.random.default_rng(channels)
    gain, offset = rng.uniform(0.5, 1.5, channels), rng.uniform(-0.1, 0.1, channels)
    frames = [img * gain + offset for img in (gt.image_t, gt.image_t1)]
    ctx = optimize.PairContext(*frames, gt.intrinsics, OptimizerConfig(scales=3), (37, 45))
    assert [level.gray.shape for level in ctx.levels] == [(2, 37, 45), (2, 19, 23), (2, 10, 12)]
    for side, level in enumerate(frames):
        for lvl, inputs in enumerate(ctx.levels):
            if lvl:
                level = np.ascontiguousarray(channel_last(pool_ref(planar(level))))
            wx = np.exp(-np.mean(np.abs(level[:, 1:] - level[:, :-1]), axis=2))
            wy = np.exp(-np.mean(np.abs(level[1:] - level[:-1]), axis=2))
            assert inputs.gray[side].tobytes() == np.mean(level, axis=2).tobytes(), (side, lvl)
            assert inputs.edges[0][side].tobytes() == wx.tobytes(), (side, lvl)
            assert inputs.edges[1][side].tobytes() == wy.tobytes(), (side, lvl)


def test_context_names_a_bad_image(plane_gt):
    k = plane_gt.intrinsics
    bad = plane_gt.image_t1.copy()
    bad[3, 4] = np.nan
    with pytest.raises(ValueError, match="^img_t1 must be finite$"):
        optimize.PairContext(plane_gt.image_t, bad, k, small_cfg(), (64, 64))
    with pytest.raises(ValueError, match=r"^img_t must be \(H, W\) or \(H, W, C\)$"):
        optimize.PairContext(plane_gt.image_t.ravel(), plane_gt.image_t1, k, small_cfg(), (64, 64))
    # the pyramid depth is checked once, against the state's size
    thin = np.zeros((64, 8))
    with pytest.raises(ValueError, match="^scales=4 needs both image sides above 8, got 64x8: "):
        optimize.PairContext(thin, thin, k, small_cfg(scales=4), (64, 8))
    # refine checks the images once, before its first iteration
    state = state_from_gt(plane_gt)
    with pytest.raises(ValueError, match="^img_t1 must be finite$"):
        refine(plane_gt.image_t, bad, k, state, small_cfg())


def test_context_rejects_a_complex_frame(plane_gt):
    # named before the cast to float, which would drop the imaginary part
    # with a ComplexWarning
    import warnings

    k = plane_gt.intrinsics
    state = state_from_gt(plane_gt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^img_t must be real, got complex128$"):
            optimize.PairContext(plane_gt.image_t + 0j, plane_gt.image_t1, k, small_cfg(), (64, 64))
        with pytest.raises(ValueError, match="^img_t1 must be real, got complex64$"):
            evaluate(state, plane_gt.image_t, plane_gt.image_t1.astype(np.complex64), k, small_cfg())
        with pytest.raises(ValueError, match="^img_t must be real, got complex128$"):
            refine(plane_gt.image_t * 1j, plane_gt.image_t1, k, state, small_cfg())


WIDE_FRAME = r"^(img_t1?) has a value range of (\S+), too wide for the census to square$"


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _bits_float(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


LARGE_FRAME = r"^(img_t1?) has a largest magnitude of (\S+), above the \S+ its pyramid and gray mean can sum$"

# how a probe moves the frames, the largest move it tries, the message that
# names a frame moved too far, and the value the message gives
FRAME_MOVES = {
    "scale": (np.multiply, 1e300, WIDE_FRAME, lambda img: img.max() - img.min()),
    "shift": (np.add, 1e308, LARGE_FRAME, lambda img: np.abs(img).max()),
}


@pytest.mark.parametrize(
    "move, epsilon",
    [("scale", 0.02), ("scale", float(np.nextafter(losses.EPSILON_RANGE[1], 0.0))), ("shift", 0.02)],
    ids=["default", "top", "shift"],
)
@pytest.mark.parametrize("name", ["plane", "mover", "slanted"])
def test_frames_too_wide_for_the_census_are_named(name, move, epsilon):
    # a census difference of a frame is at most its value range, and the
    # census gradient takes (d^2 + epsilon^2) ** 1.5: the context rejects a
    # frame whose range would overflow it, naming the frame and the range.
    # The 2x2 pool adds four values and the gray mean the channels: a frame
    # shifted so far that those sums would overflow is named with its
    # largest magnitude. At the largest scale or shift of the frames the
    # context takes, evaluate runs without a warning; one float above it,
    # it names a frame
    import warnings

    gt = render(preset(name))
    state = make_initial_state(gt, np.random.default_rng(0))
    cfg = OptimizerConfig(scales=2, census=CensusParams(epsilon=epsilon))
    args = (gt.intrinsics, cfg)
    op, far, pattern, measure = FRAME_MOVES[move]

    def frames(c):
        return op(gt.image_t, c), op(gt.image_t1, c)

    def taken(c):
        try:
            optimize.PairContext(*frames(c), *args, state.depth_t.shape)
        except ValueError as err:
            assert re.match(pattern, str(err)), str(err)
            return False
        return True

    # bisection on the bits of the positive floats, which order as the floats
    lo, hi = _float_bits(0.0), _float_bits(far)
    assert taken(0.0) and not taken(far)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if taken(_bits_float(mid)) else (lo, mid)
    top, above = _bits_float(lo), _bits_float(hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report, grad, _ = evaluate(state, *frames(top), *args)
        assert np.isfinite(report.total)
        assert all(np.all(np.isfinite(getattr(grad, f.name))) for f in fields(grad))
        with pytest.raises(ValueError) as err:
            evaluate(state, *frames(above), *args)
    frame, found = re.match(pattern, str(err.value)).groups()
    img = dict(zip(("img_t", "img_t1"), frames(above)))[frame]
    assert found == f"{measure(img):.6g}"
    if (move, epsilon) == ("scale", 0.02):
        # the 1e150 frames that overflowed the census unnamed
        with pytest.raises(ValueError, match=WIDE_FRAME.replace("(img_t1?)", "img_t")):
            evaluate(state, *frames(1e150), *args)
    if move == "shift":
        # the shift of 5e307 that overflowed the pool and ended in a
        # non-finite photometric term
        with pytest.raises(ValueError, match=LARGE_FRAME.replace("(img_t1?)", "img_t")):
            evaluate(state, *frames(5e307), *args)


@functools.cache
def _small_scene(name):
    gt = render(preset(name, width=16, height=12))
    return gt, make_initial_state(gt, np.random.default_rng(0))


@settings(max_examples=40, deadline=None, database=None)
@seed(20180906)
@given(name=st.sampled_from(["plane", "mover", "slanted"]), power=st.floats(-300.0, 300.0))
def test_frames_at_any_scale_evaluate_or_are_named(name, power):
    # frames scaled by 10 ** power either give a finite report and gradient
    # without a warning or are named at the boundary
    import warnings

    gt, state = _small_scene(name)
    c = 10.0**power
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            report, grad, _ = evaluate(state, gt.image_t * c, gt.image_t1 * c, gt.intrinsics, OptimizerConfig(scales=2))
        except ValueError as err:
            assert re.match(WIDE_FRAME, str(err)), str(err)
            return
    assert np.isfinite(report.total)
    assert all(np.all(np.isfinite(getattr(grad, f.name))) for f in fields(grad))


def fresh_bytes(state, img_t, img_t1, k, cfg, want_grads=True):
    """The bytes of what `evaluate` returns, from `_objective` on a context
    built for this call alone."""
    ctx = optimize.PairContext(img_t, img_t1, k, cfg, state.depth_t.shape)
    return result_bytes(*optimize._objective(state, ctx, cfg, None, ALL_TERMS, want_grads))


def result_bytes(report, grad, masks):
    """The bytes of an evaluate result: report, masks, then gradient if any."""
    arrays = [np.asarray(astuple(report)), *mask_arrays(masks)]
    if grad is not None:
        arrays += [getattr(grad, f.name) for f in fields(grad)]
    return [a.tobytes() for a in arrays]


def test_evaluate_reuses_its_context_only_on_the_same_frames(monkeypatch):
    # each call gives the bytes of a fresh context, and builds one only when
    # the frames' bits, the intrinsics, the scales or the size differ from
    # the last call's
    builds = []

    class Counted(optimize.PairContext):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    gt = render(preset("mover", width=45, height=37))
    other = render(preset("mover", width=47, height=37))
    img_t, img_t1 = gt.image_t.copy(), gt.image_t1.copy()
    img_t1[3, 4] = 0.0
    k = gt.intrinsics
    # (the call, the frame pixel written before it, whether it builds a
    # context); repeats run forward only, the others with gradients
    calls = [
        ("first", None, 1),
        ("repeat", None, 0),
        ("repeat", None, 0),
        ("img_t changed in place", (img_t, (5, 6), img_t[5, 6] + 0.25), 1),
        ("repeat", None, 0),
        ("-0 over +0", (img_t1, (3, 4), -0.0), 1),
        ("+0 back", (img_t1, (3, 4), 0.0), 1),
    ]
    cfg = small_cfg(scales=3)
    monkeypatch.setattr(optimize, "PairContext", Counted)
    monkeypatch.setattr(optimize, "_spare", [])
    rng = np.random.default_rng(21)
    for name, write, built in calls:
        if write is not None:
            frame, pixel, value = write
            frame[pixel] = value
        state = make_initial_state(gt, rng, pose_noise=0.01, flow_noise=0.4)
        want_grads = name != "repeat"
        before = len(builds)
        got = result_bytes(*evaluate(state, img_t, img_t1, k, cfg, want_grads=want_grads))
        assert len(builds) - before == built, name
        assert got == fresh_bytes(state, img_t, img_t1, k, cfg, want_grads=want_grads), name
    moved = camera.Intrinsics(k.fx, k.fy, k.cx + 0.5, k.cy)
    for name, args, scales in (
        ("intrinsics", (img_t, img_t1, moved), 3),
        ("scales", (img_t, img_t1, moved), 2),
        ("size", (other.image_t, other.image_t1, other.intrinsics), 2),
        ("back to the first pair", (img_t, img_t1, k), 2),
    ):
        state = make_initial_state(other if name == "size" else gt, rng, flow_noise=0.4)
        for built in (1, 0):
            before = len(builds)
            got = result_bytes(*evaluate(state, *args, small_cfg(scales=scales)))
            assert len(builds) - before == built, name
            assert got == fresh_bytes(state, *args, small_cfg(scales=scales)), name


def test_evaluate_builds_a_context_for_other_census_settings(monkeypatch):
    # the context holds census descriptors, so the slot's frames with another
    # census radius or epsilon build a context, whose results are the bytes
    # of a fresh one
    builds = []

    class Counted(optimize.PairContext):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    gt = render(preset("mover", width=45, height=37))
    args = (gt.image_t, gt.image_t1, gt.intrinsics)
    monkeypatch.setattr(optimize, "PairContext", Counted)
    monkeypatch.setattr(optimize, "_spare", [])
    rng = np.random.default_rng(22)
    for name, census in (
        ("first", CensusParams()),
        ("census_radius", CensusParams(radius=2)),
        ("census_epsilon", CensusParams(radius=2, epsilon=0.05)),
        ("back to the defaults", CensusParams()),
    ):
        cfg = small_cfg(scales=3, census=census)
        for built in (1, 0):
            state = make_initial_state(gt, rng, pose_noise=0.01, flow_noise=0.4)
            before = len(builds)
            got = result_bytes(*evaluate(state, *args, cfg))
            assert len(builds) - before == built, name
            assert got == fresh_bytes(state, *args, cfg), name


def test_evaluate_checks_the_frames_whatever_its_slot_holds(plane_gt):
    k = plane_gt.intrinsics
    state = state_from_gt(plane_gt)
    img_t, img_t1 = plane_gt.image_t.copy(), plane_gt.image_t1.copy()
    nan = img_t1.copy()
    nan[3, 4] = np.nan
    for bad, match in (
        (nan, "^img_t1 must be finite$"),
        (img_t1[:5, :4], "^img_t1 is 5x4 but the state is 64x64$"),
        (img_t1.ravel(), r"^img_t1 must be \(H, W\) or \(H, W, C\)$"),
    ):
        evaluate(state, img_t, img_t1, k, small_cfg())
        with pytest.raises(ValueError, match=match):
            evaluate(state, img_t, bad, k, small_cfg())
    # a frame the slot's context was built from, made bad in place
    evaluate(state, img_t, img_t1, k, small_cfg())
    img_t1[7, 9] = np.inf
    with pytest.raises(ValueError, match="^img_t1 must be finite$"):
        evaluate(state, img_t, img_t1, k, small_cfg())
    img_t1[7, 9] = 0.5
    evaluate(state, img_t, img_t1, k, small_cfg())
    with pytest.raises(ValueError, match="^scales=7 needs both image sides above 64, got 64x64: "):
        evaluate(state, img_t, img_t1, k, small_cfg(scales=7))


def test_evaluate_keeps_a_workspace_for_repeat_calls_only(monkeypatch):
    # a call on new frames sizes about a hundred planes of workspace, returns
    # its results in them and leaves the slot about twenty planes (gray
    # images, edge weights and the frames' bytes, about ten, and the census
    # reference descriptors, 10.4); the next call on those frames sizes a
    # workspace and keeps it, and the calls after it allocate only the copies
    # of their gradient (six level-0 planes) and masks and the bytes of the
    # frames they compare (tracemalloc counts bytes, so the bounds hold on
    # any machine)
    import gc
    import tracemalloc

    gt = render(preset("mover", width=96, height=80))
    other = render(preset("mover", width=96, height=80, seed=3))
    init = make_initial_state(gt, np.random.default_rng(6), pose_noise=0.01, flow_noise=0.5)
    plane = 96 * 80 * 8
    monkeypatch.setattr(optimize, "_spare", [])
    peaks, kept = [], []
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for pair in (gt, gt, gt, gt, other):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = evaluate(init, pair.image_t, pair.image_t1, pair.intrinsics, OptimizerConfig())
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / plane)
            del got
            gc.collect()
            kept.append((tracemalloc.get_traced_memory()[0] - base) / plane)
    finally:
        tracemalloc.stop()
    figures = [(round(p, 2), round(k, 2)) for p, k in zip(peaks, kept)]
    assert max(peaks[2:4]) <= 10 and min(peaks[:2]) >= 50, figures
    assert max(kept[0], kept[4]) <= 23 and min(kept[1:4]) >= 50, figures


def test_a_context_workspace_frees_no_buffer_while_it_lives(monkeypatch):
    # forward under frozen masks, then gradients with recomputed masks, which
    # run deeper, twice on one context: every buffer its workspace allocates
    # stays alive, none dropped for a larger one
    import weakref

    from rigidflow import sampling

    gt = render(preset("slanted", width=129, height=97))
    args = (gt.image_t, gt.image_t1, gt.intrinsics)
    state = make_initial_state(gt, np.random.default_rng(0))
    cfg = OptimizerConfig()
    frozen = evaluate(state, *args, cfg)[2]
    buffers = []

    def aligned(nbytes, real=sampling._aligned):
        buf = real(nbytes)
        buffers.append(weakref.ref(buf))
        return buf

    monkeypatch.setattr(sampling, "_aligned", aligned)
    ctx = optimize.PairContext(*args, cfg, state.depth_t.shape)
    for masks, grads in ((frozen, False), (None, True)) * 2:
        mark = ctx.ws.mark()
        optimize._objective(state, ctx, cfg, masks, ALL_TERMS, grads)
        ctx.ws.release(mark)
    freed = sum(ref() is None for ref in buffers)
    assert buffers and freed == 0, f"{freed} of {len(buffers)} buffers freed"


def test_threads_on_one_pair_give_the_sequential_results():
    # more threads than cores, switching often: a call takes the slot's
    # context out while it runs, so no two calls write into one workspace
    import sys
    import threading

    gt = render(preset("mover", width=45, height=37))
    args = (gt.image_t, gt.image_t1, gt.intrinsics, small_cfg(scales=3))
    states = [make_initial_state(gt, np.random.default_rng(s), pose_noise=0.01, flow_noise=0.4) for s in range(4)]
    want = [result_bytes(*evaluate(state, *args)) for state in states]
    start = threading.Barrier(len(states))
    got = [[] for _ in states]

    def run(i):
        start.wait()
        for _ in range(6):
            got[i].append(result_bytes(*evaluate(states[i], *args)))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(states))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 6 for w in want]


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


def state_bytes(state):
    """The bytes of every field of a SceneState or StateGrad."""
    return [np.asarray(getattr(state, f.name)).tobytes() for f in fields(state)]


def test_both_block_paths_give_the_same_bytes(monkeypatch):
    # levels under losses.STACKED_PIXELS run both sides stacked and larger
    # ones a side at a time, so at 128x96 (then 64x48 and 32x24) the default
    # mixes the two paths; 0 runs every level one side at a time, 10**9
    # every level stacked
    assert 64 * 48 < losses.STACKED_PIXELS <= 128 * 96
    gt = render(preset("mover", width=128, height=96))
    init = make_initial_state(gt, np.random.default_rng(6), pose_noise=0.01, flow_noise=0.5)
    args = (gt.image_t, gt.image_t1, gt.intrinsics)
    runs = []
    for stacked_pixels in (0, 10**9):
        monkeypatch.setattr(losses, "STACKED_PIXELS", stacked_pixels)
        report, grad, masks = evaluate(init, *args, small_cfg(scales=3))
        final, trace = refine(*args, init, small_cfg(iterations=4, scales=3))
        runs.append(
            dict(
                report=report_bytes(report),
                grad=state_bytes(grad),
                masks=[getattr(lv, f.name).tobytes() for lv in masks for f in fields(lv)],
                trace=[report_bytes(r) for r in trace],
                final=state_bytes(final),
            )
        )
    for key in runs[0]:
        assert runs[0][key] == runs[1][key], key


def mask_arrays(masks):
    """Every array of a list of LevelMasks, level by level."""
    return [getattr(level, f.name) for level in masks for f in fields(level)]


def result_arrays(report, grad, masks):
    """Every array of an evaluate result, the report as one (`astuple` would
    return copies of the gradient's arrays, not the arrays)."""
    return [np.asarray(astuple(report)), *(getattr(grad, f.name) for f in fields(grad)), *mask_arrays(masks)]


def moment_arrays(moments):
    return [*moments.m.values(), *moments.v.values()]


# odd or non-square sizes, so that pooling replicates edges; each draw runs
# under both block paths forced (STACKED_PIXELS 0 and 10**9), so the sizes
# need not straddle the default split
BLOCK_SIZES = st.tuples(st.integers(5, 80), st.integers(5, 80)).filter(lambda s: s[0] % 2 or s[0] != s[1])


@settings(max_examples=12, deadline=None, database=None)
@seed(20180905)
@given(size=BLOCK_SIZES, channels=st.sampled_from([1, 3]), scene_seed=st.integers(0, 2**16))
def test_both_block_paths_agree_on_any_size(size, channels, scene_seed):
    # every scale count the size allows, under both block paths: the same
    # bytes, and every result finite
    from gradcheck import random_scene

    h, w = size
    scene = random_scene(scene_seed, h=h, w=w)
    imgs = [scene.img_t, scene.img_t1]
    if channels == 3:
        imgs = [np.stack((i, i * i, 0.5 - 0.25 * i), axis=-1) for i in imgs]
    most = 1
    while min(h, w) > 2**most:
        most += 1
    saved = losses.STACKED_PIXELS
    try:
        for scales in range(1, most + 1):
            runs = []
            for stacked_pixels in (0, 10**9):
                losses.STACKED_PIXELS = stacked_pixels
                arrays = result_arrays(*evaluate(scene.state, *imgs, scene.k, OptimizerConfig(scales=scales)))
                assert all(np.all(np.isfinite(a)) for a in arrays), (size, scales)
                runs.append([a.tobytes() for a in arrays])
            assert runs[0] == runs[1], (size, channels, scales)
    finally:
        losses.STACKED_PIXELS = saved


def test_refine_iterations_allocate_only_the_next_state():
    # the objective's arrays live in the pair's workspace, so an iteration
    # after the first allocates little beyond the six level-0 planes of the
    # next state (two depths, two two-channel flows). tracemalloc counts
    # bytes, not time, so the bound holds on any machine. mover 128x96 takes
    # the one-side path at level 0 and the stacked one below it
    import tracemalloc

    gt = render(preset("mover", width=128, height=96))
    init = make_initial_state(gt, np.random.default_rng(6), pose_noise=0.01, flow_noise=0.5)
    plane = 128 * 96 * 8
    peaks = []

    def tick(it, state, report):
        peaks.append(tracemalloc.get_traced_memory()[1] - start[0])
        tracemalloc.reset_peak()
        start[0] = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        start = [tracemalloc.get_traced_memory()[0]]
        refine(gt.image_t, gt.image_t1, gt.intrinsics, init, OptimizerConfig(iterations=5), callback=tick)
    finally:
        tracemalloc.stop()
    assert max(peaks[1:]) <= 8 * plane, [round(p / plane, 2) for p in peaks]


def test_refine_leaves_each_callback_state_and_the_trace_as_they_were(plane_gt):
    # refine reuses its buffers across iterations; what it hands out must
    # not be among them
    init = make_initial_state(plane_gt, np.random.default_rng(8), pose_noise=0.01, flow_noise=0.3)
    seen = []

    def tick(it, state, report):
        seen.append((state, state_bytes(state), report, report_bytes(report)))

    args = (plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics)
    final, trace = refine(*args, init, small_cfg(iterations=4), callback=tick)
    assert len(seen) == len(trace) == 5
    for (state, state_then, report, report_then), entry in zip(seen, trace):
        assert state_bytes(state) == state_then
        assert report is entry and report_bytes(entry) == report_then
    assert state_bytes(final) == seen[-1][1]


def test_step_leaves_its_inputs_untouched(plane_gt):
    state = make_initial_state(plane_gt, np.random.default_rng(9), pose_noise=0.01)
    _, grad, _ = evaluate(state, plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics, small_cfg())
    _, moments = step(state, grad, AdamMoments.zeros(state), small_cfg())

    def snapshot():
        return state_bytes(state), state_bytes(grad), [a.tobytes() for a in moment_arrays(moments)]

    before = snapshot()
    new_state, new_moments = step(state, grad, moments, small_cfg())
    assert snapshot() == before
    assert (moments.count, new_moments.count) == (1, 2)
    new = [*astuple(new_state), *moment_arrays(new_moments)]
    assert not any(np.shares_memory(a, b) for a in [*astuple(state), *moment_arrays(moments)] for b in new)


def test_two_evaluate_results_do_not_alias(plane_gt, monkeypatch):
    # recomputed masks, then a partly frozen list whose None level is
    # recomputed, from a first call on the pair and from repeat calls: no
    # result shares memory with a later one or changes, and a frozen level
    # comes back as the caller's own
    monkeypatch.setattr(optimize, "_spare", [])
    args = (plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics, small_cfg())
    first = evaluate(make_initial_state(plane_gt, np.random.default_rng(10)), *args)
    second = evaluate(make_initial_state(plane_gt, np.random.default_rng(11)), *args)
    partly = [first[2][0], None]
    third = evaluate(make_initial_state(plane_gt, np.random.default_rng(12)), *args, masks=partly)
    assert third[2][0] is first[2][0]
    results = [result_arrays(*first), result_arrays(*second), result_arrays(*third[:2], third[2][1:])]
    then = [[a.tobytes() for a in arrays] for arrays in results]
    fourth = result_arrays(*evaluate(make_initial_state(plane_gt, np.random.default_rng(13)), *args))
    assert [[a.tobytes() for a in arrays] for arrays in results] == then
    for i, arrays in enumerate(results):
        for later in [*results[i + 1 :], fourth]:
            assert not any(np.shares_memory(a, b) for a in arrays for b in later)


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

    # refine runs the objective through `_objective`, on its pair's context
    objective_finite = optimize._objective

    def objective_nan_grad(*args, **kwargs):
        report, grad, masks = objective_finite(*args, **kwargs)
        if grad is not None:
            grad.flow_fwd[5, 5, 0] = np.nan
        return report, grad, masks

    monkeypatch.setattr(optimize, "_objective", objective_nan_grad)
    state = make_initial_state(plane_gt, np.random.default_rng(0))
    with pytest.raises(DivergenceError, match="iteration 0: flow_fwd must be finite") as err:
        refine(plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics, state, small_cfg())
    assert len(err.value.trace) == 1


def test_a_callback_that_writes_a_nan_into_the_state_is_divergence(plane_gt):
    # refine checks each state once, when it is built; a NaN written into
    # the state in place reaches the next step's new state, which is refused
    def poison(it, state, report):
        state.flow_fwd[5, 5, 0] = np.nan

    state = make_initial_state(plane_gt, np.random.default_rng(0))
    with pytest.raises(DivergenceError, match="iteration 0: flow_fwd must be finite") as err:
        refine(plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics, state, small_cfg(), callback=poison)
    assert len(err.value.trace) == 1


def test_a_callback_that_breaks_a_state_whose_step_is_skipped_is_refused(plane_gt):
    # with every total below converge_tol every step is skipped and the same
    # state is evaluated again, so it is checked again after the callback
    def flip(it, state, report):
        state.depth_t[2, 3] = -1.0

    state = make_initial_state(plane_gt, np.random.default_rng(0))
    with pytest.raises(ValueError, match="^depth_t must be positive$"):
        args = (plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics)
        refine(*args, state, small_cfg(converge_tol=1e9), callback=flip)


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
