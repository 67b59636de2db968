import math
from dataclasses import replace

import numpy as np
import pytest

from rigidflow.camera import pixel_grid
from rigidflow.losses import (
    ALL_TERMS,
    CensusParams,
    LossWeights,
    NonFiniteLossError,
    charbonnier,
    cross_task_loss,
    fb_depth_loss,
    fb_flow_loss,
    photometric_loss,
    smoothness_loss,
)
from rigidflow.optimize import OptimizerConfig, evaluate

from conftest import state_from_gt
from oracles import (
    census_loss_ref,
    cross_ref,
    fb_depth_ref,
    fb_flow_ref,
    smoothness_ref,
)

PHI_1 = math.sqrt(1.0 + 1e-6) - 1e-3  # charbonnier of a unit residual


# ---------------------------------------------------------------------------
# charbonnier


def test_charbonnier_zero_at_zero():
    val, der = charbonnier(np.array(0.0))
    assert val == 0.0
    assert der == 0.0


def test_charbonnier_approaches_l1():
    val, der = charbonnier(np.array(10.0), eps=1e-3)
    assert abs(val - (math.sqrt(100.0 + 1e-6) - 1e-3)) < 1e-15
    assert abs(der - 1.0) < 1e-7


def test_charbonnier_derivative_matches_fd():
    xs = np.array([-2.0, -0.5, -0.01, 0.02, 0.7, 3.0])
    _, der = charbonnier(xs, eps=0.02)
    h = 1e-7
    fd = (charbonnier(xs + h, eps=0.02)[0] - charbonnier(xs - h, eps=0.02)[0]) / (2 * h)
    assert np.abs(der - fd).max() < 1e-6


# ---------------------------------------------------------------------------
# census parameters


def test_census_params_validation():
    with pytest.raises(ValueError):
        CensusParams(radius=0)
    with pytest.raises(ValueError):
        CensusParams(epsilon=0.0)


# ---------------------------------------------------------------------------
# photometric loss


def test_photometric_zero_on_identical_images():
    rng = np.random.default_rng(1)
    img = rng.uniform(size=(10, 10))
    loss, grad, degenerate = photometric_loss(img, img.copy(), np.ones((10, 10), bool))
    assert loss == 0.0
    assert np.abs(grad).max() == 0.0
    assert not degenerate


def test_photometric_invariant_to_uniform_shift_of_warped():
    rng = np.random.default_rng(2)
    ref = rng.uniform(0.2, 0.8, (12, 12))
    warped = ref + rng.uniform(-0.05, 0.05, (12, 12))
    mask = np.ones((12, 12), bool)
    base, _, _ = photometric_loss(ref, warped, mask)
    shifted, _, _ = photometric_loss(ref, warped + 0.1, mask)
    assert abs(base - shifted) < 1e-9


def test_photometric_invariant_to_shift_of_both_images():
    rng = np.random.default_rng(3)
    ref = rng.uniform(0.2, 0.8, (12, 12))
    warped = ref + rng.uniform(-0.05, 0.05, (12, 12))
    mask = np.ones((12, 12), bool)
    base, _, _ = photometric_loss(ref, warped, mask)
    for shift in (0.1, -0.1):
        moved, _, _ = photometric_loss(ref + shift, warped + shift, mask)
        assert abs(base - moved) < 1e-9


def test_photometric_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    for _ in range(3):
        ref = rng.uniform(size=(9, 9))
        warped = rng.uniform(size=(9, 9))
        mask = rng.uniform(size=(9, 9)) > 0.3
        loss, _, _ = photometric_loss(ref, warped, mask)
        want = census_loss_ref(ref, warped, mask, radius=1, epsilon=0.02, charbonnier_eps=1e-3)
        assert abs(loss - want) < 1e-10


def test_photometric_multichannel_averages_to_gray():
    rng = np.random.default_rng(5)
    ref = rng.uniform(size=(8, 8, 3))
    warped = rng.uniform(size=(8, 8, 3))
    mask = np.ones((8, 8), bool)
    loss_color, grad_color, _ = photometric_loss(ref, warped, mask)
    loss_gray, grad_gray, _ = photometric_loss(ref.mean(axis=2), warped.mean(axis=2), mask)
    assert abs(loss_color - loss_gray) < 1e-12
    assert grad_color.shape == (8, 8, 3)
    assert np.abs(grad_color.sum(axis=2) - grad_gray).max() < 1e-12


def test_excluded_pixels_contribute_exactly_zero():
    rng = np.random.default_rng(6)
    ref = rng.uniform(size=(10, 10))
    warped = rng.uniform(size=(10, 10))
    mask = np.zeros((10, 10), bool)
    mask[2:7, 3:8] = True
    base, _, _ = photometric_loss(ref, warped, mask)
    trashed = warped.copy()
    trashed[~mask] = rng.uniform(-100.0, 100.0, int((~mask).sum()))
    after, _, _ = photometric_loss(ref, trashed, mask)
    assert base == after


def test_photometric_empty_mask_degenerate():
    img = np.zeros((5, 5))
    loss, grad, degenerate = photometric_loss(img, img, np.zeros((5, 5), bool))
    assert loss == 0.0
    assert degenerate
    assert not grad.any()


def test_photometric_gradient_matches_fd():
    rng = np.random.default_rng(7)
    ref = rng.uniform(size=(8, 8))
    warped = rng.uniform(size=(8, 8))
    mask = np.ones((8, 8), bool)
    _, grad, _ = photometric_loss(ref, warped, mask)
    h = 1e-6
    for y, x in [(0, 0), (3, 4), (7, 7), (5, 1), (2, 6)]:
        wp = warped.copy()
        wp[y, x] += h
        wm = warped.copy()
        wm[y, x] -= h
        fd = (photometric_loss(ref, wp, mask)[0] - photometric_loss(ref, wm, mask)[0]) / (2 * h)
        assert abs(grad[y, x] - fd) < 2e-6


def test_photometric_validates_shapes():
    with pytest.raises(ValueError):
        photometric_loss(np.zeros((4, 4)), np.zeros((4, 5)), np.ones((4, 4), bool))


# ---------------------------------------------------------------------------
# smoothness


def test_smoothness_zero_for_constant_field():
    rng = np.random.default_rng(8)
    guide = rng.uniform(size=(6, 6))
    loss, grad = smoothness_loss(np.full((6, 6), 2.0), guide)
    assert loss == 0.0
    assert not grad.any()


def test_smoothness_ramp_against_analytic_sum():
    # ramp slope s along x over an HxW grid with a constant guide:
    # H*(W-1) x-gradients of size |s| (charbonnier-smoothed), no y-gradients,
    # normalized by H*W
    h, w, s = 5, 8, 0.3
    field = s * pixel_grid(h, w)[0]
    loss, _ = smoothness_loss(field, np.full((h, w), 0.5))
    phi_s = math.sqrt(s * s + 1e-6) - 1e-3
    assert abs(loss - phi_s * h * (w - 1) / (h * w)) < 1e-12
    # the surrogate tracks the plain |slope| sum to within its epsilon
    assert abs(loss - s * h * (w - 1) / (h * w)) < 1e-3


def test_smoothness_has_zero_gradient_at_near_constant_field():
    # 1e-15 ripples (the scale left by float arithmetic on an analytically
    # constant field) must produce vanishing gradients, not sign gradients
    rng = np.random.default_rng(22)
    field = 8.0 + rng.uniform(-1e-15, 1e-15, (8, 8))
    _, grad = smoothness_loss(field, rng.uniform(size=(8, 8)))
    assert np.abs(grad).max() < 1e-10


def test_guide_edges_damp_the_penalty():
    h, w = 6, 6
    field = pixel_grid(h, w)[0]
    flat_guide = np.full((h, w), 0.5)
    edge_guide = np.zeros((h, w))
    edge_guide[:, 3:] = 1.0  # strong edge aligned with the field gradient
    flat_loss, _ = smoothness_loss(field, flat_guide)
    edge_loss, _ = smoothness_loss(field, edge_guide)
    assert edge_loss < flat_loss


def test_smoothness_matches_scalar_oracle():
    rng = np.random.default_rng(9)
    field = rng.uniform(1.0, 3.0, (7, 7))
    guide = rng.uniform(size=(7, 7))
    loss, _ = smoothness_loss(field, guide)
    assert abs(loss - smoothness_ref(field, guide)) < 1e-12
    loss_n, _ = smoothness_loss(field, guide, mean_normalize=True)
    assert abs(loss_n - smoothness_ref(field, guide, mean_normalize=True)) < 1e-12


def test_smoothness_flow_field_sums_channels():
    rng = np.random.default_rng(10)
    flow = rng.uniform(-2.0, 2.0, (6, 6, 2))
    guide = rng.uniform(size=(6, 6))
    loss, grad = smoothness_loss(flow, guide)
    assert abs(loss - smoothness_ref(flow, guide)) < 1e-12
    assert grad.shape == (6, 6, 2)


def test_mean_normalized_smoothness_is_scale_invariant():
    rng = np.random.default_rng(11)
    field = rng.uniform(2.0, 4.0, (6, 6))
    guide = rng.uniform(size=(6, 6))
    a, _ = smoothness_loss(field, guide, mean_normalize=True)
    b, _ = smoothness_loss(field * 7.5, guide, mean_normalize=True)
    assert abs(a - b) < 1e-12


def test_mean_normalize_rejects_zero_mean():
    field = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError):
        smoothness_loss(field, np.zeros((2, 2)), mean_normalize=True)


def test_smoothness_gradient_matches_fd():
    rng = np.random.default_rng(12)
    field = rng.uniform(1.0, 3.0, (6, 6))
    guide = rng.uniform(size=(6, 6))
    for normalize in (False, True):
        _, grad = smoothness_loss(field, guide, mean_normalize=normalize)
        h = 1e-7
        for y, x in [(0, 0), (2, 3), (5, 5), (4, 1)]:
            fp = field.copy()
            fp[y, x] += h
            fm = field.copy()
            fm[y, x] -= h
            fd = (
                smoothness_loss(fp, guide, mean_normalize=normalize)[0]
                - smoothness_loss(fm, guide, mean_normalize=normalize)[0]
            ) / (2 * h)
            assert abs(grad[y, x] - fd) < 1e-6


def test_smoothness_validates_shapes():
    with pytest.raises(ValueError):
        smoothness_loss(np.zeros((4, 4)), np.zeros((5, 5)))


# ---------------------------------------------------------------------------
# forward-backward flow loss


def constant_flow(h, w, u, v):
    flow = np.zeros((h, w, 2))
    flow[..., 0] = u
    flow[..., 1] = v
    return flow


def test_fb_flow_zero_for_perfect_cycle():
    fwd = constant_flow(8, 8, 2.0, 0.0)
    mask = np.zeros((8, 8), bool)
    mask[:, :6] = True  # interior: landing points stay in bounds
    loss, gf, gb, degenerate = fb_flow_loss(fwd, -fwd, mask)
    assert loss == 0.0
    assert not degenerate
    assert np.abs(gf).max() == 0.0
    assert np.abs(gb).max() == 0.0


def test_fb_flow_unit_residual_value():
    fwd = constant_flow(6, 6, 1.0, 0.0)
    bwd = constant_flow(6, 6, 0.0, 0.0)
    loss, _, _, _ = fb_flow_loss(fwd, bwd, np.ones((6, 6), bool))
    assert abs(loss - PHI_1) < 1e-15


def test_fb_flow_matches_scalar_oracle():
    rng = np.random.default_rng(13)
    fwd = rng.uniform(-2.0, 2.0, (7, 7, 2))
    bwd = rng.uniform(-2.0, 2.0, (7, 7, 2))
    mask = rng.uniform(size=(7, 7)) > 0.3
    loss, _, _, _ = fb_flow_loss(fwd, bwd, mask)
    assert abs(loss - fb_flow_ref(fwd, bwd, mask)) < 1e-10


def test_fb_flow_empty_mask_degenerate():
    loss, gf, gb, degenerate = fb_flow_loss(
        np.ones((4, 4, 2)), np.ones((4, 4, 2)), np.zeros((4, 4), bool)
    )
    assert loss == 0.0 and degenerate
    assert not gf.any() and not gb.any()


def test_fb_flow_gradients_match_fd():
    rng = np.random.default_rng(14)
    fwd = rng.uniform(-1.5, 1.5, (6, 6, 2))
    bwd = rng.uniform(-1.5, 1.5, (6, 6, 2))
    mask = np.ones((6, 6), bool)
    _, gf, gb, _ = fb_flow_loss(fwd, bwd, mask)
    h = 1e-6
    for y, x, c in [(0, 0, 0), (2, 3, 1), (5, 5, 0), (3, 1, 1)]:
        fp = fwd.copy()
        fp[y, x, c] += h
        fm = fwd.copy()
        fm[y, x, c] -= h
        fd = (fb_flow_loss(fp, bwd, mask)[0] - fb_flow_loss(fm, bwd, mask)[0]) / (2 * h)
        assert abs(gf[y, x, c] - fd) < 1e-5
        bp = bwd.copy()
        bp[y, x, c] += h
        bm = bwd.copy()
        bm[y, x, c] -= h
        fd = (fb_flow_loss(fwd, bp, mask)[0] - fb_flow_loss(fwd, bm, mask)[0]) / (2 * h)
        assert abs(gb[y, x, c] - fd) < 1e-5


# ---------------------------------------------------------------------------
# forward-backward depth loss


def test_fb_depth_zero_for_static_plane():
    depth = np.full((8, 8), 3.0)
    loss, *_ , degenerate = fb_depth_loss(depth, depth, np.zeros((8, 8, 2)), np.ones((8, 8), bool))
    assert loss == 0.0
    assert not degenerate


def test_fb_depth_unit_gap_value():
    d_t = np.full((5, 5), 2.0)
    d_t1 = np.full((5, 5), 3.0)
    loss, *_ = fb_depth_loss(d_t, d_t1, np.zeros((5, 5, 2)), np.ones((5, 5), bool))
    assert abs(loss - PHI_1) < 1e-15


def test_fb_depth_consistent_on_rendered_scene(plane_gt):
    from rigidflow.camera import rigid_flow

    rigid, _ = rigid_flow(plane_gt.depth_t, plane_gt.intrinsics, plane_gt.pose)
    loss, *_ = fb_depth_loss(plane_gt.depth_t, plane_gt.depth_t1, rigid, ~plane_gt.occlusion)
    assert loss < 1e-6


def test_fb_depth_matches_scalar_oracle():
    rng = np.random.default_rng(15)
    d_t = rng.uniform(2.0, 4.0, (7, 7))
    d_t1 = rng.uniform(2.0, 4.0, (7, 7))
    rigid = rng.uniform(-1.5, 1.5, (7, 7, 2))
    mask = rng.uniform(size=(7, 7)) > 0.3
    loss, *_ = fb_depth_loss(d_t, d_t1, rigid, mask)
    assert abs(loss - fb_depth_ref(d_t, d_t1, rigid, mask)) < 1e-10


def test_fb_depth_gradients_match_fd():
    rng = np.random.default_rng(16)
    d_t = rng.uniform(2.0, 4.0, (6, 6))
    d_t1 = rng.uniform(2.0, 4.0, (6, 6))
    rigid = rng.uniform(-1.2, 1.2, (6, 6, 2))
    mask = np.ones((6, 6), bool)
    _, g_dt, g_dt1, g_rig, _ = fb_depth_loss(d_t, d_t1, rigid, mask)
    h = 1e-6
    for y, x in [(0, 0), (3, 2), (5, 5)]:
        dp = d_t.copy()
        dp[y, x] += h
        dm = d_t.copy()
        dm[y, x] -= h
        fd = (fb_depth_loss(dp, d_t1, rigid, mask)[0] - fb_depth_loss(dm, d_t1, rigid, mask)[0]) / (2 * h)
        assert abs(g_dt[y, x] - fd) < 1e-5
        dp = d_t1.copy()
        dp[y, x] += h
        dm = d_t1.copy()
        dm[y, x] -= h
        fd = (fb_depth_loss(d_t, dp, rigid, mask)[0] - fb_depth_loss(d_t, dm, rigid, mask)[0]) / (2 * h)
        assert abs(g_dt1[y, x] - fd) < 1e-5
        for c in (0, 1):
            rp = rigid.copy()
            rp[y, x, c] += h
            rm = rigid.copy()
            rm[y, x, c] -= h
            fd = (fb_depth_loss(d_t, d_t1, rp, mask)[0] - fb_depth_loss(d_t, d_t1, rm, mask)[0]) / (2 * h)
            assert abs(g_rig[y, x, c] - fd) < 1e-5


# ---------------------------------------------------------------------------
# cross-task loss


def test_cross_zero_when_fields_agree():
    rng = np.random.default_rng(17)
    rigid = rng.uniform(-3.0, 3.0, (6, 6, 2))
    loss, gr, gf, degenerate = cross_task_loss(rigid, rigid.copy(), np.ones((6, 6), bool))
    assert loss == 0.0
    assert not degenerate
    assert not gr.any() and not gf.any()


def test_cross_two_pixel_gap_value():
    rigid = constant_flow(5, 5, 2.0, 0.0)
    flow = constant_flow(5, 5, 0.0, 0.0)
    loss, *_ = cross_task_loss(rigid, flow, np.ones((5, 5), bool))
    want = (math.sqrt(4.0 + 1e-6) - 1e-3) + 0.0
    assert abs(loss - want) < 1e-15


def test_cross_matches_scalar_oracle():
    rng = np.random.default_rng(18)
    rigid = rng.uniform(-2.0, 2.0, (7, 7, 2))
    flow = rng.uniform(-2.0, 2.0, (7, 7, 2))
    mask = rng.uniform(size=(7, 7)) > 0.4
    loss, *_ = cross_task_loss(rigid, flow, mask)
    assert abs(loss - cross_ref(rigid, flow, mask)) < 1e-10


def test_cross_gradients_are_opposite():
    rng = np.random.default_rng(19)
    rigid = rng.uniform(-2.0, 2.0, (6, 6, 2))
    flow = rng.uniform(-2.0, 2.0, (6, 6, 2))
    _, gr, gf, _ = cross_task_loss(rigid, flow, np.ones((6, 6), bool))
    assert np.array_equal(gf, -gr)
    h = 1e-6
    for y, x, c in [(0, 0, 0), (4, 2, 1)]:
        rp = rigid.copy()
        rp[y, x, c] += h
        rm = rigid.copy()
        rm[y, x, c] -= h
        fd = (
            cross_task_loss(rp, flow, np.ones((6, 6), bool))[0]
            - cross_task_loss(rm, flow, np.ones((6, 6), bool))[0]
        ) / (2 * h)
        assert abs(gr[y, x, c] - fd) < 1e-6


def test_cross_empty_mask_degenerate():
    loss, gr, gf, degenerate = cross_task_loss(
        np.ones((4, 4, 2)), np.zeros((4, 4, 2)), np.zeros((4, 4), bool)
    )
    assert loss == 0.0 and degenerate


def test_cross_validates_shapes():
    with pytest.raises(ValueError):
        cross_task_loss(np.zeros((4, 4, 2)), np.zeros((5, 4, 2)), np.ones((4, 4), bool))


# ---------------------------------------------------------------------------
# assembled objective


def loss_report(gt, state, **settings):
    """The full objective of state on gt's frames, without gradients."""
    report, _, _ = evaluate(
        state, gt.image_t, gt.image_t1, gt.intrinsics, OptimizerConfig(**settings), want_grads=False
    )
    return report


def test_gt_state_total_near_zero(plane_gt):
    state = state_from_gt(plane_gt)
    report = loss_report(plane_gt, state, scales=4)
    assert report.total < 1e-4


def test_zero_weights_leave_only_photometric(plane_gt):
    state = state_from_gt(plane_gt)
    state = replace(state, depth_t=state.depth_t * 1.1, depth_t1=state.depth_t1 * 1.1)
    report = loss_report(plane_gt, state, weights=LossWeights(0.0, 0.0, 0.0), scales=2)
    assert report.total == report.photometric


def test_doubling_a_weight_adds_that_term(plane_gt):
    state = state_from_gt(plane_gt)
    state = replace(
        state,
        depth_t=state.depth_t * 1.07,
        depth_t1=state.depth_t1 * 1.07,
        flow_fwd=state.flow_fwd + 0.3,
        flow_bwd=state.flow_bwd + 0.3,
    )
    base = loss_report(plane_gt, state, weights=LossWeights(1.0, 1.0, 1.0), scales=2)
    doubled = loss_report(plane_gt, state, weights=LossWeights(2.0, 1.0, 1.0), scales=2)
    assert abs((doubled.total - base.total) - base.smooth) < 1e-12
    doubled = loss_report(plane_gt, state, weights=LossWeights(1.0, 2.0, 1.0), scales=2)
    assert abs((doubled.total - base.total) - base.forward_backward) < 1e-12
    doubled = loss_report(plane_gt, state, weights=LossWeights(1.0, 1.0, 2.0), scales=2)
    assert abs((doubled.total - base.total) - base.cross) < 1e-12


def test_report_equals_sum_of_separated_terms(plane_gt):
    state = state_from_gt(plane_gt)
    rng = np.random.default_rng(20)
    state = replace(
        state,
        depth_t=state.depth_t * rng.uniform(0.9, 1.1, state.depth_t.shape),
        flow_fwd=state.flow_fwd + rng.uniform(-0.5, 0.5, state.flow_fwd.shape),
    )
    frames = (plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics)
    weights = LossWeights()
    cfg = OptimizerConfig(weights=weights, scales=3)
    full, _, masks = evaluate(state, *frames, cfg, want_grads=False)
    parts = {}
    for term in ALL_TERMS:
        rep, _, _ = evaluate(
            state, *frames, cfg, masks=masks, terms=frozenset({term}), want_grads=False
        )
        parts[term] = rep
    assert parts["photometric"].photometric == full.photometric
    assert parts["smooth"].smooth == full.smooth
    assert (
        abs(parts["fb_flow"].forward_backward + parts["fb_depth"].forward_backward
            - full.forward_backward) < 1e-15
    )
    assert parts["cross"].cross == full.cross
    recombined = (
        full.photometric
        + weights.lambda_s * full.smooth
        + weights.lambda_f * full.forward_backward
        + weights.lambda_c * full.cross
    )
    assert abs(full.total - recombined) < 1e-15


def test_cross_scales_limits_cross_term(plane_gt):
    state = state_from_gt(plane_gt)
    rng = np.random.default_rng(21)
    state = replace(state, flow_fwd=state.flow_fwd + rng.uniform(-0.5, 0.5, state.flow_fwd.shape))
    all_scales = loss_report(plane_gt, state, scales=3, cross_scales=3)
    finest_only = loss_report(plane_gt, state, scales=3, cross_scales=1)
    none = loss_report(plane_gt, state, scales=3, cross_scales=0)
    assert none.cross == 0.0
    assert 0.0 < finest_only.cross < all_scales.cross


def test_non_finite_loss_names_the_term(plane_gt):
    # a finite flow so large that its smoothness penalty overflows
    state = state_from_gt(plane_gt)
    flow = state.flow_fwd.copy()
    flow[3, 3, 0] = 1e200
    state = replace(state, flow_fwd=flow)
    with pytest.raises(NonFiniteLossError) as err, np.errstate(over="ignore", invalid="ignore"):
        loss_report(plane_gt, state, scales=1)
    assert err.value.term == "smooth"


def test_non_finite_image_rejected(plane_gt):
    state = state_from_gt(plane_gt)
    img = plane_gt.image_t.copy()
    img[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        evaluate(state, img, plane_gt.image_t1, plane_gt.intrinsics)


def test_masks_length_validated(plane_gt):
    state = state_from_gt(plane_gt)
    with pytest.raises(ValueError, match="every scale"):
        evaluate(
            state,
            plane_gt.image_t,
            plane_gt.image_t1,
            plane_gt.intrinsics,
            OptimizerConfig(scales=3),
            masks=[None, None],
        )


# ---------------------------------------------------------------------------
# the level objective through shared warp plans, against term-by-term sampling


def same_bits(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def odd_level():
    """An odd, non-square level with a perturbed state off every lattice."""
    from rigidflow.camera import invert
    from rigidflow.scenes import preset, render

    gt = render(preset("mover", width=45, height=37))
    rng = np.random.default_rng(31)
    state = state_from_gt(gt)
    depth_t = state.depth_t * rng.uniform(0.8, 1.2, state.depth_t.shape)
    depth_t1 = state.depth_t1 * rng.uniform(0.8, 1.2, state.depth_t.shape)
    flow_fwd = state.flow_fwd + rng.uniform(-0.7, 0.7, state.flow_fwd.shape)
    flow_bwd = state.flow_bwd + rng.uniform(-0.7, 0.7, state.flow_bwd.shape)
    pose = gt.pose
    return (gt.image_t, gt.image_t1, depth_t, depth_t1, pose, invert(pose), flow_fwd, flow_bwd, gt.intrinsics)


def assert_same_level(got, want):
    for name in ("photometric", "smooth", "fb", "cross"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    for name in (
        "grad_depth_t",
        "grad_depth_t1",
        "grad_r_fwd",
        "grad_t_fwd",
        "grad_r_bwd",
        "grad_t_bwd",
        "grad_flow_fwd",
        "grad_flow_bwd",
    ):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    for name in ("depth_fwd", "depth_bwd", "flow_fwd", "flow_bwd"):
        assert same_bits(getattr(got.masks, name), getattr(want.masks, name)), name


LEVEL_CASES = [
    dict(),
    dict(terms=ALL_TERMS - {"cross"}),
    dict(terms=frozenset({"photometric"})),
    dict(terms=frozenset({"fb_flow", "cross"})),
    dict(terms=frozenset({"smooth", "fb_depth"})),
]


@pytest.mark.parametrize("case", LEVEL_CASES)
@pytest.mark.parametrize("radius", [1, 2])
def test_scale_objective_matches_term_by_term_sampling(odd_level, case, radius):
    from rigidflow.losses import scale_objective
    from rigidflow.masks import FBCheckParams
    from oracles import scale_objective_cell

    settings = (LossWeights(), CensusParams(radius=radius), FBCheckParams())
    want = scale_objective_cell(*odd_level, *settings, **case)
    got = scale_objective(*odd_level, *settings, **case)
    assert_same_level(got, want)
    # frozen masks: the ones just computed, and a sparse set with empty rows
    frozen = want.masks
    rng = np.random.default_rng(radius)
    thinned = type(frozen)(
        *(
            m & (rng.uniform(size=m.shape) < 0.3)
            for m in (frozen.depth_fwd, frozen.depth_bwd, frozen.flow_fwd, frozen.flow_bwd)
        )
    )
    for masks in (frozen, thinned):
        want = scale_objective_cell(*odd_level, *settings, masks=masks, **case)
        got = scale_objective(*odd_level, *settings, masks=masks, **case)
        assert_same_level(got, want)


def test_scale_objective_with_an_empty_mask_matches(odd_level):
    from rigidflow.losses import LevelMasks, scale_objective
    from rigidflow.masks import FBCheckParams
    from oracles import scale_objective_cell

    settings = (LossWeights(), CensusParams(), FBCheckParams())
    full = scale_objective_cell(*odd_level, *settings).masks
    empty = np.zeros_like(full.flow_fwd)
    masks = LevelMasks(full.depth_fwd, empty, empty, full.flow_bwd)
    assert_same_level(
        scale_objective(*odd_level, *settings, masks=masks),
        scale_objective_cell(*odd_level, *settings, masks=masks),
    )


def test_public_terms_match_term_by_term_sampling(odd_level):
    from rigidflow.masks import FBCheckParams, fb_check
    from oracles import fb_check_cell, fb_depth_cell, fb_flow_cell, photometric_cell

    img_t, img_t1, depth_t, depth_t1, pose, _, flow_fwd, flow_bwd, k = odd_level
    mask = fb_check_cell(flow_fwd, flow_bwd, 0.01, 0.5)
    assert same_bits(fb_check(flow_fwd, flow_bwd, FBCheckParams()), mask)
    gray_t, gray_t1 = img_t[..., 0], img_t1[..., 0]
    for got, want in (
        (fb_flow_loss(flow_fwd, flow_bwd, mask), fb_flow_cell(flow_fwd, flow_bwd, mask)),
        (fb_depth_loss(depth_t, depth_t1, flow_fwd, mask), fb_depth_cell(depth_t, depth_t1, flow_fwd, mask)),
        (
            photometric_loss(gray_t, gray_t1, mask, CensusParams(radius=2)),
            photometric_cell(gray_t, gray_t1, mask, 2, 0.02, 1e-3),
        ),
    ):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert same_bits(a, b)
