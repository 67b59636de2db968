import math
from dataclasses import replace

import numpy as np
import pytest

from rigidflow.camera import Intrinsics
from rigidflow.losses import (
    ALL_TERMS,
    CensusParams,
    LossWeights,
    NonFiniteLossError,
    charbonnier,
    cross_task_loss,
    edge_weights,
    smoothness_loss,
)
from rigidflow.optimize import OptimizerConfig, SceneState, evaluate, make_initial_state
from rigidflow.sampling import WarpPlan, Workspace
from rigidflow.scenes import preset, render

from conftest import census_terms, channel_last, fb_depth_terms, fb_flow_terms, planar, sample_grad, state_from_gt
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


def test_charbonnier_without_grads_keeps_the_loss_bits():
    xs = np.random.default_rng(3).normal(size=(4, 5)) * np.logspace(-6, 2, 5)
    for eps in (1e-3, 0.02):
        val, der = charbonnier(xs, eps=eps)
        fwd, none = charbonnier(xs, eps=eps, grads=False)
        assert none is None
        assert fwd.tobytes() == val.tobytes()
        assert val.tobytes() == (np.sqrt(xs * xs + eps * eps) - eps).tobytes()
        assert der.tobytes() == (xs / np.sqrt(xs * xs + eps * eps)).tobytes()


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


def test_census_params_reject_what_the_census_cannot_compute():
    # the census gradient divides by epsilon**3 (as (d^2 + epsilon^2)^1.5)
    # and its penalty squares charbonnier_eps: outside their ranges a power
    # underflows to 0 or overflows, inside them evaluate runs without a warning
    import warnings

    from rigidflow.losses import CHARBONNIER_EPS_RANGE, EPSILON_RANGE

    tiny, top = np.finfo(float).tiny, np.finfo(float).max
    lo, hi = EPSILON_RANGE
    below = np.nextafter(hi, 0.0)
    assert lo**3 >= tiny > np.nextafter(lo, 0.0) ** 3
    with np.errstate(over="ignore"):
        assert np.power(below * below, 1.5) <= top < np.power(hi * hi, 1.5)
    lo_c, hi_c = CHARBONNIER_EPS_RANGE
    assert lo_c * lo_c >= tiny > np.nextafter(lo_c, 0.0) ** 2
    assert hi_c * hi_c <= top
    for kwargs, field in (
        (dict(epsilon=np.nextafter(lo, 0.0)), "epsilon"),
        (dict(epsilon=hi), "epsilon"),
        (dict(epsilon=1e-108), "epsilon"),
        (dict(epsilon=1e103), "epsilon"),
        (dict(charbonnier_eps=np.nextafter(lo_c, 0.0)), "charbonnier_eps"),
        (dict(charbonnier_eps=np.nextafter(hi_c, np.inf)), "charbonnier_eps"),
        (dict(charbonnier_eps=1e-162), "charbonnier_eps"),
        (dict(charbonnier_eps=1e155), "charbonnier_eps"),
    ):
        with pytest.raises(ValueError, match=rf"^{field} must be in \["):
            CensusParams(**kwargs)
    gt = render(preset("mover", width=32, height=24))
    state = make_initial_state(gt, np.random.default_rng(0))
    for kwargs in (
        dict(epsilon=lo, charbonnier_eps=lo_c),
        dict(epsilon=below, charbonnier_eps=hi_c),
        dict(epsilon=lo, charbonnier_eps=hi_c),
        dict(epsilon=below, charbonnier_eps=lo_c),
    ):
        cfg = OptimizerConfig(scales=2, census=CensusParams(**kwargs))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report, grad, _ = evaluate(state, gt.image_t, gt.image_t1, gt.intrinsics, cfg)
        assert np.isfinite(report.total), kwargs
        assert all(np.isfinite(a).all() for a in vars(grad).values()), kwargs


# ---------------------------------------------------------------------------
# photometric loss: the census core, `census_terms(ref, [(warped, mask), ...])` on
# the descriptors of ref


def test_photometric_zero_on_identical_images():
    rng = np.random.default_rng(1)
    img = rng.uniform(size=(10, 10))
    (term,) = census_terms(img, [(img.copy(), np.ones((10, 10), bool))], CensusParams())
    loss, grad = term
    assert loss == 0.0
    assert np.abs(grad).max() == 0.0


def test_photometric_invariant_to_uniform_shift_of_warped():
    rng = np.random.default_rng(2)
    ref = rng.uniform(0.2, 0.8, (12, 12))
    warped = ref + rng.uniform(-0.05, 0.05, (12, 12))
    mask = np.ones((12, 12), bool)
    (base, _), (shifted, _) = census_terms(ref, [(warped, mask), (warped + 0.1, mask)], CensusParams())
    assert abs(base - shifted) < 1e-9


def test_photometric_invariant_to_shift_of_both_images():
    rng = np.random.default_rng(3)
    ref = rng.uniform(0.2, 0.8, (12, 12))
    warped = ref + rng.uniform(-0.05, 0.05, (12, 12))
    mask = np.ones((12, 12), bool)
    ((base, _),) = census_terms(ref, [(warped, mask)], CensusParams())
    for shift in (0.1, -0.1):
        ((moved, _),) = census_terms(ref + shift, [(warped + shift, mask)], CensusParams())
        assert abs(base - moved) < 1e-9


def test_photometric_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    for _ in range(3):
        ref = rng.uniform(size=(9, 9))
        warped = rng.uniform(size=(9, 9))
        mask = rng.uniform(size=(9, 9)) > 0.3
        ((loss, _),) = census_terms(ref, [(warped, mask)], CensusParams())
        want = census_loss_ref(ref, warped, mask, radius=1, epsilon=0.02, charbonnier_eps=1e-3)
        assert abs(loss - want) < 1e-10


def test_photometric_multichannel_averages_to_gray():
    # the objective compares the channel means: colour frames against their
    # gray means, through a still state whose every mask is full
    rng = np.random.default_rng(5)
    ref = rng.uniform(size=(8, 8, 3))
    warped = rng.uniform(size=(8, 8, 3))
    still = SceneState(np.ones((8, 8)), np.ones((8, 8)), np.zeros(6), np.zeros((8, 8, 2)), np.zeros((8, 8, 2)))
    k = Intrinsics(10.0, 10.0, 3.5, 3.5)
    cfg = OptimizerConfig(scales=1)
    only = frozenset({"photometric"})
    color, _, masks = evaluate(still, ref, warped, k, cfg, terms=only, want_grads=False)
    gray, _, _ = evaluate(still, ref.mean(axis=2), warped.mean(axis=2), k, cfg, terms=only, want_grads=False)
    assert all(m.all() for m in vars(masks[0]).values())
    assert color.photometric > 0.0
    assert abs(color.photometric - gray.photometric) < 1e-12


def test_excluded_pixels_contribute_exactly_zero():
    rng = np.random.default_rng(6)
    ref = rng.uniform(size=(10, 10))
    warped = rng.uniform(size=(10, 10))
    mask = np.zeros((10, 10), bool)
    mask[2:7, 3:8] = True
    trashed = warped.copy()
    trashed[~mask] = rng.uniform(-100.0, 100.0, int((~mask).sum()))
    (base, _), (after, _) = census_terms(ref, [(warped, mask), (trashed, mask)], CensusParams())
    assert base == after


def test_photometric_empty_mask_degenerate():
    # an empty branch runs the general path: a +0.0 loss and a +0 gradient
    img = np.zeros((5, 5))
    ((loss, grad),) = census_terms(img, [(img, np.zeros((5, 5), bool))], CensusParams())
    assert np.float64(loss).tobytes() == np.float64(0.0).tobytes()
    assert grad.shape == (5, 5) and grad.tobytes() == np.zeros((5, 5)).tobytes()


def test_photometric_gradient_matches_fd():
    rng = np.random.default_rng(7)
    ref = rng.uniform(size=(8, 8))
    warped = rng.uniform(size=(8, 8))
    mask = np.ones((8, 8), bool)
    ((_, grad),) = census_terms(ref, [(warped, mask)], CensusParams())
    h = 1e-6
    for y, x in [(0, 0), (3, 4), (7, 7), (5, 1), (2, 6)]:
        wp = warped.copy()
        wp[y, x] += h
        wm = warped.copy()
        wm[y, x] -= h
        (lp, _), (lm, _) = census_terms(ref, [(wp, mask), (wm, mask)], CensusParams())
        fd = (lp - lm) / (2 * h)
        assert abs(grad[y, x] - fd) < 2e-6


# ---------------------------------------------------------------------------
# smoothness


def test_smoothness_zero_for_constant_field():
    rng = np.random.default_rng(8)
    guide = rng.uniform(size=(6, 6))
    loss, grad = smoothness_loss(np.full((6, 6), 2.0), edge_weights(guide[None]))
    assert loss == 0.0
    assert not grad.any()


def test_smoothness_ramp_against_analytic_sum():
    # ramp slope s along x over an HxW grid with a constant guide:
    # H*(W-1) x-gradients of size |s| (charbonnier-smoothed), no y-gradients,
    # normalized by H*W
    h, w, s = 5, 8, 0.3
    field = s * np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))[0]
    loss, _ = smoothness_loss(field, edge_weights(np.full((h, w), 0.5)[None]))
    phi_s = math.sqrt(s * s + 1e-6) - 1e-3
    assert abs(loss - phi_s * h * (w - 1) / (h * w)) < 1e-12
    # the surrogate tracks the plain |slope| sum to within its epsilon
    assert abs(loss - s * h * (w - 1) / (h * w)) < 1e-3


def test_smoothness_has_zero_gradient_at_near_constant_field():
    # 1e-15 ripples (the scale left by float arithmetic on an analytically
    # constant field) must produce vanishing gradients, not sign gradients
    rng = np.random.default_rng(22)
    field = 8.0 + rng.uniform(-1e-15, 1e-15, (8, 8))
    _, grad = smoothness_loss(field, edge_weights(rng.uniform(size=(8, 8))[None]))
    assert np.abs(grad).max() < 1e-10


def test_guide_edges_damp_the_penalty():
    h, w = 6, 6
    field = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))[0]
    flat_guide = np.full((h, w), 0.5)
    edge_guide = np.zeros((h, w))
    edge_guide[:, 3:] = 1.0  # strong edge aligned with the field gradient
    flat_loss, _ = smoothness_loss(field, edge_weights(flat_guide[None]))
    edge_loss, _ = smoothness_loss(field, edge_weights(edge_guide[None]))
    assert edge_loss < flat_loss


def test_smoothness_matches_scalar_oracle():
    rng = np.random.default_rng(9)
    field = rng.uniform(1.0, 3.0, (7, 7))
    guide = rng.uniform(size=(7, 7))
    loss, _ = smoothness_loss(field, edge_weights(guide[None]))
    assert abs(loss - smoothness_ref(field, guide)) < 1e-12
    loss_n, _ = smoothness_loss(field, edge_weights(guide[None]), mean_normalize=True)
    assert abs(loss_n - smoothness_ref(field, guide, mean_normalize=True)) < 1e-12


def test_smoothness_flow_field_sums_channels():
    rng = np.random.default_rng(10)
    flow = rng.uniform(-2.0, 2.0, (6, 6, 2))
    guide = rng.uniform(size=(6, 6))
    loss, grad = smoothness_loss(planar(flow), edge_weights(guide[None]))
    assert abs(loss - smoothness_ref(flow, guide)) < 1e-12
    assert channel_last(grad).shape == (6, 6, 2)


def test_mean_normalized_smoothness_is_scale_invariant():
    rng = np.random.default_rng(11)
    field = rng.uniform(2.0, 4.0, (6, 6))
    guide = rng.uniform(size=(6, 6))
    a, _ = smoothness_loss(field, edge_weights(guide[None]), mean_normalize=True)
    b, _ = smoothness_loss(field * 7.5, edge_weights(guide[None]), mean_normalize=True)
    assert abs(a - b) < 1e-12


def test_mean_normalize_rejects_zero_mean():
    field = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError):
        smoothness_loss(field, edge_weights(np.zeros((2, 2))[None]), mean_normalize=True)


def test_smoothness_gradient_matches_fd():
    rng = np.random.default_rng(12)
    field = rng.uniform(1.0, 3.0, (6, 6))
    edges = edge_weights(rng.uniform(size=(6, 6))[None])
    for normalize in (False, True):
        _, grad = smoothness_loss(field, edges, mean_normalize=normalize)
        h = 1e-7
        for y, x in [(0, 0), (2, 3), (5, 5), (4, 1)]:
            fp = field.copy()
            fp[y, x] += h
            fm = field.copy()
            fm[y, x] -= h
            fd = (
                smoothness_loss(fp, edges, mean_normalize=normalize)[0]
                - smoothness_loss(fm, edges, mean_normalize=normalize)[0]
            ) / (2 * h)
            assert abs(grad[y, x] - fd) < 1e-6


def test_smoothness_validates_shapes():
    with pytest.raises(ValueError):
        smoothness_loss(np.zeros((4, 4)), edge_weights(np.zeros((5, 5))[None]))


# ---------------------------------------------------------------------------
# forward-backward flow loss: the core, fed the cycle b(p + f(p)) sampled
# through the plan of f


def constant_flow(h, w, u, v):
    flow = np.zeros((h, w, 2))
    flow[..., 0] = u
    flow[..., 1] = v
    return flow


def test_fb_flow_zero_for_perfect_cycle():
    fwd = constant_flow(8, 8, 2.0, 0.0)
    mask = np.zeros((8, 8), bool)
    mask[:, :6] = True  # interior: landing points stay in bounds
    plan = WarpPlan.along(planar(fwd), Workspace())
    loss, gf, gb = fb_flow_terms(planar(fwd), plan, sample_grad(plan, planar(-fwd)), mask)
    assert loss == 0.0
    assert np.abs(gf).max() == 0.0
    assert np.abs(gb).max() == 0.0


def test_fb_flow_unit_residual_value():
    fwd = constant_flow(6, 6, 1.0, 0.0)
    bwd = constant_flow(6, 6, 0.0, 0.0)
    plan = WarpPlan.along(planar(fwd), Workspace())
    loss, _, _ = fb_flow_terms(planar(fwd), plan, sample_grad(plan, planar(bwd)), np.ones((6, 6), bool))
    assert abs(loss - PHI_1) < 1e-15


def test_fb_flow_matches_scalar_oracle():
    rng = np.random.default_rng(13)
    fwd = rng.uniform(-2.0, 2.0, (7, 7, 2))
    bwd = rng.uniform(-2.0, 2.0, (7, 7, 2))
    mask = rng.uniform(size=(7, 7)) > 0.3
    plan = WarpPlan.along(planar(fwd), Workspace())
    loss, _, _ = fb_flow_terms(planar(fwd), plan, sample_grad(plan, planar(bwd)), mask)
    assert abs(loss - fb_flow_ref(fwd, bwd, mask)) < 1e-10


def test_fb_flow_empty_mask_degenerate():
    fwd = np.ones((4, 4, 2))
    plan = WarpPlan.along(planar(fwd), Workspace())
    cycle = sample_grad(plan, planar(np.ones((4, 4, 2))))
    loss, gf, gb = fb_flow_terms(planar(fwd), plan, cycle, np.zeros((4, 4), bool))
    assert loss == 0.0
    assert not gf.any() and not gb.any()


def test_fb_depth_empty_mask_degenerate():
    depth = np.full((4, 4), 2.0)
    plan = WarpPlan.along(planar(np.ones((4, 4, 2))), Workspace())
    loss, g_t, g_t1, g_rigid = fb_depth_terms(depth, 1.5 * depth, plan, np.zeros((4, 4), bool))
    assert loss == 0.0
    assert not g_t.any() and not g_t1.any() and not g_rigid.any()


def test_fb_flow_gradients_match_fd():
    rng = np.random.default_rng(14)
    fwd = rng.uniform(-1.5, 1.5, (6, 6, 2))
    bwd = rng.uniform(-1.5, 1.5, (6, 6, 2))
    mask = np.ones((6, 6), bool)
    plan = WarpPlan.along(planar(fwd), Workspace())
    gf, gb = map(channel_last, fb_flow_terms(planar(fwd), plan, sample_grad(plan, planar(bwd)), mask)[1:])
    h = 1e-6
    for y, x, c in [(0, 0, 0), (2, 3, 1), (5, 5, 0), (3, 1, 1)]:
        fp = fwd.copy()
        fp[y, x, c] += h
        fm = fwd.copy()
        fm[y, x, c] -= h
        plan_p, plan_m = WarpPlan.along(planar(fp), Workspace()), WarpPlan.along(planar(fm), Workspace())
        lp = fb_flow_terms(planar(fp), plan_p, sample_grad(plan_p, planar(bwd)), mask)[0]
        lm = fb_flow_terms(planar(fm), plan_m, sample_grad(plan_m, planar(bwd)), mask)[0]
        assert abs(gf[y, x, c] - (lp - lm) / (2 * h)) < 1e-5
        bp = bwd.copy()
        bp[y, x, c] += h
        bm = bwd.copy()
        bm[y, x, c] -= h
        # the sample points depend on fwd alone, so its plan serves both
        lp = fb_flow_terms(planar(fwd), plan, sample_grad(plan, planar(bp)), mask)[0]
        lm = fb_flow_terms(planar(fwd), plan, sample_grad(plan, planar(bm)), mask)[0]
        assert abs(gb[y, x, c] - (lp - lm) / (2 * h)) < 1e-5


# ---------------------------------------------------------------------------
# forward-backward depth loss: the core, frame t+1 pulled back through the
# plan of the rigid flow


def test_fb_depth_zero_for_static_plane():
    depth = np.full((8, 8), 3.0)
    plan = WarpPlan.along(planar(np.zeros((8, 8, 2))), Workspace())
    loss, *_ = fb_depth_terms(depth, depth, plan, np.ones((8, 8), bool))
    assert loss == 0.0


def test_fb_depth_unit_gap_value():
    d_t = np.full((5, 5), 2.0)
    d_t1 = np.full((5, 5), 3.0)
    plan = WarpPlan.along(planar(np.zeros((5, 5, 2))), Workspace())
    loss, *_ = fb_depth_terms(d_t, d_t1, plan, np.ones((5, 5), bool))
    assert abs(loss - PHI_1) < 1e-15


def test_fb_depth_consistent_on_rendered_scene(plane_gt):
    from rigidflow.camera import rigid_flow

    rigid, _ = rigid_flow(plane_gt.depth_t, plane_gt.intrinsics, plane_gt.pose)
    plan = WarpPlan.along(planar(rigid), Workspace())
    loss, *_ = fb_depth_terms(plane_gt.depth_t, plane_gt.depth_t1, plan, ~plane_gt.occlusion)
    assert loss < 1e-6


def test_fb_depth_matches_scalar_oracle():
    rng = np.random.default_rng(15)
    d_t = rng.uniform(2.0, 4.0, (7, 7))
    d_t1 = rng.uniform(2.0, 4.0, (7, 7))
    rigid = rng.uniform(-1.5, 1.5, (7, 7, 2))
    mask = rng.uniform(size=(7, 7)) > 0.3
    loss, *_ = fb_depth_terms(d_t, d_t1, WarpPlan.along(planar(rigid), Workspace()), mask)
    assert abs(loss - fb_depth_ref(d_t, d_t1, rigid, mask)) < 1e-10


def test_fb_depth_gradients_match_fd():
    rng = np.random.default_rng(16)
    d_t = rng.uniform(2.0, 4.0, (6, 6))
    d_t1 = rng.uniform(2.0, 4.0, (6, 6))
    rigid = rng.uniform(-1.2, 1.2, (6, 6, 2))
    mask = np.ones((6, 6), bool)
    plan = WarpPlan.along(planar(rigid), Workspace())
    _, g_dt, g_dt1, g_rig = fb_depth_terms(d_t, d_t1, plan, mask)
    g_rig = channel_last(g_rig)
    h = 1e-6
    for y, x in [(0, 0), (3, 2), (5, 5)]:
        dp = d_t.copy()
        dp[y, x] += h
        dm = d_t.copy()
        dm[y, x] -= h
        fd = (fb_depth_terms(dp, d_t1, plan, mask)[0] - fb_depth_terms(dm, d_t1, plan, mask)[0]) / (2 * h)
        assert abs(g_dt[y, x] - fd) < 1e-5
        dp = d_t1.copy()
        dp[y, x] += h
        dm = d_t1.copy()
        dm[y, x] -= h
        fd = (fb_depth_terms(d_t, dp, plan, mask)[0] - fb_depth_terms(d_t, dm, plan, mask)[0]) / (2 * h)
        assert abs(g_dt1[y, x] - fd) < 1e-5
        for c in (0, 1):
            rp = rigid.copy()
            rp[y, x, c] += h
            rm = rigid.copy()
            rm[y, x, c] -= h
            lp = fb_depth_terms(d_t, d_t1, WarpPlan.along(planar(rp), Workspace()), mask)[0]
            lm = fb_depth_terms(d_t, d_t1, WarpPlan.along(planar(rm), Workspace()), mask)[0]
            assert abs(g_rig[y, x, c] - (lp - lm) / (2 * h)) < 1e-5


# ---------------------------------------------------------------------------
# cross-task loss


def test_cross_zero_when_fields_agree():
    rng = np.random.default_rng(17)
    rigid = rng.uniform(-3.0, 3.0, (6, 6, 2))
    loss, gr, gf = cross_task_loss(planar(rigid), planar(rigid.copy()), np.ones((6, 6), bool))
    assert loss == 0.0
    assert not gr.any() and not gf.any()


def test_cross_two_pixel_gap_value():
    rigid = constant_flow(5, 5, 2.0, 0.0)
    flow = constant_flow(5, 5, 0.0, 0.0)
    loss, *_ = cross_task_loss(planar(rigid), planar(flow), np.ones((5, 5), bool))
    want = (math.sqrt(4.0 + 1e-6) - 1e-3) + 0.0
    assert abs(loss - want) < 1e-15


def test_cross_matches_scalar_oracle():
    rng = np.random.default_rng(18)
    rigid = rng.uniform(-2.0, 2.0, (7, 7, 2))
    flow = rng.uniform(-2.0, 2.0, (7, 7, 2))
    mask = rng.uniform(size=(7, 7)) > 0.4
    loss, *_ = cross_task_loss(planar(rigid), planar(flow), mask)
    assert abs(loss - cross_ref(rigid, flow, mask)) < 1e-10


def test_cross_gradients_are_opposite():
    rng = np.random.default_rng(19)
    rigid = rng.uniform(-2.0, 2.0, (6, 6, 2))
    flow = rng.uniform(-2.0, 2.0, (6, 6, 2))
    gr, gf = map(channel_last, cross_task_loss(planar(rigid), planar(flow), np.ones((6, 6), bool))[1:])
    assert np.array_equal(gf, -gr)
    h = 1e-6
    for y, x, c in [(0, 0, 0), (4, 2, 1)]:
        rp = rigid.copy()
        rp[y, x, c] += h
        rm = rigid.copy()
        rm[y, x, c] -= h
        fd = (
            cross_task_loss(planar(rp), planar(flow), np.ones((6, 6), bool))[0]
            - cross_task_loss(planar(rm), planar(flow), np.ones((6, 6), bool))[0]
        ) / (2 * h)
        assert abs(gr[y, x, c] - fd) < 1e-6


def test_cross_empty_mask_degenerate():
    loss, gr, gf = cross_task_loss(planar(np.ones((4, 4, 2))), planar(np.zeros((4, 4, 2))), np.zeros((4, 4), bool))
    assert loss == 0.0
    assert not gr.any() and not gf.any()


def test_cross_validates_shapes():
    with pytest.raises(ValueError):
        cross_task_loss(planar(np.zeros((4, 4, 2))), planar(np.zeros((5, 4, 2))), np.ones((4, 4), bool))


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
    # a state in range, a rough flow, whose smoothness sum, weighted past the
    # largest float, overflows (a flow large enough to overflow is refused at
    # the state)
    state = state_from_gt(plane_gt)
    rng = np.random.default_rng(3)
    state = replace(state, flow_fwd=state.flow_fwd + rng.uniform(-5.0, 5.0, state.flow_fwd.shape))
    cfg = OptimizerConfig(scales=1, scale_weights=(1e308,))
    args = (plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics, cfg)
    with pytest.raises(NonFiniteLossError) as err:
        evaluate(state, *args, terms=frozenset({"smooth"}), want_grads=False)
    assert err.value.term == "smooth"


def test_non_finite_image_rejected(plane_gt):
    state = state_from_gt(plane_gt)
    img = plane_gt.image_t.copy()
    img[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        evaluate(state, img, plane_gt.image_t1, plane_gt.intrinsics)


def test_masks_length_validated(plane_gt):
    args = (state_from_gt(plane_gt), plane_gt.image_t, plane_gt.image_t1, plane_gt.intrinsics)
    for levels in (2, 4):
        with pytest.raises(ValueError, match=f"^masks has {levels} levels but scales is 3$"):
            evaluate(*args, OptimizerConfig(scales=3), masks=[None] * levels)


def _frozen_masks(gt):
    return evaluate(state_from_gt(gt), gt.image_t, gt.image_t1, gt.intrinsics, OptimizerConfig(scales=2))[2]


def _evaluate_frozen(gt, masks):
    state = state_from_gt(gt)
    evaluate(state, gt.image_t, gt.image_t1, gt.intrinsics, OptimizerConfig(scales=2), masks=masks)


def test_frozen_masks_of_another_size_are_named(plane_gt):
    masks = _frozen_masks(render(preset("plane", width=32, height=32)))
    with pytest.raises(ValueError) as err:
        _evaluate_frozen(plane_gt, masks)
    assert str(err.value) == "masks[0].depth_fwd is 32x32 but level 0 is 64x64"


def test_frozen_masks_that_are_not_bool_are_named(plane_gt):
    masks = _frozen_masks(plane_gt)
    masks[1] = replace(masks[1], flow_bwd=masks[1].flow_bwd.astype(float))
    with pytest.raises(ValueError) as err:
        _evaluate_frozen(plane_gt, masks)
    assert str(err.value) == "masks[1].flow_bwd must be a bool array, got float64"


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
    return (
        (gt.image_t, gt.image_t1),
        (depth_t, depth_t1),
        (pose, invert(pose)),
        (flow_fwd, flow_bwd),
        gt.intrinsics,
    )


def level_objective(imgs, depths, poses, flows, k, *settings, **case):
    """`scale_objective` on the level inputs of imgs and k, called as the oracle
    is: the (H, W, 2) flows go in planar, (2, 2, H, W) as [component, side],
    and their gradients come back (H, W, 2) per side."""
    from rigidflow.losses import _block_entries, scale_objective
    from rigidflow.optimize import PairContext

    # the context's census descriptors are built for the case's census settings
    cfg = OptimizerConfig(scales=1, census=settings[1])
    (level,) = PairContext(*imgs, k, cfg, depths[0].shape).levels
    entries = _block_entries([(p.rotation, p.translation) for p in poses], [depths[0].shape])
    weights, _, fb_params = settings
    res = scale_objective(
        level, depths, entries, np.stack([planar(f) for f in flows], axis=1), weights, fb_params, Workspace(), **case
    )
    return replace(res, grad_flow=tuple(np.ascontiguousarray(channel_last(res.grad_flow[:, d])) for d in (0, 1)))


def assert_same_level(got, want):
    for name in ("photometric", "smooth", "fb", "cross"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    for side in (0, 1):
        assert same_bits(got.grad_depth[side], want.grad_depth[side]), ("grad_depth", side)
        assert same_bits(got.grad_flow[side], want.grad_flow[side]), ("grad_flow", side)
        for i, part in enumerate(("rotation", "translation")):
            assert same_bits(got.grad_pose[side][i], want.grad_pose[side][i]), ("grad_pose", side, part)
    for name in ("depth_fwd", "depth_bwd", "flow_fwd", "flow_bwd"):
        assert same_bits(getattr(got.masks, name), getattr(want.masks, name)), name


LEVEL_CASES = [
    dict(),
    dict(terms=ALL_TERMS - {"cross"}),
    dict(terms=frozenset({"photometric"})),
    dict(terms=frozenset({"fb_flow", "cross"})),
    dict(terms=frozenset({"smooth", "fb_depth"})),
]


def test_side_blocks_split_at_stacked_pixels():
    # both sides in one block below losses.STACKED_PIXELS, one side per
    # block from it on; the benchmark's 64x64 levels stack, slanted 129x97
    # runs a side at a time
    from rigidflow.losses import STACKED_PIXELS, _side_blocks

    stacked = [(slice(0, 2), slice(0, 2))]
    one_side = [(slice(0, 1), slice(1, 2)), (slice(1, 2), slice(0, 1))]
    assert _side_blocks(1, STACKED_PIXELS - 1) == stacked
    assert _side_blocks(STACKED_PIXELS, 1) == one_side
    assert STACKED_PIXELS == 100 * 100
    for h, w in ((64, 64), (96, 96), (99, 101)):
        assert _side_blocks(h, w) == stacked, (h, w)
    for h, w in ((100, 100), (97, 129), (128, 128), (256, 256)):
        assert _side_blocks(h, w) == one_side, (h, w)


@pytest.fixture(params=[0, 10**9], ids=["one-side", "stacked"])
def block_path(request, monkeypatch):
    """Every level run a side at a time (0), or both sides stacked (10**9)."""
    from rigidflow import losses

    monkeypatch.setattr(losses, "STACKED_PIXELS", request.param)


@pytest.mark.parametrize("case", LEVEL_CASES)
@pytest.mark.parametrize("radius", [1, 2])
def test_scale_objective_matches_term_by_term_sampling(odd_level, block_path, case, radius):
    from rigidflow.masks import FBCheckParams
    from oracles import scale_objective_cell

    settings = (LossWeights(), CensusParams(radius=radius), FBCheckParams())
    want = scale_objective_cell(*odd_level, *settings, **case)
    got = level_objective(*odd_level, *settings, **case)
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
        got = level_objective(*odd_level, *settings, masks=masks, **case)
        assert_same_level(got, want)


def test_scale_objective_with_an_empty_mask_matches(odd_level, block_path):
    from rigidflow.losses import LevelMasks
    from rigidflow.masks import FBCheckParams
    from oracles import scale_objective_cell

    settings = (LossWeights(), CensusParams(), FBCheckParams())
    full = scale_objective_cell(*odd_level, *settings).masks
    empty = np.zeros_like(full.flow_fwd)
    # one mask of each side, all four, and both depth masks
    for masks in (
        LevelMasks(full.depth_fwd, empty, empty, full.flow_bwd),
        LevelMasks(empty, empty, empty, empty),
        LevelMasks(empty, empty, full.flow_fwd, full.flow_bwd),
    ):
        assert_same_level(
            level_objective(*odd_level, *settings, masks=masks),
            scale_objective_cell(*odd_level, *settings, masks=masks),
        )


def test_public_terms_match_term_by_term_sampling(odd_level):
    from rigidflow.masks import FBCheckParams, fb_check
    from oracles import fb_check_cell, fb_depth_cell, fb_flow_cell, photometric_cell

    (img_t, img_t1), (depth_t, depth_t1), _, (flow_fwd, flow_bwd), _ = odd_level
    mask = fb_check_cell(flow_fwd, flow_bwd, 0.01, 0.5)
    assert same_bits(fb_check(flow_fwd, flow_bwd, FBCheckParams()), mask)
    gray_t, gray_t1 = img_t[..., 0], img_t1[..., 0]
    plan = WarpPlan.along(planar(flow_fwd), Workspace())
    fb_flow = fb_flow_terms(planar(flow_fwd), plan, sample_grad(plan, planar(flow_bwd)), mask)
    fb_depth = fb_depth_terms(depth_t, depth_t1, plan, mask)
    for got, want in (
        ((fb_flow[0], *map(channel_last, fb_flow[1:])), fb_flow_cell(flow_fwd, flow_bwd, mask)),
        ((*fb_depth[:3], channel_last(fb_depth[3])), fb_depth_cell(depth_t, depth_t1, flow_fwd, mask)),
        (
            census_terms(gray_t, [(gray_t1, mask)], CensusParams(radius=2))[0],
            photometric_cell(gray_t, gray_t1, mask, 2, 0.02, 1e-3),
        ),
    ):
        # the oracle cells still end with a degenerate flag, False here
        assert want[-1] is False
        assert len(got) == len(want) - 1
        for a, b in zip(got, want):
            assert same_bits(a, b)


# ---------------------------------------------------------------------------
# the census over half the offsets, mirrored, against the full offset loop


def _census_inputs(h, w, seed):
    """A reference, a warped image and a mask with holes; the images are
    quantized so that many neighbour differences are exactly zero."""
    rng = np.random.default_rng(seed)
    ref, warped = rng.integers(0, 5, size=(2, h, w)) / 4.0
    warped = warped + rng.uniform(-0.01, 0.01, size=(h, w)) * (rng.uniform(size=(h, w)) < 0.5)
    holes = rng.uniform(size=(h, w)) < 0.7
    return ref, warped, holes


@pytest.mark.parametrize(
    "h, w, radius",
    [(1, 23, 1), (1, 23, 2), (23, 1, 1), (23, 1, 2), (2, 5, 2), (5, 2, 2), (1, 1, 1), (13, 11, 3), (4, 9, 3)],
)
def test_census_matches_the_full_offset_oracle_on_edge_geometries(h, w, radius):
    from oracles import photometric_cell

    ref, warped, holes = _census_inputs(h, w, 100 * h + 10 * w + radius)
    for mask in (np.ones((h, w), dtype=bool), holes):
        if not mask.any():
            continue
        (got,) = census_terms(ref, [(warped, mask)], CensusParams(radius=radius))
        loss, grad, degenerate = photometric_cell(ref, warped, mask, radius, 0.02, 1e-3)
        assert not degenerate
        assert same_bits(got[0], loss)
        assert same_bits(got[1], grad)


def test_census_with_an_empty_and_a_live_branch_matches_the_oracle():
    from oracles import photometric_cell

    ref, warped, holes = _census_inputs(17, 12, 7)
    empty = np.zeros_like(holes)
    other = warped[::-1].copy()
    params = CensusParams(radius=2)
    for branches, live in (([(other, empty), (warped, holes)], 1), ([(warped, holes), (other, empty)], 0)):
        out = census_terms(ref, branches, params)
        loss, grad = out[1 - live]
        assert np.float64(loss).tobytes() == np.float64(0.0).tobytes()
        assert grad.shape == empty.shape and grad.tobytes() == np.zeros(empty.shape).tobytes()
        loss, grad, _ = photometric_cell(ref, warped, holes, 2, 0.02, 1e-3)
        assert same_bits(out[live][0], loss)
        assert same_bits(out[live][1], grad)


@pytest.mark.parametrize("h, w", [(2, 5), (5, 2), (1, 4), (3, 3)])
def test_census_on_a_side_shorter_than_the_radius_equals_a_masked_canvas(h, w):
    """Offsets longer than a side have no overlap. The result must be that of
    the same image on a larger canvas whose extra pixels are masked out, since
    a neighbour outside the mask carries no weight."""
    from oracles import photometric_cell

    r = 4
    ref, warped, holes = _census_inputs(h, w, 10 * h + w)
    rng = np.random.default_rng(h + w)
    canvas_ref, canvas_warped = rng.uniform(size=(2, h + r, w + r))
    canvas_ref[:h, :w] = ref
    canvas_warped[:h, :w] = warped
    for mask in (np.ones((h, w), dtype=bool), holes):
        if not mask.any():
            continue
        canvas_mask = np.zeros((h + r, w + r), dtype=bool)
        canvas_mask[:h, :w] = mask
        (got,) = census_terms(ref, [(warped, mask)], CensusParams(radius=r))
        loss, grad, _ = photometric_cell(canvas_ref, canvas_warped, canvas_mask, r, 0.02, 1e-3)
        assert same_bits(got[0], loss)
        assert same_bits(got[1], grad[:h, :w])
        assert not grad[h:].any() and not grad[:, w:].any()
