import numpy as np
import pytest

from rigidflow.masks import FBCheckParams, fb_check


def constant_flow(h, w, u, v):
    flow = np.zeros((h, w, 2))
    flow[..., 0] = u
    flow[..., 1] = v
    return flow


def test_perfect_cycle_marks_interior_valid():
    fwd = constant_flow(16, 16, 3.0, 0.0)
    bwd = -fwd
    mask = fb_check(fwd, bwd)
    assert mask[:, :13].all()  # landing stays in bounds up to x = 12
    assert not mask[:, 13:].any()  # x + 3 > 15 lands outside


def test_residual_25_fails_default_thresholds():
    # fwd (5,0), bwd (0,0): |f + b|^2 = 25 vs 0.01 * 25 + 0.5 = 0.75
    fwd = constant_flow(8, 8, 5.0, 0.0)
    bwd = constant_flow(8, 8, 0.0, 0.0)
    assert not fb_check(fwd, bwd).any()


def test_out_of_bounds_invalid_even_with_zero_residual():
    fwd = constant_flow(8, 8, 100.0, 0.0)
    bwd = constant_flow(8, 8, -100.0, 0.0)
    assert not fb_check(fwd, bwd).any()


def test_alpha2_sets_absolute_slack():
    fwd = constant_flow(8, 8, 1.0, 0.0)
    bwd = constant_flow(8, 8, 0.0, 0.0)
    # residual 1: alpha1 term gives 0.01, so alpha2 must carry the rest
    loose = fb_check(fwd, bwd, FBCheckParams(alpha1=0.01, alpha2=1.1))
    tight = fb_check(fwd, bwd, FBCheckParams(alpha1=0.01, alpha2=0.9))
    assert loose[:, :6].all()
    assert not tight.any()


def test_alpha1_scales_with_magnitude():
    # residual 1 at |f|^2 + |b|^2 = 113: passes only via the relative term
    fwd = constant_flow(20, 20, 8.0, 0.0)
    bwd = constant_flow(20, 20, -7.0, 0.0)
    rel = fb_check(fwd, bwd, FBCheckParams(alpha1=0.01, alpha2=0.0))
    assert rel[:, :11].all()
    none = fb_check(fwd, bwd, FBCheckParams(alpha1=0.0, alpha2=0.0))
    assert not none.any()


def test_backward_field_is_sampled_at_landing_point():
    # bwd cancels fwd only in the left half; pixels landing right of the
    # split must fail even though bwd at the pixel itself looks fine
    fwd = constant_flow(8, 16, 4.0, 0.0)
    bwd = constant_flow(8, 16, -4.0, 0.0)
    bwd[:, 10:] = 0.0
    mask = fb_check(fwd, bwd)
    assert mask[:, :5].all()  # lands at x+4 <= 8, samples the -4 region
    assert not mask[:, 7:].any()  # lands at x+4 >= 11, samples zeros


def test_fb_check_validates_shapes():
    with pytest.raises(ValueError):
        fb_check(np.zeros((4, 4, 2)), np.zeros((4, 5, 2)))
    with pytest.raises(ValueError):
        fb_check(np.zeros((4, 4)), np.zeros((4, 4)))


@pytest.mark.parametrize("name", ["fwd", "bwd"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fb_check_rejects_a_non_finite_flow(name, bad):
    flows = {"fwd": np.zeros((4, 5, 2)), "bwd": np.zeros((4, 5, 2))}
    flows[name][1, 2, 1] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        fb_check(flows["fwd"], flows["bwd"])


def test_fb_params_validation():
    with pytest.raises(ValueError):
        FBCheckParams(alpha1=-0.1)
