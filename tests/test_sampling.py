import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidflow.sampling import (
    WarpPlan,
    bilinear_sample,
    downsample_flow,
    downsample_flow_adjoint,
    downsample_image,
    downsample_image_adjoint,
    flow_pyramid,
    image_pyramid,
    inverse_warp,
)

from oracles import bilinear_ref, cell_sample, cell_sample_grad, cell_scatter

coord = st.floats(min_value=-20.0, max_value=40.0, allow_nan=False)


# ---------------------------------------------------------------------------
# bilinear sampling


def test_integer_coordinates_gather_exactly():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(7, 9))
    val, inb = bilinear_sample(img, np.array([3.0]), np.array([5.0]))
    assert val[0] == img[5, 3]
    assert inb[0]


def test_midpoint_averages_two_pixels():
    img = np.zeros((2, 5))
    img[0, 3] = 0.2
    img[0, 4] = 0.8
    val, inb = bilinear_sample(img, np.array([3.5]), np.array([0.0]))
    assert abs(val[0] - 0.5) < 1e-15
    assert inb[0]


def test_far_outside_clamps_to_corner_and_flags():
    rng = np.random.default_rng(1)
    img = rng.uniform(size=(6, 6))
    val, inb = bilinear_sample(img, np.array([-10.0]), np.array([-10.0]))
    assert val[0] == img[0, 0]
    assert not inb[0]


@given(coord, coord)
@settings(max_examples=200)
def test_bilinear_matches_scalar_reference(x, y):
    rng = np.random.default_rng(2)
    img = rng.uniform(size=(8, 12))
    val, inb = bilinear_sample(img, np.array([x]), np.array([y]))
    want, want_inb = bilinear_ref(img, x, y)
    assert abs(val[0] - want) < 1e-12
    assert inb[0] == want_inb


def test_multichannel_sampling_per_channel():
    rng = np.random.default_rng(3)
    img = rng.uniform(size=(8, 8, 3))
    xs = rng.uniform(0.0, 7.0, (4,))
    ys = rng.uniform(0.0, 7.0, (4,))
    val, _ = bilinear_sample(img, xs, ys)
    assert val.shape == (4, 3)
    for c in range(3):
        single, _ = bilinear_sample(img[..., c], xs, ys)
        assert np.abs(val[:, c] - single).max() < 1e-15


def test_sample_grad_matches_finite_differences():
    rng = np.random.default_rng(4)
    img = rng.uniform(size=(10, 10))
    xs = rng.uniform(0.5, 8.2, (50,))
    ys = rng.uniform(0.5, 8.2, (50,))
    # stay away from integer lattice lines where the gradient has kinks
    xs = np.where(np.abs(xs - np.round(xs)) < 0.05, xs + 0.1, xs)
    ys = np.where(np.abs(ys - np.round(ys)) < 0.05, ys + 0.1, ys)
    val, ddx, ddy = WarpPlan(img.shape, xs, ys).sample_grad(img)
    h = 1e-6
    vx1, _ = bilinear_sample(img, xs + h, ys)
    vx0, _ = bilinear_sample(img, xs - h, ys)
    vy1, _ = bilinear_sample(img, xs, ys + h)
    vy0, _ = bilinear_sample(img, xs, ys - h)
    assert np.abs(ddx - (vx1 - vx0) / (2 * h)).max() < 1e-8
    assert np.abs(ddy - (vy1 - vy0) / (2 * h)).max() < 1e-8


def test_sample_grad_zero_outside_valid_range():
    img = np.arange(16.0).reshape(4, 4)
    plan = WarpPlan(img.shape, np.array([-0.5, 5.0]), np.array([1.0, 1.0]))
    _, ddx, ddy = plan.sample_grad(img)
    inb = plan.inbounds
    assert ddx[0] == 0.0 and ddx[1] == 0.0
    assert not inb.any()


def test_scatter_is_adjoint_of_sample():
    # <scatter(g), f> must equal <g, sample(f)> for any f, g
    rng = np.random.default_rng(5)
    img = rng.uniform(size=(9, 7))
    xs = rng.uniform(-1.0, 8.0, (30,))
    ys = rng.uniform(-1.0, 9.5, (30,))
    g = rng.normal(size=(30,))
    sampled, _ = bilinear_sample(img, xs, ys)
    scattered = WarpPlan((9, 7), xs, ys).scatter(g)
    assert abs(np.sum(scattered * img) - np.sum(g * sampled)) < 1e-10


# ---------------------------------------------------------------------------
# warp plan: bit for bit what per-call bookkeeping computes


PLAN_SHAPES = [(45, 37), (1, 37), (45, 1), (1, 1)]


def same_bits(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def plan_points(shape, seed):
    """Sample points over and around an (H, W) grid, with exact lattice and
    border values and coordinates far out of range on either side."""
    h, w = shape
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-3.0, w + 2.0, (h, w))
    ys = rng.uniform(-3.0, h + 2.0, (h, w))
    n = min(8, h * w)
    xs.flat[:n] = [0.0, w - 1.0, -1e9, 1e9, np.inf, -np.inf, 2.0, w - 1.5][:n]
    ys.flat[:n] = [h - 1.0, 0.0, 1e9, -1e9, -np.inf, np.inf, 1.0, 0.5][:n]
    return xs, ys


@pytest.mark.parametrize("shape", PLAN_SHAPES)
def test_plan_sample_matches_per_call_sampling(shape):
    rng = np.random.default_rng(11)
    xs, ys = plan_points(shape, 12)
    plan = WarpPlan(shape, xs, ys)
    for img in (rng.uniform(size=shape), rng.uniform(size=shape + (3,))):
        want, want_inb = cell_sample(img, xs, ys)
        assert same_bits(plan.sample(img), want)
        assert same_bits(plan.inbounds, want_inb)
        got, got_inb = bilinear_sample(img, xs, ys)
        assert same_bits(got, want) and same_bits(got_inb, want_inb)


@pytest.mark.parametrize("shape", PLAN_SHAPES)
def test_plan_sample_grad_matches_per_call_sampling(shape):
    rng = np.random.default_rng(13)
    xs, ys = plan_points(shape, 14)
    plan = WarpPlan(shape, xs, ys)
    img = rng.uniform(size=shape)
    want = cell_sample_grad(img, xs, ys)
    for got, ref in zip(plan.sample_grad(img), want[:3]):
        assert same_bits(got, ref)
    assert same_bits(plan.inbounds, want[3])
    # a multi-channel source is per channel what each channel gives alone
    stack = rng.uniform(size=shape + (2,))
    for c in range(2):
        want_c = cell_sample_grad(stack[..., c], xs, ys)
        for got, ref in zip(plan.sample_grad(stack), want_c[:3]):
            assert same_bits(got[..., c], ref)


@pytest.mark.parametrize("shape", PLAN_SHAPES)
def test_plan_scatter_matches_per_call_scatter(shape):
    rng = np.random.default_rng(15)
    xs, ys = plan_points(shape, 16)
    plan = WarpPlan(shape, xs, ys)
    g = rng.normal(size=shape)
    want = cell_scatter(g, xs, ys, shape)
    assert same_bits(plan.scatter(g), want)
    g2 = rng.normal(size=shape + (2,))
    got = plan.scatter(g2)
    assert got.shape == shape + (2,)
    for c in range(2):
        assert same_bits(got[..., c], cell_scatter(g2[..., c], xs, ys, shape))


def test_plan_along_a_field_samples_at_p_plus_field():
    rng = np.random.default_rng(17)
    field = rng.uniform(-4.0, 4.0, (9, 7, 2))
    img = rng.uniform(size=(9, 7))
    ys, xs = np.meshgrid(np.arange(9.0), np.arange(7.0), indexing="ij")
    want, want_inb = cell_sample(img, xs + field[..., 0], ys + field[..., 1])
    plan = WarpPlan.along(field)
    assert same_bits(plan.sample(img), want)
    assert same_bits(plan.inbounds, want_inb)


def test_plan_rejects_a_source_of_another_size():
    plan = WarpPlan((4, 5), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="plan's grid"):
        plan.sample(np.zeros((5, 4)))


# ---------------------------------------------------------------------------
# warping


def test_zero_flow_warp_is_exact_identity():
    rng = np.random.default_rng(6)
    img = rng.uniform(size=(8, 8))
    warped, valid = inverse_warp(img, np.zeros((8, 8, 2)))
    assert np.array_equal(warped, img)
    assert valid.all()


def test_constant_flow_on_x_constant_image():
    img = np.tile(np.linspace(0.0, 1.0, 8)[:, None], (1, 10))  # varies along y only
    flow = np.zeros((8, 10, 2))
    flow[..., 0] = 1.0
    warped, valid = inverse_warp(img, flow)
    assert np.abs(warped[:, :-1] - img[:, :-1]).max() < 1e-15
    assert valid[:, :-1].all()
    assert not valid[:, -1].any()


def test_warp_matches_scalar_loop():
    rng = np.random.default_rng(7)
    img = rng.uniform(size=(6, 6))
    flow = rng.uniform(-1.5, 1.5, (6, 6, 2))
    warped, valid = inverse_warp(img, flow)
    for y in range(6):
        for x in range(6):
            want, want_inb = bilinear_ref(img, x + flow[y, x, 0], y + flow[y, x, 1])
            assert abs(warped[y, x] - want) < 1e-12
            assert valid[y, x] == want_inb


def test_warp_validates_shapes():
    with pytest.raises(ValueError):
        inverse_warp(np.zeros((4, 4)), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        inverse_warp(np.zeros((4, 5)), np.zeros((4, 4, 2)))


# ---------------------------------------------------------------------------
# pooling and pyramids


def test_constant_image_stays_constant():
    out = downsample_image(np.full((8, 6), 0.7))
    assert out.shape == (4, 3)
    assert np.abs(out - 0.7).max() < 1e-15


def test_2x2_block_averages():
    out = downsample_image(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == 0.5


def test_constant_flow_halves():
    flow = np.zeros((4, 4, 2))
    flow[..., 0] = 4.0
    flow[..., 1] = 2.0
    out = downsample_flow(flow)
    assert np.abs(out[..., 0] - 2.0).max() < 1e-15
    assert np.abs(out[..., 1] - 1.0).max() < 1e-15


def test_odd_dimension_replicates_edge():
    img = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])  # 3x2
    out = downsample_image(img)
    assert out.shape == (2, 1)
    assert out[0, 0] == 2.5
    assert out[1, 0] == 5.5  # bottom row replicated


def test_size_one_dimension_rejected():
    with pytest.raises(ValueError, match="cannot downsample"):
        downsample_image(np.zeros((1, 8)))
    with pytest.raises(ValueError, match="cannot downsample"):
        downsample_image(np.zeros((8, 1)))


def test_pool_adjoint_dot_product_identity():
    rng = np.random.default_rng(8)
    for shape in [(8, 8), (7, 9), (6, 5)]:
        fine = rng.normal(size=shape)
        coarse_shape = downsample_image(fine).shape
        g = rng.normal(size=coarse_shape)
        lhs = np.sum(g * downsample_image(fine))
        rhs = np.sum(downsample_image_adjoint(g, shape) * fine)
        assert abs(lhs - rhs) < 1e-12


def test_flow_adjoint_dot_product_identity():
    rng = np.random.default_rng(9)
    fine = rng.normal(size=(7, 6, 2))
    g = rng.normal(size=downsample_flow(fine).shape)
    lhs = np.sum(g * downsample_flow(fine))
    rhs = np.sum(downsample_flow_adjoint(g, (7, 6)) * fine)
    assert abs(lhs - rhs) < 1e-12


def test_image_pyramid_shapes():
    levels = image_pyramid(np.zeros((64, 48)), 4)
    assert [lvl.shape for lvl in levels] == [(64, 48), (32, 24), (16, 12), (8, 6)]


def test_flow_pyramid_scales_displacements():
    flow = np.zeros((16, 16, 2))
    flow[..., 0] = 8.0
    levels = flow_pyramid(flow, 4)
    for i, lvl in enumerate(levels):
        assert np.abs(lvl[..., 0] - 8.0 / 2**i).max() < 1e-12


def test_pyramid_needs_positive_levels():
    with pytest.raises(ValueError):
        image_pyramid(np.zeros((8, 8)), 0)
