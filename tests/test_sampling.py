import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidflow.sampling import WarpPlan, Workspace, inverse_warp, pyramid, pyramid_adjoint

from conftest import channel_last, planar, scatter
from oracles import bilinear_ref, cell_sample, cell_sample_grad, cell_scatter, pool_adjoint_ref, pool_ref

coord = st.floats(min_value=-20.0, max_value=40.0, allow_nan=False)


# ---------------------------------------------------------------------------
# bilinear sampling through a warp plan of the sample points


def test_integer_coordinates_gather_exactly():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(7, 9))
    plan = WarpPlan(img.shape, np.array([3.0]), np.array([5.0]), Workspace())
    val, inb = plan.sample(img)[0], plan.inbounds
    assert val[0] == img[5, 3]
    assert inb[0]


def test_midpoint_averages_two_pixels():
    img = np.zeros((2, 5))
    img[0, 3] = 0.2
    img[0, 4] = 0.8
    plan = WarpPlan(img.shape, np.array([3.5]), np.array([0.0]), Workspace())
    val, inb = plan.sample(img)[0], plan.inbounds
    assert abs(val[0] - 0.5) < 1e-15
    assert inb[0]


def test_far_outside_clamps_to_corner_and_flags():
    rng = np.random.default_rng(1)
    img = rng.uniform(size=(6, 6))
    plan = WarpPlan(img.shape, np.array([-10.0]), np.array([-10.0]), Workspace())
    val, inb = plan.sample(img)[0], plan.inbounds
    assert val[0] == img[0, 0]
    assert not inb[0]


@given(coord, coord)
@settings(max_examples=200)
def test_bilinear_matches_scalar_reference(x, y):
    rng = np.random.default_rng(2)
    img = rng.uniform(size=(8, 12))
    plan = WarpPlan(img.shape, np.array([x]), np.array([y]), Workspace())
    val, inb = plan.sample(img)[0], plan.inbounds
    want, want_inb = bilinear_ref(img, x, y)
    assert abs(val[0] - want) < 1e-12
    assert inb[0] == want_inb


def test_multichannel_sampling_per_channel():
    rng = np.random.default_rng(3)
    img = rng.uniform(size=(8, 8, 3))
    xs = rng.uniform(0.0, 7.0, (4,))
    ys = rng.uniform(0.0, 7.0, (4,))
    plan = WarpPlan(img.shape[:2], xs, ys, Workspace())
    val = np.moveaxis(plan.sample(planar(img))[0], 0, -1)
    assert val.shape == (4, 3)
    for c in range(3):
        single = plan.sample(img[..., c])[0]
        assert np.abs(val[:, c] - single).max() < 1e-15


def test_sample_grad_matches_finite_differences():
    rng = np.random.default_rng(4)
    img = rng.uniform(size=(10, 10))
    xs = rng.uniform(0.5, 8.2, (50,))
    ys = rng.uniform(0.5, 8.2, (50,))
    # stay away from integer lattice lines where the gradient has kinks
    xs = np.where(np.abs(xs - np.round(xs)) < 0.05, xs + 0.1, xs)
    ys = np.where(np.abs(ys - np.round(ys)) < 0.05, ys + 0.1, ys)
    val, ddx, ddy = WarpPlan(img.shape, xs, ys, Workspace()).sample(img, True)
    h = 1e-6
    vx1 = WarpPlan(img.shape, xs + h, ys, Workspace()).sample(img)[0]
    vx0 = WarpPlan(img.shape, xs - h, ys, Workspace()).sample(img)[0]
    vy1 = WarpPlan(img.shape, xs, ys + h, Workspace()).sample(img)[0]
    vy0 = WarpPlan(img.shape, xs, ys - h, Workspace()).sample(img)[0]
    assert np.abs(ddx - (vx1 - vx0) / (2 * h)).max() < 1e-8
    assert np.abs(ddy - (vy1 - vy0) / (2 * h)).max() < 1e-8


def test_sample_grad_zero_outside_valid_range():
    img = np.arange(16.0).reshape(4, 4)
    plan = WarpPlan(img.shape, np.array([-0.5, 5.0]), np.array([1.0, 1.0]), Workspace())
    _, ddx, ddy = plan.sample(img, True)
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
    plan = WarpPlan((9, 7), xs, ys, Workspace())
    sampled = plan.sample(img)[0]
    scattered = scatter(plan, g)
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
    plan = WarpPlan(shape, xs, ys, Workspace())
    for img in (rng.uniform(size=shape), rng.uniform(size=shape + (3,))):
        want, want_inb = cell_sample(img, xs, ys)
        assert same_bits(channel_last(plan.sample(planar(img))[0]), want)
        assert same_bits(plan.inbounds, want_inb)


@pytest.mark.parametrize("shape", PLAN_SHAPES)
def test_plan_sample_grad_matches_per_call_sampling(shape):
    rng = np.random.default_rng(13)
    xs, ys = plan_points(shape, 14)
    plan = WarpPlan(shape, xs, ys, Workspace())
    img = rng.uniform(size=shape)
    want = cell_sample_grad(img, xs, ys)
    for got, ref in zip(plan.sample(img, True), want[:3]):
        assert same_bits(got, ref)
    assert same_bits(plan.inbounds, want[3])
    # a multi-channel source is per channel what each channel gives alone
    stack = rng.uniform(size=shape + (2,))
    for c in range(2):
        want_c = cell_sample_grad(stack[..., c], xs, ys)
        for got, ref in zip(plan.sample(planar(stack), True), want_c[:3]):
            assert same_bits(channel_last(got)[..., c], ref)
    # the values are the same bits with or without their derivatives, on
    # planar sources and on a stacked plan's sides, signed zeros included
    xs2, ys2 = plan_points(shape, 15)
    stacked = WarpPlan((2,) + shape, np.stack([xs, xs2]), np.stack([ys, ys2]), Workspace())
    for p, grid in ((plan, shape), (stacked, (2,) + shape)):
        for lead in ((), (1,), (2,), (3,)):
            src = rng.normal(size=lead + grid)
            src[src > 1.0] = -0.0
            src[src < -1.0] = 0.0
            assert same_bits(p.sample(src)[0], p.sample(src, True)[0])


@pytest.mark.parametrize("shape", PLAN_SHAPES)
def test_plan_scatter_matches_per_call_scatter(shape):
    rng = np.random.default_rng(15)
    xs, ys = plan_points(shape, 16)
    plan = WarpPlan(shape, xs, ys, Workspace())
    g = rng.normal(size=shape)
    want = cell_scatter(g, xs, ys, shape)
    assert same_bits(scatter(plan, g), want)
    g2 = rng.normal(size=shape + (2,))
    got = channel_last(scatter(plan, planar(g2)))
    assert got.shape == shape + (2,)
    for c in range(2):
        assert same_bits(got[..., c], cell_scatter(g2[..., c], xs, ys, shape))


def test_plan_along_a_field_samples_at_p_plus_field():
    rng = np.random.default_rng(17)
    field = rng.uniform(-4.0, 4.0, (9, 7, 2))
    img = rng.uniform(size=(9, 7))
    ys, xs = np.meshgrid(np.arange(9.0), np.arange(7.0), indexing="ij")
    want, want_inb = cell_sample(img, xs + field[..., 0], ys + field[..., 1])
    plan = WarpPlan.along(planar(field), Workspace())
    assert same_bits(plan.sample(img)[0], want)
    assert same_bits(plan.inbounds, want_inb)


def test_planar_sources_equal_their_per_channel_calls():
    # an odd, non-square grid; plan_points puts points off the lattice, on
    # its border and far out of bounds on either side
    shape = (37, 45)
    rng = np.random.default_rng(19)
    xs, ys = plan_points(shape, 20)
    plan = WarpPlan(shape, xs, ys, Workspace())
    for c in (1, 2, 3):
        src = rng.uniform(size=(c,) + shape)
        assert same_bits(plan.sample(src)[0], np.stack([plan.sample(p)[0] for p in src]))
        per_channel = [plan.sample(p, True) for p in src]
        for i, got in enumerate(plan.sample(src, True)):
            assert same_bits(got, np.stack([part[i] for part in per_channel]))
        g = rng.normal(size=(c,) + shape)
        assert same_bits(scatter(plan, g), np.stack([scatter(plan, gc) for gc in g]))


def test_scatter_is_adjoint_of_sample_for_two_channels():
    rng = np.random.default_rng(21)
    src = rng.uniform(size=(2, 9, 7))
    xs = rng.uniform(-1.0, 8.0, (30,))
    ys = rng.uniform(-1.0, 9.5, (30,))
    g = rng.normal(size=(2, 30))
    plan = WarpPlan((9, 7), xs, ys, Workspace())
    scattered = scatter(plan, g)
    assert scattered.shape == (2, 9, 7)
    assert abs(np.sum(scattered * src) - np.sum(g * plan.sample(src)[0])) < 1e-10


def test_warp_keeps_a_channel_last_target():
    rng = np.random.default_rng(23)
    img = rng.uniform(size=(6, 5, 3))
    flow = rng.uniform(-1.5, 1.5, (6, 5, 2))
    warped, valid = inverse_warp(img, flow)
    assert warped.shape == (6, 5, 3)
    for c in range(3):
        single, single_valid = inverse_warp(img[..., c], flow)
        assert same_bits(warped[..., c], single)
        assert same_bits(valid, single_valid)


@pytest.mark.parametrize("shape", [(7, 9), (2, 6), (5, 2), (2, 2)])
def test_sides_of_a_stacked_plan_stay_apart(shape):
    """A plan over (2, h, w) points reads a (2, h, w) source side for side,
    side d from side 1 - d, and scatters back the same way: points clamped at
    the last row or column, and grids with h = 2 or w = 2, never reach into
    the other side. Each side gives exactly what its own plan gives alone."""
    h, w = shape
    rng = np.random.default_rng(25)
    xs = rng.uniform(-2.0, w + 1.0, (2, h, w))
    ys = rng.uniform(-2.0, h + 1.0, (2, h, w))
    # on and past the last column and row, and the far corner
    special = [(w - 1.0, 0.0), (1e9, 0.5), (0.5, 1e9), (w - 1.0, h - 1.0), (1e9, 1e9), (w - 1.5, h - 1.0)]
    for k, (x, y) in enumerate(special[: h * w]):
        xs.reshape(2, -1)[:, k], ys.reshape(2, -1)[:, k] = x, y
    plan = WarpPlan((2, h, w), xs, ys, Workspace())
    alone = [WarpPlan(shape, xs[d], ys[d], Workspace()) for d in (0, 1)]
    big = 1e6
    src = np.stack([rng.uniform(size=shape), np.full(shape, big)])
    vals = plan.sample(src)[0]
    assert np.all(vals[0] == big) and np.all(vals[1] <= 1.0)
    for d in (0, 1):
        assert same_bits(vals[d], alone[d].sample(src[1 - d])[0])
        assert same_bits(plan.inbounds[d], alone[d].inbounds)
    for got, want in zip(plan.sample(src, True), zip(*(alone[d].sample(src[1 - d], True) for d in (0, 1)))):
        assert same_bits(got, np.stack(want))
    two = rng.uniform(size=(2, 2) + shape)  # [channel, side]
    assert same_bits(plan.sample(two)[0], np.stack([alone[d].sample(two[:, 1 - d])[0] for d in (0, 1)], axis=1))
    # gradients on side 0's points only: side 0 of the scatter stays zero
    g = np.stack([rng.normal(size=shape), np.zeros(shape)])
    out = scatter(plan, g)
    assert np.all(out[0] == 0.0) and np.any(out[1] != 0.0)
    g[1] = rng.normal(size=shape)
    out = scatter(plan, g)
    for d in (0, 1):
        assert same_bits(out[1 - d], scatter(alone[d], g[d]))
    g2 = rng.normal(size=(2, 2) + shape)
    assert same_bits(scatter(plan, g2), np.stack([scatter(plan, gc) for gc in g2]))


def test_scatter_writes_into_an_out_of_any_layout():
    # a transposed out gets what a contiguous one gets, per channel too
    plan = WarpPlan((4, 5), np.array([1.0, 2.5]), np.array([0.0, 3.0]), Workspace())
    g = np.array([1.0, 2.0])
    want = plan.scatter(g, np.zeros((4, 5)))
    assert want.sum() == 3.0
    assert same_bits(plan.scatter(g, np.zeros((5, 4)).T), want)
    g2 = np.stack([g, -3.0 * g])
    want2 = plan.scatter(g2, np.zeros((2, 4, 5)))
    assert same_bits(plan.scatter(g2, np.moveaxis(np.zeros((4, 5, 2)), -1, 0)), want2)
    for shape in ((5, 4), (20,), (1, 2, 4, 5)):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            plan.scatter(g, np.zeros(shape))


def test_plan_rejects_a_source_of_another_size():
    plan = WarpPlan((4, 5), np.zeros(3), np.zeros(3), Workspace())
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_warp_rejects_a_non_finite_flow(bad):
    flow = np.zeros((4, 5, 2))
    flow[2, 3, 0] = bad
    with pytest.raises(ValueError, match="^flow must be finite$"):
        inverse_warp(np.zeros((4, 5)), flow)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(4, 5), (4, 5, 3)])
def test_warp_rejects_a_non_finite_target(bad, shape):
    target = np.zeros(shape)
    target[1, 2] = bad
    with pytest.raises(ValueError, match="^target must be finite$"):
        inverse_warp(target, np.zeros((4, 5, 2)))


# ---------------------------------------------------------------------------
# pooling and pyramids


def pool(a, scale=1.0):
    """One 2x2 pooling step of a (..., H, W) array."""
    return pyramid(a, 2, scale)[1]


def pool_adjoint(g, fine_shape, scale=1.0):
    """The adjoint of `pool`: a two-level fold with nothing at the finest level."""
    return pyramid_adjoint([np.zeros(g.shape[:-2] + fine_shape), g], [1.0, 1.0], scale, ws=Workspace())


def test_constant_image_stays_constant():
    out = pool(np.full((8, 6), 0.7))
    assert out.shape == (4, 3)
    assert np.abs(out - 0.7).max() < 1e-15


def test_2x2_block_averages():
    out = pool(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == 0.5


def test_constant_flow_halves():
    flow = np.zeros((4, 4, 2))
    flow[..., 0] = 4.0
    flow[..., 1] = 2.0
    out = channel_last(pool(planar(flow), 0.5))
    assert np.abs(out[..., 0] - 2.0).max() < 1e-15
    assert np.abs(out[..., 1] - 1.0).max() < 1e-15


def test_odd_dimension_replicates_edge():
    img = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])  # 3x2
    out = pool(img)
    assert out.shape == (2, 1)
    assert out[0, 0] == 2.5
    assert out[1, 0] == 5.5  # bottom row replicated


def test_size_one_dimension_rejected():
    with pytest.raises(ValueError, match="cannot downsample"):
        pool(np.zeros((1, 8)))
    with pytest.raises(ValueError, match="cannot downsample"):
        pool(np.zeros((8, 1)))


def test_pool_adjoint_dot_product_identity():
    rng = np.random.default_rng(8)
    for shape in [(8, 8), (7, 9), (6, 5)]:
        fine = rng.normal(size=shape)
        coarse_shape = pool(fine).shape
        g = rng.normal(size=coarse_shape)
        lhs = np.sum(g * pool(fine))
        rhs = np.sum(pool_adjoint(g, shape) * fine)
        assert abs(lhs - rhs) < 1e-12


def test_flow_adjoint_dot_product_identity():
    rng = np.random.default_rng(9)
    fine = rng.normal(size=(7, 6, 2))
    g = rng.normal(size=(4, 3, 2))  # the channel-last shape of a pooled flow
    lhs = np.sum(g * channel_last(pool(planar(fine), 0.5)))
    rhs = np.sum(channel_last(pool_adjoint(planar(g), (7, 6), 0.5)) * fine)
    assert abs(lhs - rhs) < 1e-12


def test_image_pyramid_shapes():
    levels = pyramid(np.zeros((64, 48)), 4)
    assert [lvl.shape for lvl in levels] == [(64, 48), (32, 24), (16, 12), (8, 6)]


def test_flow_pyramid_scales_displacements():
    flow = np.zeros((16, 16, 2))
    flow[..., 0] = 8.0
    levels = [channel_last(lvl) for lvl in pyramid(planar(flow), 4, 0.5)]
    for i, lvl in enumerate(levels):
        assert np.abs(lvl[..., 0] - 8.0 / 2**i).max() < 1e-12


def test_pyramid_needs_positive_levels():
    with pytest.raises(ValueError):
        pyramid(np.zeros((8, 8)), 0)


@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("shape", [(2, 2, 7, 9), (3, 5, 6)])
def test_pyramid_matches_the_loop_reference_bit_for_bit(shape, scale):
    a = np.random.default_rng(10).normal(size=shape)
    want = [a]
    for _ in range(2):
        want.append(pool_ref(want[-1], scale))
    got = pyramid(a, 3, scale)
    assert [lvl.shape for lvl in got] == [lvl.shape for lvl in want]
    for lvl, (g, w) in enumerate(zip(got, want)):
        assert g.tobytes() == w.tobytes(), lvl


@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("shape", [(2, 7, 9), (2, 2, 13, 11), (3, 6, 5), (2, 8, 8)])
def test_pyramid_adjoint_matches_the_loop_reference_bit_for_bit(shape, scale):
    # the fold writes its planes in place; it must add every zero of the
    # padded plane it replaces, so a -0 gradient folds to what it did there
    rng = np.random.default_rng(12)
    grads = [rng.normal(size=lvl.shape) for lvl in pyramid(np.zeros(shape), 3)]
    for g in grads:
        g[..., :2, :] = -0.0
    weights = [1.0, 0.5, 0.25]
    want = weights[-1] * grads[-1]
    for g, wgt in zip(grads[-2::-1], weights[-2::-1]):
        want = wgt * g + pool_adjoint_ref(want, g.shape[-2:], scale)
    got = pyramid_adjoint([g.copy() for g in grads], weights, scale, ws=Workspace())
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("shape", [(2, 7, 9), (2, 2, 13, 11)])
def test_weighted_pyramid_adjoint_dot_product_identity(shape, scale):
    # <fold(g, w), a> equals the weighted sum over levels of <g_l, level l of a>
    rng = np.random.default_rng(11)
    weights = [1.0, 0.5, 0.25]
    a = rng.normal(size=shape)
    levels = pyramid(a, 3, scale)
    grads = [rng.normal(size=lvl.shape) for lvl in levels]
    lhs = sum(w * np.sum(g * lvl) for w, g, lvl in zip(weights, grads, levels))
    folded = pyramid_adjoint(grads, weights, scale, ws=Workspace())
    assert folded.shape == shape
    assert abs(lhs - np.sum(folded * a)) < 1e-12


def test_workspace_arrays_start_on_a_cache_line():
    # stack arrays of any dtype and size, and one that spills past what is
    # left of its segment into the next one
    ws = Workspace()
    views = [ws.take((7, i + 1)) for i in range(6)] + [ws.take((1001,), bool), ws.take((5,), np.intp)]
    mark = ws.mark()
    views += [ws.take((300, 300))]  # larger than every segment: a new one
    ws.release(mark)
    views += [ws.take((301, 299), np.float32)]  # starts the (300, 300) array's segment
    assert views[-1].ctypes.data == views[-2].ctypes.data
    assert [v.ctypes.data % 64 for v in views] == [0] * len(views)
