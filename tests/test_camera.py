import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidflow.camera import (
    Intrinsics,
    PoseSE3,
    _entries,
    _pixels,
    _rigid_flow,
    invert,
    params_from_pose,
    pose_from_params,
    pose_param_gradient,
    rigid_flow,
    rodrigues,
    rotation_jacobians,
    so3_log,
)

from rigidflow.sampling import Workspace

from oracles import project_backward, project_pixel, project_pixel_ref, rotation_series

K = Intrinsics(fx=100.0, fy=100.0, cx=31.5, cy=31.5)
IDENTITY = PoseSE3(np.eye(3), np.zeros(3))

finite_angle = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
finite_trans = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def random_pose(rng, angle_scale=0.5, trans_scale=1.0) -> PoseSE3:
    params = np.concatenate(
        [
            rng.uniform(-angle_scale, angle_scale, 3),
            rng.uniform(-trans_scale, trans_scale, 3),
        ]
    )
    return pose_from_params(params)


# ---------------------------------------------------------------------------
# rotations


@given(st.tuples(finite_angle, finite_angle, finite_angle))
@settings(max_examples=200)
def test_rodrigues_matches_series_exponential(w):
    r = rodrigues(np.array(w))
    assert np.abs(r - rotation_series(w)).max() < 1e-9


def test_rodrigues_zero_is_identity():
    assert np.array_equal(rodrigues(np.zeros(3)), np.eye(3))


def test_rodrigues_small_angle_branch():
    w = np.array([1e-5, -2e-5, 0.5e-5])
    assert np.abs(rodrigues(w) - rotation_series(w)).max() < 1e-15


@given(st.tuples(finite_angle, finite_angle, finite_angle))
@settings(max_examples=100)
def test_rodrigues_is_orthonormal(w):
    r = rodrigues(np.array(w))
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_quarter_turn_about_z_sends_x_to_y():
    r = rodrigues([0.0, 0.0, math.pi / 2.0])
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


@given(st.tuples(finite_angle, finite_angle, finite_angle))
@settings(max_examples=200)
def test_log_of_exp_recovers_vector(w):
    w = np.array(w)
    theta = np.linalg.norm(w)
    # log returns the principal branch; stay inside it and clear of the
    # theta/sin(theta) blowup right at pi (covered by the near-pi test)
    if theta >= math.pi - 1e-2:
        w = w * ((math.pi - 1e-2) / theta)
    assert np.abs(so3_log(rodrigues(w)) - w).max() < 1e-9


def test_log_near_pi_recovers_rotation():
    for axis in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, -0.8, 0.0]):
        w = np.array(axis) / np.linalg.norm(axis) * (math.pi - 1e-9)
        r = rodrigues(w)
        assert np.abs(rodrigues(so3_log(r)) - r).max() < 1e-7


# ---------------------------------------------------------------------------
# pose algebra


def test_pose_validation_rejects_sheared_rotation():
    bad = np.eye(3)
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError):
        PoseSE3(bad, np.zeros(3))


def test_pose_arrays_are_frozen():
    pose = IDENTITY
    with pytest.raises(ValueError):
        pose.rotation[0, 0] = 2.0


def test_invert_identity():
    inv = invert(IDENTITY)
    assert np.array_equal(inv.rotation, np.eye(3))
    assert np.array_equal(inv.translation, np.zeros(3))


def test_invert_pure_translation_negates():
    pose = PoseSE3(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(invert(pose).translation, [-1.0, -2.0, -3.0], atol=1e-15)


def test_pose_times_its_inverse_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pose = random_pose(rng, angle_scale=2.0)
        inv = invert(pose)
        assert np.abs(pose.rotation @ inv.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(pose.rotation @ inv.translation + pose.translation).max() < 1e-9


def test_params_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = np.concatenate([rng.uniform(-2.0, 2.0, 3), rng.uniform(-5.0, 5.0, 3)])
        back = params_from_pose(pose_from_params(params))
        assert np.abs(back - params).max() < 1e-9


def test_zero_params_give_identity():
    pose = pose_from_params(np.zeros(6))
    assert np.array_equal(pose.rotation, np.eye(3))
    assert np.array_equal(pose.translation, np.zeros(3))


# ---------------------------------------------------------------------------
# projection


def test_identity_pose_projects_to_same_pixel():
    u, v, z = project_pixel(10.0, 20.0, 3.0, K, IDENTITY)
    assert abs(u - 10.0) < 1e-12 and abs(v - 20.0) < 1e-12
    assert z == 3.0


def test_translation_shift_hand_case():
    # fx=fy=100, cx=cy=0, depth 2, tx=0.1: shift = 100*0.1/2 = 5 px
    k = Intrinsics(100.0, 100.0, 0.0, 0.0)
    pose = PoseSE3(np.eye(3), np.array([0.1, 0.0, 0.0]))
    u, v, z = project_pixel(7.0, -3.0, 2.0, k, pose)
    assert abs(u - 12.0) < 1e-12
    assert abs(v - (-3.0)) < 1e-12
    assert abs(z - 2.0) < 1e-12


def test_z_translation_gives_radial_flow():
    # u - x = (x - cx) * (-tz / (d + tz)) for fronto-parallel depth d
    d, tz = 4.0, 1.0
    pose = PoseSE3(np.eye(3), np.array([0.0, 0.0, tz]))
    for x, y in [(0.0, 0.0), (10.0, 50.0), (31.5, 31.5), (63.0, 7.0), (5.0, 63.0)]:
        u, v, z = project_pixel(x, y, d, K, pose)
        assert abs((u - x) - (x - K.cx) * (-tz / (d + tz))) < 1e-12
        assert abs((v - y) - (y - K.cy) * (-tz / (d + tz))) < 1e-12
        assert abs(z - (d + tz)) < 1e-12


def test_project_pixel_matches_scalar_reference():
    rng = np.random.default_rng(6)
    for _ in range(50):
        pose = random_pose(rng)
        x = rng.uniform(0.0, 63.0)
        y = rng.uniform(0.0, 63.0)
        depth = rng.uniform(2.0, 10.0)
        got = project_pixel(x, y, depth, K, pose)
        want = project_pixel_ref(
            x, y, depth, K.fx, K.fy, K.cx, K.cy, pose.rotation, pose.translation
        )
        assert np.abs(np.array(got) - np.array(want)).max() < 1e-9


# ---------------------------------------------------------------------------
# rigid flow


def test_identity_pose_zero_flow_full_mask():
    depth = np.full((32, 32), 3.7)
    flow, valid = rigid_flow(depth, K, IDENTITY)
    assert np.abs(flow).max() <= 1e-12
    assert valid.all()


def test_identity_flow_large_image_is_fast():
    depth = np.full((256, 256), 2.0)
    start = time.perf_counter()
    flow, valid = rigid_flow(depth, K, IDENTITY)
    elapsed = time.perf_counter() - start
    assert np.abs(flow).max() <= 1e-12
    assert valid.all()
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "fx,depth,tx",
    [(100.0, 5.0, 0.2), (100.0, 2.0, -0.1), (250.0, 10.0, 0.5), (80.0, 4.0, 0.05), (120.0, 3.0, -0.3)],
)
def test_fronto_parallel_translation_constant_flow(fx, depth, tx):
    k = Intrinsics(fx, fx, 15.5, 15.5)
    pose = PoseSE3(np.eye(3), np.array([tx, 0.0, 0.0]))
    flow, valid = rigid_flow(np.full((32, 32), depth), k, pose)
    assert valid.all()
    assert np.abs(flow[..., 0] - fx * tx / depth).max() < 1e-6
    assert np.abs(flow[..., 1]).max() < 1e-6


def test_quarter_turn_about_optical_axis():
    # with a centered principal point and fx = fy, a 90 degree roll maps the
    # offset (dx, dy) from center to (-dy, dx)
    k = Intrinsics(100.0, 100.0, 15.5, 15.5)
    pose = pose_from_params(np.array([0.0, 0.0, math.pi / 2.0, 0.0, 0.0, 0.0]))
    flow, valid = rigid_flow(np.full((32, 32), 5.0), k, pose)
    assert valid.all()
    xs, ys = np.meshgrid(np.arange(32.0), np.arange(32.0))
    dx = xs - k.cx
    dy = ys - k.cy
    assert np.abs(flow[..., 0] - (-dy - dx)).max() < 1e-9
    assert np.abs(flow[..., 1] - (dx - dy)).max() < 1e-9


def test_rigid_flow_matches_project_pixel_bitwise():
    rng = np.random.default_rng(7)
    depth = rng.uniform(2.0, 8.0, (9, 11))
    pose = random_pose(rng)
    flow, valid = rigid_flow(depth, K, pose)
    for y in range(9):
        for x in range(11):
            u, v, z = project_pixel(float(x), float(y), float(depth[y, x]), K, pose)
            assert valid[y, x] == (z > 0.0)
            assert flow[y, x, 0] == u - x
            assert flow[y, x, 1] == v - y


@pytest.mark.parametrize("sides", [2, 1])
def test_stacked_rigid_flow_matches_project_pixel_bitwise(sides):
    # the objective's call: a stacked (n, H, W) depth with one pose per side,
    # (pose, its inverse) for both sides or a one-pose tuple for one
    rng = np.random.default_rng(11)
    depth = rng.uniform(2.0, 8.0, (sides, 9, 11))
    pose = random_pose(rng)
    poses = (pose, invert(pose))[:sides]
    entries = _entries([(p.rotation, p.translation) for p in poses])
    flow, valid, _ = _rigid_flow(depth, K, _pixels(9, 11, K), entries, Workspace())
    assert flow.shape == (2, sides, 9, 11) and valid.shape == (sides, 9, 11)
    for s, side_pose in enumerate(poses):
        for y in range(9):
            for x in range(11):
                u, v, z = project_pixel(float(x), float(y), float(depth[s, y, x]), K, side_pose)
                assert valid[s, y, x] == (z > 0.0)
                assert flow[0, s, y, x] == (u - x if z > 0.0 else 0.0)
                assert flow[1, s, y, x] == (v - y if z > 0.0 else 0.0)


def test_points_behind_camera_marked_invalid_with_zero_flow():
    depth = np.full((8, 8), 1.0)
    pose = PoseSE3(np.eye(3), np.array([0.0, 0.0, -2.0]))  # z' = 1 - 2 < 0
    flow, valid = rigid_flow(depth, K, pose)
    assert not valid.any()
    assert np.abs(flow).max() == 0.0


def test_rigid_flow_rejects_nonpositive_depth():
    depth = np.full((4, 4), 1.0)
    depth[2, 2] = 0.0
    with pytest.raises(ValueError):
        rigid_flow(depth, K, IDENTITY)


# ---------------------------------------------------------------------------
# intrinsics


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        Intrinsics(0.0, 100.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Intrinsics(float("nan"), 100.0, 0.0, 0.0)


def test_scaled_down_halves_focal_and_recenters():
    k = K.scaled_down()
    assert (k.fx, k.fy) == (50.0, 50.0)
    assert (k.cx, k.cy) == (15.5, 15.5)


# ---------------------------------------------------------------------------
# analytic derivatives of the projection


def test_rotation_jacobians_match_finite_differences():
    rng = np.random.default_rng(8)
    h = 1e-6
    for w in [np.zeros(3), rng.uniform(-1.0, 1.0, 3), rng.uniform(-2.0, 2.0, 3)]:
        jac = rotation_jacobians(w, rodrigues(w))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (rodrigues(w + e) - rodrigues(w - e)) / (2.0 * h)
            assert np.abs(jac[i] - fd).max() < 1e-8


def test_project_backward_matches_finite_differences():
    rng = np.random.default_rng(9)
    depth = rng.uniform(2.0, 6.0, (6, 7))
    pose = random_pose(rng, angle_scale=0.3, trans_scale=0.5)
    gu = rng.normal(size=(6, 7))
    gv = rng.normal(size=(6, 7))

    def objective(d, p):
        flow, _ = rigid_flow(d, K, p)
        return float(np.sum(gu * flow[..., 0] + gv * flow[..., 1]))

    grad_depth, grad_r, grad_t = project_backward(depth, K, pose, gu, gv)
    h = 1e-6
    for y, x in [(0, 0), (3, 4), (5, 6), (2, 1)]:
        d2 = depth.copy()
        d2[y, x] += h
        d3 = depth.copy()
        d3[y, x] -= h
        fd = (objective(d2, pose) - objective(d3, pose)) / (2.0 * h)
        assert abs(grad_depth[y, x] - fd) < 1e-6
    for i in range(3):
        t2 = pose.translation.copy()
        t2[i] += h
        t3 = pose.translation.copy()
        t3[i] -= h
        fd = (
            objective(depth, PoseSE3(pose.rotation, t2))
            - objective(depth, PoseSE3(pose.rotation, t3))
        ) / (2.0 * h)
        assert abs(grad_t[i] - fd) < 1e-5


def test_pose_param_gradient_full_chain():
    # linear functional of both the pose and its inverse, differentiated
    # through pose_from_params; finite differences on the 6 parameters
    rng = np.random.default_rng(10)
    params = np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-1.0, 1.0, 3)])
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    c = rng.normal(size=(3, 3))
    d = rng.normal(size=3)

    def objective(p):
        pose = pose_from_params(p)
        inv = invert(pose)
        return float(
            np.sum(a * pose.rotation)
            + b @ pose.translation
            + np.sum(c * inv.rotation)
            + d @ inv.translation
        )

    grad = pose_param_gradient(params, rodrigues(params[:3]), a, b, c, d)
    h = 1e-6
    for i in range(6):
        e = np.zeros(6)
        e[i] = h
        fd = (objective(params + e) - objective(params - e)) / (2.0 * h)
        assert abs(grad[i] - fd) < 1e-7
