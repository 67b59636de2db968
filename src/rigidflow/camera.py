"""Pinhole projection, SE(3) pose algebra, and rigid-flow synthesis.

Conventions used throughout the package:

* pixel centers sit at integer coordinates; (0, 0) is the center of the
  top-left pixel and x grows to the right, y downward;
* a pixel p = (x, y) with depth d back-projects to X = d * K^-1 [x, y, 1]^T;
* a pose (R, t) maps frame-t points into frame t+1 as X' = R X + t;
* flow fields are (H, W, 2) arrays with [..., 0] = horizontal displacement.

All camera math is written as explicit left-associated scalar expressions
(no matmul in the per-pixel path) so the scalar reference `project_pixel`
and the vectorized `rigid_flow` agree bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Intrinsics",
    "PoseSE3",
    "rodrigues",
    "so3_log",
    "pose_from_params",
    "params_from_pose",
    "compose",
    "invert",
    "rotation_jacobians",
    "project_pixel",
    "project_coords",
    "rigid_flow",
    "project_backward",
    "pose_param_gradient",
    "pixel_grid",
]

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera parameters, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        vals = (self.fx, self.fy, self.cx, self.cy)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def scaled_down(self) -> "Intrinsics":
        """Intrinsics of the next (half-resolution) pyramid level.

        A coarse pixel covers a 2x2 block of fine pixels, so with integer
        pixel centers the fine coordinate x maps to (x - 0.5) / 2.
        """
        return Intrinsics(
            self.fx / 2.0, self.fy / 2.0, (self.cx - 0.5) / 2.0, (self.cy - 0.5) / 2.0
        )


@dataclass(frozen=True)
class PoseSE3:
    """Rigid transform X' = rotation @ X + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=float)
        t = np.array(self.translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("pose needs a 3x3 rotation and a 3-vector translation")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("pose must be finite")
        err = np.abs(r.T @ r - np.eye(3)).max()
        if err > _ORTHO_TOL or abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal with det +1")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "PoseSE3":
        return cls(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


def _skew(v) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def rodrigues(w) -> np.ndarray:
    """Axis-angle 3-vector -> rotation matrix, with small-angle series."""
    w = np.asarray(w, dtype=float)
    theta2 = float(w @ w)
    k = _skew(w)
    if theta2 < 1e-8:
        # sin(t)/t and (1-cos(t))/t^2 to O(t^6); exact at w = 0
        a = 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0
        b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
    else:
        theta = math.sqrt(theta2)
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta2
    return np.eye(3) + a * k + b * (k @ k)


def so3_log(r: np.ndarray) -> np.ndarray:
    """Rotation matrix -> axis-angle vector; principal branch, angle in [0, pi]."""
    r = np.asarray(r, dtype=float)
    cos_t = max(-1.0, min(1.0, (float(np.trace(r)) - 1.0) / 2.0))
    theta = math.acos(cos_t)
    vee = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if theta < 1e-10:
        return vee
    if theta < math.pi - 1e-6:
        return (theta / math.sin(theta)) * vee
    # near pi: recover the axis from the symmetric part, sign from vee
    outer = (0.5 * (r + r.T) - cos_t * np.eye(3)) / (1.0 - cos_t)
    axis = np.sqrt(np.clip(np.diag(outer), 0.0, None))
    k = int(np.argmax(axis))
    signs = np.sign(outer[k])
    signs[k] = 1.0
    axis = axis * np.where(signs == 0.0, 1.0, signs)
    axis /= max(np.linalg.norm(axis), 1e-300)
    if float(axis @ vee) < 0.0:
        axis = -axis
    return theta * axis


def pose_from_params(params) -> PoseSE3:
    """6-vector (axis-angle rotation, translation) -> pose."""
    p = np.asarray(params, dtype=float)
    if p.shape != (6,):
        raise ValueError("pose parameters must be a 6-vector")
    return PoseSE3(rodrigues(p[:3]), p[3:].copy())


def params_from_pose(pose: PoseSE3) -> np.ndarray:
    return np.concatenate([so3_log(pose.rotation), pose.translation])


def compose(a: PoseSE3, b: PoseSE3) -> PoseSE3:
    """compose(a, b) applies b first: X -> a(b(X))."""
    return PoseSE3(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(pose: PoseSE3) -> PoseSE3:
    rt = pose.rotation.T
    return PoseSE3(rt.copy(), -(rt @ pose.translation))


def rotation_jacobians(w) -> np.ndarray:
    """dR/dw_i for R = rodrigues(w), stacked as (3, 3, 3).

    Closed form: dR/dw_i = ((w_i [w]x + [w x ((I - R) e_i)]x) / |w|^2) R,
    reducing to [e_i]x at w = 0.
    """
    w = np.asarray(w, dtype=float)
    theta2 = float(w @ w)
    jac = np.empty((3, 3, 3))
    if theta2 < 1e-12:
        eye = np.eye(3)
        for i in range(3):
            jac[i] = _skew(eye[i])
        return jac
    r = rodrigues(w)
    k = _skew(w)
    i_minus_r = np.eye(3) - r
    for i in range(3):
        v = np.cross(w, i_minus_r[:, i])
        jac[i] = ((w[i] * k + _skew(v)) / theta2) @ r
    return jac


def project_pixel(x: float, y: float, depth: float, k: Intrinsics, pose: PoseSE3):
    """Scalar reference projection of one pixel into the other frame.

    Returns (u, v, z) where (u, v) is the projected pixel and z the
    post-transform depth; z <= 0 means the point lands behind the camera.
    """
    if not depth > 0.0:
        raise ValueError("depth must be positive")
    r = pose.rotation
    t = pose.translation
    rx = (x - k.cx) / k.fx
    ry = (y - k.cy) / k.fy
    p0 = depth * rx
    p1 = depth * ry
    p2 = depth
    q0 = r[0, 0] * p0 + r[0, 1] * p1 + r[0, 2] * p2 + t[0]
    q1 = r[1, 0] * p0 + r[1, 1] * p1 + r[1, 2] * p2 + t[1]
    q2 = r[2, 0] * p0 + r[2, 1] * p1 + r[2, 2] * p2 + t[2]
    u = k.fx * (q0 / q2) + k.cx
    v = k.fy * (q1 / q2) + k.cy
    return u, v, q2


def _transform(xs, ys, depth, k: Intrinsics, pose: PoseSE3):
    """Rays (rx, ry), back-projected (depth * rx, depth * ry), and the
    transformed point (q0, q1, q2) of each pixel, as in `project_pixel`."""
    r = pose.rotation
    t = pose.translation
    rx = (xs - k.cx) / k.fx
    ry = (ys - k.cy) / k.fy
    p0 = depth * rx
    p1 = depth * ry
    p2 = depth
    q0 = r[0, 0] * p0 + r[0, 1] * p1 + r[0, 2] * p2 + t[0]
    q1 = r[1, 0] * p0 + r[1, 1] * p1 + r[1, 2] * p2 + t[1]
    q2 = r[2, 0] * p0 + r[2, 1] * p1 + r[2, 2] * p2 + t[2]
    return rx, ry, p0, p1, q0, q1, q2


def project_coords(xs, ys, depth, k: Intrinsics, pose: PoseSE3):
    """Vectorized `project_pixel` over coordinate/depth arrays of any shape."""
    *_, q0, q1, q2 = _transform(xs, ys, depth, k, pose)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.fx * (q0 / q2) + k.cx
        v = k.fy * (q1 / q2) + k.cy
    return u, v, q2


def pixel_grid(height: int, width: int):
    """Integer pixel-center coordinate grids (xs, ys), each (H, W) float64."""
    ys, xs = np.meshgrid(
        np.arange(height, dtype=float), np.arange(width, dtype=float), indexing="ij"
    )
    return xs, ys


def rigid_flow(depth: np.ndarray, k: Intrinsics, pose: PoseSE3):
    """Flow induced by camera motion over a static scene.

    Args:
        depth: (H, W) positive depth of frame t.
        k: shared intrinsics of both frames.
        pose: frame-t -> frame-t+1 transform.

    Returns:
        flow: (H, W, 2) displacement field, zeros where invalid.
        valid: (H, W) bool, False where the point lands behind the camera.
    """
    depth = np.asarray(depth, dtype=float)
    if depth.ndim != 2:
        raise ValueError("depth must be (H, W)")
    if not np.all(depth > 0.0):
        raise ValueError("depth must be positive")
    h, w = depth.shape
    xs, ys = pixel_grid(h, w)
    u, v, q2 = project_coords(xs, ys, depth, k, pose)
    valid = q2 > 0.0
    flow = np.zeros((h, w, 2))
    flow[..., 0] = np.where(valid, u - xs, 0.0)
    flow[..., 1] = np.where(valid, v - ys, 0.0)
    return flow, valid


def project_backward(depth, k: Intrinsics, pose: PoseSE3, grad_u, grad_v):
    """Adjoint of `rigid_flow` for per-pixel flow gradients.

    Given dL/d(flow_u), dL/d(flow_v) (zero expected wherever the forward
    pass was invalid), returns
        grad_depth: (H, W) dL/d(depth),
        grad_r: (3, 3) dL/d(rotation matrix),
        grad_t: (3,) dL/d(translation).
    """
    depth = np.asarray(depth, dtype=float)
    h, w = depth.shape
    xs, ys = pixel_grid(h, w)
    rx, ry, drx, dry, q0, q1, q2 = _transform(xs, ys, depth, k, pose)
    valid = q2 > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(valid, k.fx * grad_u / q2, 0.0)
        b = np.where(valid, k.fy * grad_v / q2, 0.0)
        c = np.where(valid, -(a * q0 + b * q1) / q2, 0.0)
    # direction of the transformed point per unit depth: d(q)/d(depth) = R @ ray
    r = pose.rotation
    w0 = r[0, 0] * rx + r[0, 1] * ry + r[0, 2]
    w1 = r[1, 0] * rx + r[1, 1] * ry + r[1, 2]
    w2 = r[2, 0] * rx + r[2, 1] * ry + r[2, 2]
    grad_depth = a * w0 + b * w1 + c * w2
    grad_r = np.array(
        [
            [np.sum(a * drx), np.sum(a * dry), np.sum(a * depth)],
            [np.sum(b * drx), np.sum(b * dry), np.sum(b * depth)],
            [np.sum(c * drx), np.sum(c * dry), np.sum(c * depth)],
        ]
    )
    grad_t = np.array([np.sum(a), np.sum(b), np.sum(c)])
    return grad_depth, grad_r, grad_t


def pose_param_gradient(params, grad_r_fwd, grad_t_fwd, grad_r_inv, grad_t_inv):
    """Fold rotation-matrix/translation gradients into the 6 pose parameters.

    grad_r_fwd/grad_t_fwd are gradients w.r.t. (R, t) of pose_from_params(params);
    grad_r_inv/grad_t_inv are w.r.t. the inverted pose (R^T, -R^T t), which
    shares the same parameters.
    """
    params = np.asarray(params, dtype=float)
    w = params[:3]
    t = params[3:]
    gr = np.array(grad_r_fwd, dtype=float, copy=True)
    gt = np.array(grad_t_fwd, dtype=float, copy=True)
    grad_r_inv = np.asarray(grad_r_inv, dtype=float)
    grad_t_inv = np.asarray(grad_t_inv, dtype=float)
    r = rodrigues(w)
    # R_inv = R^T contributes transposed; t_inv = -R^T t touches both R and t
    gr += grad_r_inv.T
    gr -= np.outer(t, grad_t_inv)
    gt -= r @ grad_t_inv
    jac = rotation_jacobians(w)
    gw = np.array([np.sum(gr * jac[i]) for i in range(3)])
    return np.concatenate([gw, gt])
