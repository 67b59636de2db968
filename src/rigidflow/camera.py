"""Pinhole projection, SE(3) pose algebra, and rigid-flow synthesis.

Conventions used throughout the package:

* pixel centers sit at integer coordinates; (0, 0) is the center of the
  top-left pixel and x grows to the right, y downward;
* a pixel p = (x, y) with depth d back-projects to X = d * K^-1 [x, y, 1]^T;
* a pose (R, t) maps frame-t points into frame t+1 as X' = R X + t;
* flow fields are (H, W, 2) arrays with [..., 0] = horizontal displacement
  at every public boundary (state, gradient, files, `rigid_flow`'s return);
  inside the objective they are planar and stacked over the two sides of
  the pair (the layout is told in `sampling`);
* `_rigid_flow`, the planar core of `rigid_flow`, also takes a stacked
  (n, H, W) depth with one pose per side; each pose entry is then an
  (n, 1, 1) array that broadcasts over its side, so every element sees the
  scalar expression of its own pose.

Inside the objective, `_rigid_flow` projects each block of sides once and
keeps its transformed points (q0, q1, q2) and cheirality mask in the
workspace, and the adjoint `_project_backward` reads them, recomputing only
the back-projected depth * rx and depth * ry.

All camera math is written as explicit left-associated scalar expressions
(no matmul in the per-pixel path) so the vectorized `rigid_flow` agrees
bitwise with a scalar per-pixel projection of the same expressions (the
tests keep one, `project_pixel` in `tests/oracles.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import Workspace, _grid, _where

__all__ = [
    "Intrinsics",
    "PoseSE3",
    "rodrigues",
    "so3_log",
    "pose_from_params",
    "params_from_pose",
    "invert",
    "rotation_jacobians",
    "rigid_flow",
    "pose_param_gradient",
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
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("pose must be finite")
        err = np.abs(r.T @ r - np.eye(3)).max()
        if err > _ORTHO_TOL or abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal with det +1")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


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


def invert(pose: PoseSE3) -> PoseSE3:
    rt = pose.rotation.T
    return PoseSE3(rt.copy(), -(rt @ pose.translation))


def rotation_jacobians(w, r: np.ndarray) -> np.ndarray:
    """dR/dw_i for r = rodrigues(w), stacked as (3, 3, 3).

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
    k = _skew(w)
    m = np.eye(3) - r
    # column i is np.cross(w, (I - R) e_i), the same products and differences
    v = np.array([w[1] * m[2] - w[2] * m[1], w[2] * m[0] - w[0] * m[2], w[0] * m[1] - w[1] * m[0]])
    for i in range(3):
        jac[i] = ((w[i] * k + _skew(v[:, i])) / theta2) @ r
    return jac


def _entries(sides):
    """The rotation and translation entries, indexed as r[i, j] and t[i], of
    a block of sides given as one (rotation, translation) per side: the
    side's own arrays for one side, and for more, (n, 1, 1) arrays that
    broadcast over a stacked (n, H, W) depth."""
    if len(sides) == 1:
        return sides[0]  # its scalar entries broadcast over the one side
    r = np.array([r for r, _ in sides]).transpose(1, 2, 0)[..., None, None]
    t = np.array([t for _, t in sides]).T[..., None, None]
    return r, t


def _pixels(h: int, w: int, k: Intrinsics):
    """(xs, ys, rx, ry): the pixel grid of an (h, w) image, broadcast as xs
    (w,) and ys (h, 1) (`sampling._grid`), and its rays rx = (xs - cx) / fx
    and ry = (ys - cy) / fy."""
    xs, ys = _grid(h, w)
    return xs, ys, (xs - k.cx) / k.fx, (ys - k.cy) / k.fy


def _transform(pixels, depth, r, t, q, ws: Workspace):
    """The transformed point (q0, q1, q2) of each back-projected pixel
    (depth * rx, depth * ry, depth), into the three arrays q, for the rays of
    `_pixels` and the rotation and translation entries r, t of `_entries`;
    element for element the same expressions as the scalar `project_pixel`
    of `tests/oracles.py`. Its temporaries are taken from ws's stack."""
    rx, ry = pixels[2:]
    shape = depth.shape
    mark = ws.mark()
    p0 = np.multiply(depth, rx, out=ws.take(shape))
    p1 = np.multiply(depth, ry, out=ws.take(shape))
    tmp = ws.take(shape)
    for i, qi in enumerate(q):
        # q_i = r[i, 0] * p0 + r[i, 1] * p1 + r[i, 2] * p2 + t[i], with p2 = depth
        np.multiply(p0, r[i, 0], out=qi)
        qi += np.multiply(p1, r[i, 1], out=tmp)
        qi += np.multiply(depth, r[i, 2], out=tmp)
        qi += t[i]
    ws.release(mark)
    return q


def rigid_flow(depth: np.ndarray, k: Intrinsics, pose: PoseSE3):
    """Flow induced by camera motion over a static scene.

    Args:
        depth: (H, W) positive depth of frame t.
        k: shared intrinsics of both frames.
        pose: frame-t -> frame-t+1 transform.

    Returns:
        flow: (H, W, 2) displacement field, zeros where invalid; a view of
            planar (2, H, W) memory, so np.moveaxis(flow, -1, 0) is a
            contiguous planar field without a copy.
        valid: (H, W) bool, False where the point lands behind the camera.
    """
    depth = np.asarray(depth, dtype=float)
    if depth.ndim != 2:
        raise ValueError("depth must be (H, W)")
    entries = pose.rotation, pose.translation
    flow, valid, _ = _rigid_flow(depth, k, _pixels(*depth.shape, k), entries, Workspace())
    return np.moveaxis(flow, 0, -1), valid


def _rigid_flow(depth: np.ndarray, k: Intrinsics, pixels, entries, ws: Workspace):
    """`rigid_flow` of an (H, W) or stacked (n, H, W) depth, on the grid and
    rays `pixels` of its level (`_pixels`), for the `_entries` of one pose or
    of one per side: the planar (2, H, W) or (2, n, H, W) flow, the
    cheirality mask and the transformed points (q0, q1, q2) of `_transform`,
    which `_project_backward` reads with the mask. All are taken from ws's
    stack, in that order, below the temporaries, for the caller to release."""
    if not (depth > 0.0).all():
        raise ValueError("depth must be positive")
    flow = ws.take((2,) + depth.shape)
    valid = ws.take(depth.shape, bool)
    q0, q1, q2 = q = _transform(pixels, depth, *entries, [ws.take(depth.shape) for _ in range(3)], ws)
    mark = ws.mark()
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.divide(q0, q2, out=ws.take(depth.shape))
        u *= k.fx
        u += k.cx  # k.fx * (q0 / q2) + k.cx
        v = np.divide(q1, q2, out=ws.take(depth.shape))
        v *= k.fy
        v += k.cy
    np.greater(q2, 0.0, out=valid)
    for out, proj, grid in zip(flow, (u, v), pixels[:2]):
        proj -= grid
        _where(valid, proj, out)
    ws.release(mark)
    return flow, valid, q


def _project_backward(depth, k: Intrinsics, pixels, r, q, valid, grad_u, grad_v, ws: Workspace, out):
    """Adjoint of `_rigid_flow` for per-pixel flow gradients dL/d(flow_u)
    and dL/d(flow_v), zero expected wherever the forward pass was invalid:
    (grad_depth, into `out`, grad_r (3, 3) wrt the rotation matrix,
    grad_t (3,) wrt the translation), and for a stacked (n, H, W) depth one
    of each per side, (n, 3, 3) and (n, 3), each side's sums over its own
    contiguous (H, W) slice. It reads the transformed points q = (q0, q1, q2)
    and cheirality mask valid (q2 > 0) that `_rigid_flow` kept, for the
    rotation entries r of `_entries` and the rays of `pixels`, and
    recomputes only depth * rx and depth * ry. Its temporaries are taken
    from ws's stack; q, valid, grad_u and grad_v are only read."""
    shape = depth.shape
    h, w = shape[-2:]
    rx, ry = pixels[2:]
    q0, q1, q2 = q
    mark = ws.mark()
    drx = np.multiply(depth, rx, out=ws.take(shape))
    dry = np.multiply(depth, ry, out=ws.take(shape))
    tmp = ws.take(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a = np.where(valid, k.fx * grad_u / q2, 0.0), and b likewise
        a = _where(valid, np.divide(np.multiply(grad_u, k.fx, out=tmp), q2, out=tmp), ws.take(shape))
        b = _where(valid, np.divide(np.multiply(grad_v, k.fy, out=tmp), q2, out=tmp), ws.take(shape))
        # c = np.where(valid, -(a * q0 + b * q1) / q2, 0.0)
        c = ws.take(shape)
        np.multiply(a, q0, out=tmp)
        tmp += np.multiply(b, q1, out=c)
        np.negative(tmp, out=tmp)
        c = _where(valid, np.divide(tmp, q2, out=tmp), c)

    # the np.sum of each side: one row per side's contiguous (h, w) slice,
    # each row reduced pairwise, one side for an unstacked depth
    sides = depth.size // (h * w)
    grad_r, grad_t = np.empty((sides, 3, 3)), np.empty((sides, 3))
    for i, x in enumerate((a, b, c)):
        for j, y in enumerate((drx, dry, depth)):
            np.add.reduce(np.multiply(x, y, out=tmp).reshape(sides, -1), axis=1, out=grad_r[:, i, j])
        np.add.reduce(x.reshape(sides, -1), axis=1, out=grad_t[:, i])
    # direction of the transformed point per unit depth: d(q)/d(depth) = R @ ray,
    # w_i = r[i, 0] * rx + r[i, 1] * ry + r[i, 2]; grad_depth = a * w0 + b * w1 + c * w2
    ray_shape = np.shape(r[0, 0])[:-2] + (h, w)
    ray, ray_tmp = ws.take(ray_shape), ws.take(ray_shape)
    for i, x in enumerate((a, b, c)):
        np.multiply(rx, r[i, 0], out=ray)
        ray += np.multiply(ry, r[i, 1], out=ray_tmp)
        ray += r[i, 2]
        if i == 0:
            np.multiply(x, ray, out=out)
        else:
            out += np.multiply(x, ray, out=tmp)
    ws.release(mark)
    if depth.ndim == 2:
        return out, grad_r[0], grad_t[0]
    return out, grad_r, grad_t


def pose_param_gradient(params, r: np.ndarray, grad_r_fwd, grad_t_fwd, grad_r_inv, grad_t_inv):
    """Fold rotation-matrix/translation gradients into the 6 pose parameters.

    r is the rotation of the parameters, rodrigues(params[:3]).
    grad_r_fwd/grad_t_fwd are gradients w.r.t. (R, t) of pose_from_params(params);
    grad_r_inv/grad_t_inv are w.r.t. the inverted pose (R^T, -R^T t), which
    shares the same parameters.
    """
    params = np.asarray(params, dtype=float)
    w, t = params[:3], params[3:]
    gr = np.array(grad_r_fwd, dtype=float, copy=True)
    gt = np.array(grad_t_fwd, dtype=float, copy=True)
    grad_r_inv, grad_t_inv = np.asarray(grad_r_inv, dtype=float), np.asarray(grad_t_inv, dtype=float)
    # R_inv = R^T contributes transposed; t_inv = -R^T t touches both R and t
    gr += grad_r_inv.T
    gr -= t[:, None] * grad_t_inv  # np.outer(t, grad_t_inv)
    gt -= r @ grad_t_inv
    # the np.sum of gr * dR/dw_i, one row each
    gw = np.add.reduce((gr * rotation_jacobians(w, r)).reshape(3, 9), axis=1)
    return np.concatenate([gw, gt])
