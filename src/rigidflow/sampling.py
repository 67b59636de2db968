"""Differentiable bilinear sampling, inverse warping, and pyramids.

Sampling clamps to the image border; coordinates outside
[0, W-1] x [0, H-1] still return the clamped-edge value but are flagged
invalid, and their coordinate derivative is zero (the clamped lookup is
locally constant there, so this matches finite differences).

All sampling goes through a `WarpPlan`, the bilinear bookkeeping of one set
of sample points: the Spatial Transformer sampler, whose lookup, coordinate
derivative and adjoint share one set of corner indices and weights. A plan
does the clip/floor/weights step once and keeps only the flat index of each
point's top-left corner, the two interpolation weights, and the in-bounds
and free-axis flags. The other three corners are read as offset views of
the flattened source (`flat[sx:]`, `flat[sy:]`, `flat[sy + sx:]`, with the
offset 0 along an axis of size 1), so no other index array is stored. One
plan serves any number of `sample`, `sample_grad` and `scatter` calls, on
sources of any channel count. The objective builds one plan per
correspondence field per pyramid level; `bilinear_sample` and
`inverse_warp` build a throwaway plan per call.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WarpPlan",
    "bilinear_sample",
    "inverse_warp",
    "downsample_image",
    "downsample_flow",
    "downsample_image_adjoint",
    "downsample_flow_adjoint",
    "image_pyramid",
    "flow_pyramid",
]


class WarpPlan:
    """Bilinear bookkeeping of sample points (xs, ys) on an (H, W) grid.

    `inbounds` flags points inside [0, W-1] x [0, H-1]; `free_x` and
    `free_y` flag points whose lookup is not clamped along that axis, where
    the coordinate derivative is live. All three have the shape S of xs.
    """

    __slots__ = ("shape", "i00", "sx", "sy", "wx", "wy", "inbounds", "free_x", "free_y")

    def __init__(self, shape, xs, ys):
        h, w = shape
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        xc = np.clip(xs, 0.0, w - 1.0)
        yc = np.clip(ys, 0.0, h - 1.0)
        # floor in float: the corners are small integers, exact in float64
        x0 = np.minimum(np.floor(xc), max(w - 2, 0))
        y0 = np.minimum(np.floor(yc), max(h - 2, 0))
        self.shape = (h, w)
        self.sx = 1 if w > 1 else 0
        self.sy = w if h > 1 else 0
        self.wx = xc - x0
        self.wy = yc - y0
        self.i00 = (y0 * w + x0).astype(np.intp)
        self.free_x = (xs >= 0.0) & (xs <= w - 1.0)
        self.free_y = (ys >= 0.0) & (ys <= h - 1.0)
        self.inbounds = self.free_x & self.free_y

    @classmethod
    def along(cls, field: np.ndarray) -> "WarpPlan":
        """Plan of the points p + field(p) for every pixel p of an (H, W, 2) field."""
        field = np.asarray(field, dtype=float)
        h, w = field.shape[:2]
        # the pixel grid, broadcast: p = (x, y) with integer x, y
        xs = np.arange(w, dtype=float) + field[..., 0]
        ys = np.arange(h, dtype=float)[:, None] + field[..., 1]
        return cls((h, w), xs, ys)

    def _corners(self, src: np.ndarray):
        """Source values at the four corners, and the weights shaped to match."""
        src = np.asarray(src, dtype=float)
        h, w = self.shape
        if src.shape[:2] != (h, w) or src.ndim not in (2, 3):
            raise ValueError("source must be (H, W) or (H, W, C) on the plan's grid")
        flat = src.reshape(h * w, -1) if src.ndim == 3 else src.reshape(h * w)
        i, sx, sy = self.i00, self.sx, self.sy
        corners = (
            flat.take(i, axis=0),
            flat[sx:].take(i, axis=0),
            flat[sy:].take(i, axis=0),
            flat[sy + sx :].take(i, axis=0),
        )
        if src.ndim == 3:
            return corners, self.wx[..., None], self.wy[..., None]
        return corners, self.wx, self.wy

    def sample(self, src: np.ndarray) -> np.ndarray:
        """src at the plan's points: shape S, or S + (C,) for (H, W, C)."""
        (v00, v01, v10, v11), wx, wy = self._corners(src)
        top = v00 + wx * (v01 - v00)
        bot = v10 + wx * (v11 - v10)
        return top + wy * (bot - top)

    def sample_grad(self, src: np.ndarray):
        """(values, d/dx, d/dy) of src at the plan's points, per channel.

        Derivatives are zero where the lookup is clamped on that axis."""
        (v00, v01, v10, v11), wx, wy = self._corners(src)
        dx_top = v01 - v00
        dx_bot = v11 - v10
        top = v00 + wx * dx_top
        bot = v10 + wx * dx_bot
        dy = bot - top
        free_x, free_y = self.free_x, self.free_y
        if np.ndim(src) == 3:
            free_x, free_y = free_x[..., None], free_y[..., None]
        ddx = np.where(free_x, dx_top + wy * (dx_bot - dx_top), 0.0)
        return top + wy * dy, ddx, np.where(free_y, dy, 0.0)

    def scatter(self, grad_out) -> np.ndarray:
        """Adjoint of `sample` w.r.t. the source: accumulate grad_out (shape S,
        or S + (C,)) into an (H, W) or (H, W, C) array with the forward
        lookup's corner weights, clamping included."""
        h, w = self.shape
        g = np.asarray(grad_out, dtype=float)
        n = self.i00.size
        i = self.i00.reshape(n)
        sx, sy = self.sx, self.sy
        # one bincount over all four corners per channel: each bin sums its
        # terms corner by corner, in point order, whatever the channel count
        idx = np.concatenate([i, i + sx, i + sy, i + (sy + sx)])
        wx = self.wx.reshape(n)
        wy = self.wy.reshape(n)
        ux = 1.0 - wx
        uy = 1.0 - wy
        wgt = np.empty((4, n))

        def one(gc):
            for out, a, b in zip(wgt, (ux, wx, ux, wx), (uy, uy, wy, wy)):
                np.multiply(gc, a, out=out)
                out *= b
            return np.bincount(idx, weights=wgt.reshape(4 * n), minlength=h * w).reshape(h, w)

        if g.ndim == self.i00.ndim:
            return one(g.reshape(n))
        return np.stack([one(g[..., c].reshape(n)) for c in range(g.shape[-1])], axis=-1)


def bilinear_sample(img: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Sample img at continuous coordinates.

    img is (H, W) or (H, W, C); xs/ys share any shape S. Returns
    (values with shape S or S+(C,), inbounds bool mask of shape S).
    """
    img = np.asarray(img, dtype=float)
    plan = WarpPlan(img.shape[:2], xs, ys)
    return plan.sample(img), plan.inbounds


def inverse_warp(target: np.ndarray, flow: np.ndarray):
    """Pull target back through flow: out(p) = target(p + flow(p)).

    Returns (warped, valid) where valid is False wherever p + flow(p) falls
    outside the target bounds (the warped value there is a clamped lookup).
    """
    flow = np.asarray(flow, dtype=float)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ValueError("flow must be (H, W, 2)")
    if np.asarray(target).shape[:2] != flow.shape[:2]:
        raise ValueError("target and flow sizes differ")
    plan = WarpPlan.along(flow)
    return plan.sample(target), plan.inbounds


def _pool2(a: np.ndarray) -> np.ndarray:
    """2x2 average pooling with edge replication for odd sizes."""
    h, w = a.shape[:2]
    if h < 2 or w < 2:
        raise ValueError("cannot downsample a dimension of size 1")
    if h % 2:
        a = np.concatenate([a, a[-1:]], axis=0)
    if w % 2:
        a = np.concatenate([a, a[:, -1:]], axis=1)
    return 0.25 * (a[0::2, 0::2] + a[0::2, 1::2] + a[1::2, 0::2] + a[1::2, 1::2])


def _pool2_adjoint(grad: np.ndarray, fine_shape) -> np.ndarray:
    h, w = fine_shape
    hp, wp = h + (h % 2), w + (w % 2)
    out = np.zeros((hp, wp) + grad.shape[2:])
    q = 0.25 * grad
    out[0::2, 0::2] += q
    out[0::2, 1::2] += q
    out[1::2, 0::2] += q
    out[1::2, 1::2] += q
    if h % 2:
        out[h - 1] += out[h]
    if w % 2:
        out[:, w - 1] += out[:, w]
    return out[:h, :w]


def downsample_image(img: np.ndarray) -> np.ndarray:
    return _pool2(np.asarray(img, dtype=float))


def downsample_flow(flow: np.ndarray) -> np.ndarray:
    """Average-pool and halve the displacements to stay in level units."""
    return 0.5 * _pool2(np.asarray(flow, dtype=float))


def downsample_image_adjoint(grad: np.ndarray, fine_shape) -> np.ndarray:
    """Adjoint of downsample_image (depth maps share its kernel)."""
    return _pool2_adjoint(np.asarray(grad, dtype=float), fine_shape)


def downsample_flow_adjoint(grad: np.ndarray, fine_shape) -> np.ndarray:
    return 0.5 * _pool2_adjoint(np.asarray(grad, dtype=float), fine_shape)


def _pyramid(arr, levels, step):
    if levels < 1:
        raise ValueError("need at least one level")
    out = [np.asarray(arr, dtype=float)]
    for _ in range(levels - 1):
        out.append(step(out[-1]))
    return out


def image_pyramid(img, levels):
    return _pyramid(img, levels, downsample_image)


def flow_pyramid(flow, levels):
    return _pyramid(flow, levels, downsample_flow)
