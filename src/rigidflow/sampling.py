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
sources of its grid's shape or planar ones with a leading channel axis of
any size. The objective builds one plan per correspondence field per
pyramid level and block of sides; `inverse_warp` builds a throwaway plan
per call.

Layout: inside the objective every field is stacked over the two sides of
the pair (side 0 is frame t against t+1, side 1 the reverse): depths and
gray images are (2, H, W), and every two-channel field (flow, rigid flow,
their cycles and gradients) is planar and stacked, (2, 2, H, W), component
first, [0] the horizontal and [1] the vertical displacement. Each (H, W)
plane is contiguous, and (2, H, W) masks and weights broadcast over the
leading component axis. A plan along a stacked field covers the 2·H·W
points of both sides and indexes the flattened 2·H·W source, each side's
points reading the other side: the other frame of every side, without a
reversed copy. A corner never leaves its side, since x0 <= W-2 and
y0 <= H-2, and `scatter`'s bincount still sums each bin in point order.
A plan along one side's (2, 1, H, W) field reads a (1, H, W) source, the
other side's slice, which is how large levels run one side at a time.
`WarpPlan.along` takes planar fields with any leading axes. The public
boundary (`inverse_warp` here, `masks.fb_check`, the state and its
gradient, `.flo` files) keeps channel-last (H, W, 2) fields and converts
with `np.moveaxis`.

Pyramids: `pyramid` pools any (..., H, W) array 2x2 over its last two axes,
plane by plane, and `pyramid_adjoint` folds weighted per-level gradients
back onto the finest level through the same kernel. The frames (as planar
(C, H, W) views), the stacked depths and the stacked flows (with their
displacements halved per level) all go through this one pair.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["WarpPlan", "inverse_warp", "pyramid", "pyramid_adjoint"]


class WarpPlan:
    """Bilinear bookkeeping of sample points (xs, ys) on a grid of shape
    (H, W), or (n, H, W) for n stacked sides.

    `inbounds` flags points inside [0, W-1] x [0, H-1]; `free_x` and
    `free_y` flag points whose lookup is not clamped along that axis, where
    the coordinate derivative is live. All three have the shape S of xs.
    Sources have the grid's shape, sampled to shape S, or a leading channel
    axis, (C,) + grid sampled to (C,) + S; the per-point arrays broadcast
    over it. On a stacked grid S is (n, ...) and side d's points read side
    n-1-d of the source (the other frame of a pair), and `scatter` returns
    the adjoint on that side.
    """

    __slots__ = ("shape", "i00", "sx", "sy", "wx", "wy", "inbounds", "free_x", "free_y")

    def __init__(self, shape, xs, ys):
        *sides, h, w = shape
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        xc = np.clip(xs, 0.0, w - 1.0)
        yc = np.clip(ys, 0.0, h - 1.0)
        # floor in float: the corners are small integers, exact in float64
        x0 = np.minimum(np.floor(xc), max(w - 2, 0))
        y0 = np.minimum(np.floor(yc), max(h - 2, 0))
        self.shape = tuple(shape)
        self.sx = 1 if w > 1 else 0
        self.sy = w if h > 1 else 0
        self.wx = xc - x0
        self.wy = yc - y0
        i00 = y0 * w + x0
        if sides and sides[0] > 1:  # the offset of the source side each side reads
            i00 += np.arange(sides[0] - 1, -1, -1).reshape(-1, 1, 1) * (h * w)
        self.i00 = i00.astype(np.intp)
        self.free_x = (xs >= 0.0) & (xs <= w - 1.0)
        self.free_y = (ys >= 0.0) & (ys <= h - 1.0)
        self.inbounds = self.free_x & self.free_y

    @classmethod
    def along(cls, field: np.ndarray) -> "WarpPlan":
        """Plan of the points p + field(p) for every pixel p of a planar
        (2, H, W) field, or of each side of a stacked (2, n, H, W) one."""
        field = np.asarray(field, dtype=float)
        h, w = field.shape[-2:]
        # the pixel grid, broadcast: p = (x, y) with integer x, y
        xs = np.arange(w, dtype=float) + field[0]
        ys = np.arange(h, dtype=float)[:, None] + field[1]
        return cls(field.shape[1:-2] + (h, w), xs, ys)

    def _corners(self, src: np.ndarray):
        """Source values at the four corners, each of shape S or (C,) + S."""
        src = np.asarray(src, dtype=float)
        grid = self.shape
        lead = src.shape[: src.ndim - len(grid)]
        if src.shape[len(lead) :] != grid or len(lead) > 1:
            raise ValueError("source must be the plan's grid, with at most a leading channel axis")
        flat = src.reshape(lead + (-1,))
        i, sx, sy = self.i00, self.sx, self.sy
        return (
            flat.take(i, axis=-1),
            flat[..., sx:].take(i, axis=-1),
            flat[..., sy:].take(i, axis=-1),
            flat[..., sy + sx :].take(i, axis=-1),
        )

    def sample(self, src: np.ndarray) -> np.ndarray:
        """src at the plan's points: shape S, or (C,) + S for (C,) + grid."""
        v00, v01, v10, v11 = self._corners(src)
        wx, wy = self.wx, self.wy
        top = v00 + wx * (v01 - v00)
        bot = v10 + wx * (v11 - v10)
        return top + wy * (bot - top)

    def sample_grad(self, src: np.ndarray):
        """(values, d/dx, d/dy) of src at the plan's points, per channel.

        Derivatives are zero where the lookup is clamped on that axis."""
        v00, v01, v10, v11 = self._corners(src)
        wx, wy = self.wx, self.wy
        dx_top = v01 - v00
        dx_bot = v11 - v10
        top = v00 + wx * dx_top
        bot = v10 + wx * dx_bot
        dy = bot - top
        ddx = np.where(self.free_x, dx_top + wy * (dx_bot - dx_top), 0.0)
        return top + wy * dy, ddx, np.where(self.free_y, dy, 0.0)

    def scatter(self, grad_out) -> np.ndarray:
        """Adjoint of `sample` w.r.t. the source: accumulate grad_out (shape S,
        or (C,) + S) into an array of the grid's shape, or (C,) + grid, with
        the forward lookup's corner weights, clamping included."""
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
        size = math.prod(self.shape)

        def one(gc):
            for out, a, b in zip(wgt, (ux, wx, ux, wx), (uy, uy, wy, wy)):
                np.multiply(gc, a, out=out)
                out *= b
            return np.bincount(idx, weights=wgt.reshape(4 * n), minlength=size).reshape(self.shape)

        if g.ndim == self.i00.ndim:
            return one(g.reshape(n))
        return np.stack([one(gc.reshape(n)) for gc in g])


def inverse_warp(target: np.ndarray, flow: np.ndarray):
    """Pull target back through flow: out(p) = target(p + flow(p)).

    target is (H, W) or (H, W, C) and flow (H, W, 2); both must be finite.
    Returns (warped, valid), warped shaped as target, where valid is False
    wherever p + flow(p) falls outside the target bounds (the warped value
    there is a clamped lookup).
    """
    flow = np.asarray(flow, dtype=float)
    target = np.asarray(target, dtype=float)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ValueError("flow must be (H, W, 2)")
    if target.shape[:2] != flow.shape[:2]:
        raise ValueError("target and flow sizes differ")
    for name, arr in (("flow", flow), ("target", target)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
    plan = WarpPlan.along(np.moveaxis(flow, -1, 0))
    if target.ndim == 3:
        return np.moveaxis(plan.sample(np.moveaxis(target, -1, 0)), 0, -1), plan.inbounds
    return plan.sample(target), plan.inbounds


def _pool2(a: np.ndarray, out: np.ndarray) -> None:
    """2x2 average pooling of an (H, W) plane into out, with edge
    replication for odd sizes."""
    h, w = a.shape
    if h < 2 or w < 2:
        raise ValueError("cannot downsample a dimension of size 1")
    if h % 2:
        a = np.concatenate([a, a[-1:]], axis=0)
    if w % 2:
        a = np.concatenate([a, a[:, -1:]], axis=1)
    s = a[0::2, 0::2] + a[0::2, 1::2]
    s += a[1::2, 0::2]
    s += a[1::2, 1::2]
    np.multiply(s, 0.25, out=out)  # 0.25 * (sum of the four)


def _pool2_adjoint(grad: np.ndarray, out: np.ndarray) -> None:
    """Adjoint of `_pool2`: an (h, w) gradient onto out, the fine (H, W) plane."""
    h, w = out.shape
    padded = np.zeros((h + h % 2, w + w % 2))
    q = 0.25 * grad
    padded[0::2, 0::2] += q
    padded[0::2, 1::2] += q
    padded[1::2, 0::2] += q
    padded[1::2, 1::2] += q
    if h % 2:
        padded[h - 1] += padded[h]
    if w % 2:
        padded[:, w - 1] += padded[:, w]
    out[...] = padded[:h, :w]


def _per_plane(kernel, a: np.ndarray, shape, scale: float) -> np.ndarray:
    """kernel(plane, out) on every (H, W) plane of a (..., H, W) array, into
    one (...,) + shape output, times scale: stacking per-plane results cost
    about 230 more page faults per 129x97 evaluate. The output keeps a's
    memory order: a channel-last frame's levels sum their channel means in
    the frame's own order, and a row-major stack's levels stay row-major."""
    out = np.empty_like(a, shape=a.shape[:-2] + tuple(shape))
    for idx in np.ndindex(a.shape[:-2]):
        kernel(a[idx], out[idx])
    if scale != 1.0:
        out *= scale
    return out


def pyramid(a, levels: int, scale: float = 1.0) -> list:
    """The levels of a (..., H, W) array, finest first: each the 2x2 average
    pool of the one before over the last two axes, times scale (0.5 keeps a
    displacement field in its level's pixel units). Odd sizes replicate
    their last row or column."""
    if levels < 1:
        raise ValueError("need at least one level")
    out = [np.asarray(a, dtype=float)]
    for _ in range(levels - 1):
        h, w = out[-1].shape[-2:]
        out.append(_per_plane(_pool2, out[-1], ((h + 1) // 2, (w + 1) // 2), scale))
    return out


def pyramid_adjoint(grads, weights, scale: float = 1.0) -> np.ndarray:
    """Adjoint of `pyramid`: the per-level gradients, finest first, each
    times its weight, folded onto the finest level, from the coarsest one
    down: acc = weights[l] * grads[l] + adjoint(acc)."""
    acc = weights[-1] * grads[-1]
    for g, wgt in zip(grads[-2::-1], weights[-2::-1]):
        acc = wgt * g + _per_plane(_pool2_adjoint, acc, g.shape[-2:], scale)
    return acc
