"""Differentiable bilinear sampling, inverse warping, pyramids, and the
workspace their arrays live in.

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
plan serves any number of `sample` calls (values, with their coordinate
derivatives when asked, from one kernel) and `scatter` calls, on sources of
its grid's shape or planar ones with a leading channel axis of any size.
The objective builds one plan per correspondence field per pyramid level
and block of sides; `inverse_warp` builds a throwaway plan per call.

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
all planes at once and from slices alone (an odd size pools its last row or
column with itself, without a padded copy), and `pyramid_adjoint` folds
weighted per-level gradients back onto the finest level through the same
kernel. The frames (as planar (C, H, W) views), the stacked depths and the
stacked flows (with their displacements halved per level) all go through
this one pair.

Buffers: a `Workspace` owns every array the objective writes into.
A workspace belongs to one `optimize.PairContext`, which a refine keeps for
all its iterations, so a refine allocates its arrays in its first iteration
only and the heap keeps its size from then on. A workspace is one stack,
whose bytes are never freed or moved while it lives. A kernel marks the
stack, takes above what its caller holds, and releases before returning.
An array that outlives a kernel is taken first, below that kernel's
temporaries, and released by its owner. So the objective's arrays nest:
- the depth and flow pyramids;
- each level's result, its masks and gradient accumulators;
- that level's rigid flows (each with the cheirality mask and transformed
  points the projection adjoint reads), plans, fb cycles and rigid-flow
  gradients;
- each term's arrays: the sampled values and derivatives, with the
  corners above them, the scatter's index and weights, the term cores'
  arrays, the projection adjoint's scratch.
The fold's and the Adam step's scratch sit above the results they read.
Every kernel writes each element it returns, in the order of the plain
expression it replaces, so the bytes do not depend on what a buffer held.

Aliasing: a plan's arrays, like every array taken from the stack, stay
valid until the stack is released below them. `sample` takes its outputs
from the plan's stack, below its own temporaries, so they stay valid until
the caller releases below them. `scatter` writes into the `out` it is given,
and `pyramid` into `out` when given it. `pyramid_adjoint` folds in place,
into the gradients it is given.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace", "WarpPlan", "inverse_warp", "pyramid", "pyramid_adjoint"]


class Workspace:
    """A stack of arrays, each starting on a cache line (`_aligned`).

    `take(shape, dtype)` returns the next free bytes as a C-contiguous
    array, and `release(mark)` frees every array taken since `mark()`
    returned mark, for the next phase to take again. A kernel marks, takes
    its temporaries above whatever its caller holds, and releases them
    before it returns; an array that outlives the kernel is taken first,
    below its temporaries, and stays valid until its owner releases it.
    The contents of an array are whatever its last user wrote.

    The bytes are never freed or moved while the workspace lives: they are
    a list of segments, and a take that does not fit in what is left of one
    segment starts at the next; past the last one, a new segment of the
    stack's size so far is appended. So every array the workspace ever
    handed out stays valid memory, and the same sequence of takes returns
    the same arrays, from a cache of views by (top, shape, dtype).
    """

    __slots__ = ("_segments", "_views", "_top")

    def __init__(self):
        self._segments = []
        self._views = {}
        self._top = 0

    def take(self, shape, dtype=float) -> np.ndarray:
        key = (self._top, shape, dtype)
        hit = self._views.get(key)  # (view, the top after it)
        if hit is None:
            dt = np.dtype(dtype)
            nbytes = math.prod(shape) * dt.itemsize
            padded = -(-nbytes // 64) * 64  # the next array 64-byte aligned
            lo = 0  # the stack offset of each segment
            for seg in self._segments:
                start = self._top if self._top > lo else lo  # a later segment from its start
                if start + nbytes <= lo + seg.size:
                    break
                lo += seg.size
            else:  # past the last segment: a new one, of the stack's size so far
                seg = _aligned(max(padded, lo))
                self._segments.append(seg)
                start = lo
            view = seg[start - lo : start - lo + nbytes].view(dt).reshape(shape)
            hit = self._views[key] = view, start + padded
        view, self._top = hit
        return view

    def mark(self) -> int:
        return self._top

    def release(self, mark: int) -> None:
        self._top = mark


def _aligned(nbytes: int) -> np.ndarray:
    """nbytes of new memory that start on a 64-byte boundary, a cache line.
    malloc aligns to 16 bytes only; a forward evaluate at 129x97 measured
    5-10% slower with its workspace 16 to 48 bytes past a line (2-core Xeon)."""
    buf = np.empty(nbytes + 64, np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start : start + nbytes]


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

    The plan's arrays are taken from ws's stack, so they stay valid until
    the plan's owner releases below them; xs and ys are only read.
    """

    __slots__ = ("shape", "i00", "sx", "sy", "wx", "wy", "inbounds", "free_x", "free_y", "ws")

    def __init__(self, shape, xs, ys, ws: Workspace):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        self._take(shape, xs.shape, ws)
        self._build(xs, ys)

    def _take(self, shape, pts, ws: Workspace) -> None:
        """Take the plan's arrays for points of shape pts from ws's stack."""
        h, w = shape[-2:]
        self.ws = ws
        self.shape = tuple(shape)
        self.sx = 1 if w > 1 else 0
        self.sy = w if h > 1 else 0
        take = ws.take
        self.free_x, self.free_y, self.inbounds = take(pts, bool), take(pts, bool), take(pts, bool)
        self.wx, self.wy, self.i00 = take(pts), take(pts), take(pts, np.intp)

    def _build(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Fill the plan's arrays for the points (xs, ys), which may be its
        own wx and wy: each is read before its weight overwrites it."""
        *sides, h, w = self.shape
        ws = self.ws
        pts = xs.shape
        mark = ws.mark()
        flags = ws.take(pts, bool)
        _in_range(xs, w - 1.0, self.free_x, flags)
        _in_range(ys, h - 1.0, self.free_y, flags)
        np.logical_and(self.free_x, self.free_y, out=self.inbounds)
        # wx = clip(xs) - x0 with x0 = min(floor(clip(xs)), w - 2), and so for y;
        # floor in float: the corners are small integers, exact in float64
        x0, y0 = ws.take(pts), ws.take(pts)
        _weight(xs, w, x0, self.wx)
        _weight(ys, h, y0, self.wy)
        y0 *= w
        y0 += x0  # i00 = y0 * w + x0
        if sides and sides[0] > 1:  # the offset of the source side each side reads
            y0 += np.arange(sides[0] - 1, -1, -1).reshape(-1, 1, 1) * (h * w)
        np.copyto(self.i00, y0, casting="unsafe")
        ws.release(mark)

    @classmethod
    def along(cls, field: np.ndarray, ws: Workspace, grid=None) -> "WarpPlan":
        """Plan of the points p + field(p) for every pixel p of a planar
        (2, H, W) field, or of each side of a stacked (2, n, H, W) one.
        `grid` is the field's pixel grid as `_grid` builds it, built here
        when not given. The points are formed in the plan's own wx and wy."""
        field = np.asarray(field, dtype=float)
        h, w = field.shape[-2:]
        gx, gy = _grid(h, w) if grid is None else grid
        plan = cls.__new__(cls)
        plan._take(field.shape[1:], field.shape[1:], ws)
        plan._build(np.add(gx, field[0], out=plan.wx), np.add(gy, field[1], out=plan.wy))
        return plan

    def sample(self, src: np.ndarray, grads: bool = False):
        """src at the plan's points, (values,), or (values, d/dx, d/dy) with
        `grads`, each of shape S, or (C,) + S for a (C,) + grid src, taken
        from the workspace's stack below the kernel's temporaries.

        Derivatives are zero where the lookup is clamped on that axis."""
        src = np.asarray(src, dtype=float)
        grid = self.shape
        lead = src.shape[: src.ndim - len(grid)]
        if src.shape[len(lead) :] != grid or len(lead) > 1:
            raise ValueError("source must be the plan's grid, with at most a leading channel axis")
        i, sx, sy, take = self.i00, self.sx, self.sy, self.ws.take
        shape = lead + i.shape
        out = [take(shape) for _ in range(3 if grads else 1)]
        mark = self.ws.mark()
        flat = src.reshape(lead + (-1,))
        # every index is in range, so "clip" takes what "raise" would, unbuffered
        v00, v01, v10, v11 = [
            flat[..., off:].take(i, axis=-1, out=take(shape), mode="clip") for off in (0, sx, sy, sy + sx)
        ]
        val = out[0]
        wx, wy = self.wx, self.wy
        v01 -= v00  # dx_top
        v11 -= v10  # dx_bot
        np.multiply(v01, wx, out=val)
        v00 += val  # top = v00 + wx * dx_top
        np.multiply(v11, wx, out=val)
        v10 += val  # bot = v10 + wx * dx_bot
        v10 -= v00  # dy = bot - top
        if grads:
            v11 -= v01
            v11 *= wy
            v11 += v01  # dx_top + wy * (dx_bot - dx_top)
            _where(self.free_x, v11, out[1])
            _where(self.free_y, v10, out[2])
        np.multiply(v10, wy, out=val)
        val += v00  # top + wy * dy
        self.ws.release(mark)
        return tuple(out)

    def scatter(self, grad_out, out: np.ndarray) -> np.ndarray:
        """Adjoint of `sample` w.r.t. the source: accumulate grad_out (shape S,
        or (C,) + S) into out, of the grid's shape, or (C,) + grid, with the
        forward lookup's corner weights, clamping included. out may have any
        memory layout."""
        grid = self.shape
        if out.shape != grid and out.shape[1:] != grid:
            raise ValueError(
                f"out must be the plan's grid {grid}, with at most a leading channel axis, got shape {out.shape}"
            )
        g = np.asarray(grad_out, dtype=float)
        n = self.i00.size
        i = self.i00.reshape(n)
        sx, sy = self.sx, self.sy
        ws = self.ws
        mark = ws.mark()
        # one bincount over all four corners per channel: each bin sums its
        # terms corner by corner, in point order, whatever the channel count
        idx = ws.take((4, n), np.intp)
        for part, off in zip(idx, (0, sx, sy, sy + sx)):
            np.add(i, off, out=part)
        idx = idx.reshape(4 * n)
        wx = self.wx.reshape(n)
        wy = self.wy.reshape(n)
        ux = np.subtract(1.0, wx, out=ws.take((n,)))
        uy = np.subtract(1.0, wy, out=ws.take((n,)))
        wgt = ws.take((4, n))
        size = math.prod(grid)
        # a leading axis added or kept: a view of out whatever its layout
        for gc, oc in zip(g.reshape((-1, n)), out.reshape((-1,) + grid)):
            for part, a, b in zip(wgt, (ux, wx, ux, wx), (uy, uy, wy, wy)):
                np.multiply(gc, a, out=part)
                part *= b
            oc[...] = np.bincount(idx, weights=wgt.reshape(4 * n), minlength=size).reshape(grid)
        ws.release(mark)
        return out


def _grid(h: int, w: int):
    """The pixel grid of an (h, w) image, broadcast: p = (x, y) with integer
    x, y, as xs (w,) and ys (h, 1)."""
    return np.arange(w, dtype=float), np.arange(h, dtype=float)[:, None]


def _zeros(a: np.ndarray) -> np.ndarray:
    """a, filled with zeros."""
    a.fill(0.0)
    return a


def _where(cond: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.where(cond, x, 0.0) into out: +0 where cond is False, whatever x
    holds (`x *= cond` would leave -0 where x < 0)."""
    out.fill(0.0)
    np.copyto(out, x, where=cond)
    return out


def _in_range(v: np.ndarray, hi: float, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """(v >= 0.0) & (v <= hi), into out."""
    np.greater_equal(v, 0.0, out=out)
    return np.logical_and(out, np.less_equal(v, hi, out=tmp), out=out)


def _weight(v: np.ndarray, size: int, corner: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The interpolation weight clip(v) - v0 of sample coordinates v along an
    axis of `size`, into out, and their lower corner v0 into corner."""
    v.clip(0.0, size - 1.0, out=out)
    np.floor(out, out=corner)
    np.minimum(corner, max(size - 2, 0), out=corner)
    return np.subtract(out, corner, out=out)


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
        raise ValueError(f"flow must be (H, W, 2), got shape {flow.shape}")
    if target.ndim not in (2, 3):
        raise ValueError(f"target must be (H, W) or (H, W, C), got shape {target.shape}")
    if target.shape[:2] != flow.shape[:2]:
        raise ValueError(f"target is {_size(target)} but flow is {_size(flow)}")
    for name, arr in (("flow", flow), ("target", target)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
    plan = WarpPlan.along(np.moveaxis(flow, -1, 0), Workspace())
    if target.ndim == 3:
        return np.moveaxis(plan.sample(np.moveaxis(target, -1, 0))[0], 0, -1), plan.inbounds
    return plan.sample(target)[0], plan.inbounds


def _size(a: np.ndarray) -> str:
    """The H x W of an (H, W, ...) array, as an error message names it."""
    return f"{a.shape[0]}x{a.shape[1]}"


def _pool2(a: np.ndarray, out: np.ndarray) -> None:
    """2x2 average pooling over the last two axes of a (..., H, W) array into
    out, with edge replication for odd sizes: the last row or column pools
    with itself, each sum taken in the order of the four corners of a
    replicated plane."""
    h, w = a.shape[-2:]
    if h < 2 or w < 2:
        raise ValueError("cannot downsample a dimension of size 1")
    hh, ww = h - h % 2, w - w % 2
    even, odd = a[..., 0:hh:2, :], a[..., 1:hh:2, :]
    _add4(even[..., 0:ww:2], even[..., 1:ww:2], odd[..., 0:ww:2], odd[..., 1:ww:2], out[..., : hh // 2, : ww // 2])
    if w % 2:  # the last column and its replica
        _add4(even[..., -1], even[..., -1], odd[..., -1], odd[..., -1], out[..., : hh // 2, -1])
    if h % 2:  # the last row and its replica, then the corner four times over
        last = a[..., -1, :]
        _add4(last[..., 0:ww:2], last[..., 1:ww:2], last[..., 0:ww:2], last[..., 1:ww:2], out[..., -1, : ww // 2])
        if w % 2:
            corner = a[..., -1:, -1:]
            _add4(corner, corner, corner, corner, out[..., -1:, -1:])
    out *= 0.25  # 0.25 * (sum of the four)


def _add4(a, b, c, d, out) -> None:
    np.add(a, b, out=out)
    out += c
    out += d


def _pool2_adjoint(grad: np.ndarray, out: np.ndarray) -> None:
    """Adjoint of `_pool2`: a (..., h, w) gradient onto out, the fine
    (..., H, W) planes, as the zero-padded planes would fold it: each fine
    pixel gets 0.0 + 0.25 * grad of its coarse pixel, and a replicated last
    row or column then adds its replica's share to itself."""
    h, w = out.shape[-2:]
    q = np.multiply(grad, 0.25, out=out[..., 0::2, 0::2])
    q += 0.0  # the zero of the padded plane: -0 becomes +0, as there
    out[..., 0::2, 1::2] = q[..., : w // 2]
    out[..., 1::2, 0::2] = q[..., : h // 2, :]
    out[..., 1::2, 1::2] = q[..., : h // 2, : w // 2]
    if h % 2:
        out[..., -1, :] += out[..., -1, :]
    if w % 2:
        out[..., -1] += out[..., -1]


def pyramid(a, levels: int, scale: float = 1.0, out=None) -> list:
    """The levels of a (..., H, W) array, finest first: each the 2x2 average
    pool of the one before over the last two axes, times scale (0.5 keeps a
    displacement field in its level's pixel units). Odd sizes replicate
    their last row or column.

    Levels 1 and up are written into `out`, one array per level, if given;
    otherwise each is new and keeps a's memory order: a channel-last frame's
    levels sum their channel means in the frame's own order, and a
    row-major stack's levels stay row-major."""
    if levels < 1:
        raise ValueError("need at least one level")
    pyr = [np.asarray(a, dtype=float)]
    for lvl in range(1, levels):
        h, w = pyr[-1].shape[-2:]
        shape = pyr[-1].shape[:-2] + ((h + 1) // 2, (w + 1) // 2)
        dst = np.empty_like(pyr[-1], shape=shape) if out is None else out[lvl - 1]
        _pool2(pyr[-1], dst)
        if scale != 1.0:
            dst *= scale
        pyr.append(dst)
    return pyr


def pyramid_adjoint(grads, weights, scale: float = 1.0, *, ws: Workspace) -> np.ndarray:
    """Adjoint of `pyramid`: the per-level gradients, finest first, each
    times its weight, folded onto the finest level, from the coarsest one
    down: acc = weights[l] * grads[l] + adjoint(acc).

    The fold runs in place: on return grads[l] holds the fold of level l and
    every coarser one, and the result is grads[0]. Its scratch is taken
    from ws's stack."""
    mark = ws.mark()
    acc = grads[-1]
    acc *= weights[-1]
    for g, wgt in zip(grads[-2::-1], weights[-2::-1]):
        fine = ws.take(g.shape)
        _pool2_adjoint(acc, fine)
        if scale != 1.0:
            fine *= scale
        g *= wgt
        g += fine  # wgt * g + adjoint(acc)
        acc = g
        ws.release(mark)
    return acc
