"""Unsupervised objective: census photometric, edge-aware smoothness,
forward-backward consistency, and cross-task consistency terms.

Every term comes with a hand-derived analytic gradient. Losses are means
over their own valid-pixel count (smoothness over the full pixel count) so
the weights below do not depend on image size. A term whose mask is empty
gives a zero loss and zero gradients rather than NaN, with no flag: the masks
that `optimize.evaluate` returns say which mask was empty. The fb and
cross-task terms are one robust penalty over a validity mask
(`_masked_penalty`), each with its own chain rule. Every term core takes a
`grads` flag: when it is False the core returns once its loss is known and
none of the gradient arithmetic runs; its gradients are then None.

Every per-pixel array may carry the leading side axis of the stacked layout
(told in `sampling`), and on small levels each kernel runs once for both
sides (`scale_objective`). Every reduction runs per side on a contiguous
(h, w) slice, in the order of the unstacked sum, and a loss comes back as
one float per side (a tuple); without a side axis it is one float.

The charbonnier penalty used throughout is

    phi(x) = sqrt(x^2 + eps^2) - eps

which behaves like |x| away from zero but is smooth at the origin and is
exactly zero for a zero residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import check_fields
from .camera import Intrinsics, _entries, _project_backward, _rigid_flow
from .masks import FBCheckParams, _cycle_mask
from .sampling import WarpPlan, Workspace, _where, _zeros

__all__ = [
    "CensusParams",
    "LossWeights",
    "LossReport",
    "LevelMasks",
    "NonFiniteLossError",
    "charbonnier",
    "edge_weights",
    "LevelInputs",
    "smoothness_loss",
    "cross_task_loss",
    "scale_objective",
    "ALL_TERMS",
]

ALL_TERMS = frozenset({"photometric", "smooth", "fb_flow", "fb_depth", "cross"})

DEFAULT_L1_EPS = 1e-3

# the smallest field mean that `smoothness_loss` divides by
MEAN_FLOOR = 1e-12


class NonFiniteLossError(RuntimeError):
    """A loss term came out NaN or infinite."""

    def __init__(self, term: str, value: float):
        super().__init__(f"loss term '{term}' is non-finite ({value!r})")
        self.term = term


# the census gradient divides by (d^2 + epsilon^2)^1.5, epsilon^3 at d = 0,
# and its penalty squares charbonnier_eps: each power must be a normal float,
# neither 0 nor inf. Hence epsilon from the cube root of the smallest normal
# float up to, not including, the cube root of the largest (np.cbrt rounds it
# up, and its cube overflows), and charbonnier_eps between the square roots
_FLOATS = np.finfo(float)
EPSILON_RANGE = float(np.cbrt(_FLOATS.tiny)), float(np.cbrt(_FLOATS.max))
CHARBONNIER_EPS_RANGE = float(np.sqrt(_FLOATS.tiny)), float(np.sqrt(_FLOATS.max))


@dataclass(frozen=True)
class CensusParams:
    """Census transform settings.

    radius: neighborhood radius (radius 1 -> 8 comparisons per pixel).
    epsilon: soft-sign scale of the ternary descriptor, in `EPSILON_RANGE`
        (the upper end excluded).
    charbonnier_eps: stabilizer of the per-neighbor distance penalty, in
        `CHARBONNIER_EPS_RANGE`.
    """

    radius: int = 1
    epsilon: float = 0.02
    charbonnier_eps: float = 1e-3

    def __post_init__(self):
        check_fields(self, ("radius",), lambda v: v >= 1, ">= 1")
        check_fields(self, ("epsilon", "charbonnier_eps"), lambda v: v > 0.0, "positive")
        lo, hi = EPSILON_RANGE
        check_fields(self, ("epsilon",), lambda v: lo <= v < hi, f"in [{lo!r}, {hi!r})")
        lo, hi = CHARBONNIER_EPS_RANGE
        check_fields(self, ("charbonnier_eps",), lambda v: lo <= v <= hi, f"in [{lo!r}, {hi!r}]")


def _census_squares(spread: float, params: CensusParams) -> bool:
    """Whether the census gradient's (d^2 + epsilon^2) ** 1.5 stays finite for
    every neighbour difference d of a frame whose values span `spread`. A gray
    value is a mean of the frame's channels and a bilinear sample a convex
    combination of gray values, so |d| <= spread; the square carries a 2^-18
    margin for their rounding."""
    s = spread * spread * (1.0 + 2.0**-18) + params.epsilon * params.epsilon  # Python floats: inf, no warning
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.power(s, 1.5)))


@dataclass(frozen=True)
class LossWeights:
    lambda_s: float = 3.0
    lambda_f: float = 0.2
    lambda_c: float = 0.2

    def __post_init__(self):
        check_fields(self, ("lambda_s", "lambda_f", "lambda_c"), lambda v: v >= 0.0, "non-negative")


@dataclass(frozen=True)
class LossReport:
    """Raw term values plus the weighted total.

    total = photometric + lambda_s * smooth + lambda_f * forward_backward
          + lambda_c * cross, evaluated exactly once on the accumulated sums.
    """

    photometric: float
    smooth: float
    forward_backward: float
    cross: float
    total: float


@dataclass(frozen=True)
class LevelMasks:
    """Validity masks of one pyramid level (cheirality already folded in)."""

    depth_fwd: np.ndarray
    depth_bwd: np.ndarray
    flow_fwd: np.ndarray
    flow_bwd: np.ndarray


def charbonnier(x, eps: float = DEFAULT_L1_EPS, grads: bool = True, out=None):
    """Smooth L1: sqrt(x^2 + eps^2) - eps, and its derivative (None
    without `grads`), into the two arrays of `out` if given (neither may be x)."""
    phi, root = (None, None) if out is None else out
    root = np.asarray(np.multiply(x, x, out=root))
    root += eps * eps
    np.sqrt(root, out=root)  # in place: root = sqrt(x * x + eps * eps)
    return np.subtract(root, eps, out=phi), np.divide(x, root, out=root) if grads else None


def _by_side(values, mask: np.ndarray):
    """One value per side: a tuple for a stacked (n, h, w) mask, the value for an (h, w) one."""
    return tuple(values) if mask.ndim == 3 else values[0]


def _inverse_counts(mask: np.ndarray):
    """The valid count of each side of mask, and 1 / each count, 0.0 for an
    empty side: as a list, and shaped to broadcast over mask. (One
    count_nonzero per side: with an axis it counts by a slower sum.)"""
    counts = [int(np.count_nonzero(m)) for m in mask.reshape((-1,) + mask.shape[-2:])]
    inv = [1.0 / n if n else 0.0 for n in counts]
    return counts, inv, np.array(inv).reshape(mask.shape[:-2] + (1, 1))


def _side_means(vals: np.ndarray, mask: np.ndarray, counts):
    """Sum of vals over mask times 1 / its count, side by side (`_by_side`),
    for counts = `_inverse_counts(mask)`. One compaction of the mask is cut
    into each side's contiguous part, which holds what the side's own
    compaction would, in its order."""
    kept = vals[mask]
    means, start = [], 0
    for n, i in zip(*counts[:2]):
        means.append(float(np.add.reduce(kept[start : start + n], None)) * i)
        start += n
    return _by_side(means, mask)


def _offsets(radius: int):
    return [
        (dy, dx)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
        if (dy, dx) != (0, 0)
    ]


def _census_reference(gray: np.ndarray, params: CensusParams) -> tuple:
    """The reference descriptors of the census of gray, (h, w) or stacked
    (n, h, w): for each offset (dy, dx) of the first half of the offsets of
    `params.radius` whose in-bounds overlap is not empty (a longer one has
    none), (here, there, descriptor). here and there are the windows of the
    pixels whose neighbour at that offset is in bounds and of those
    neighbours; the descriptor, on that overlap alone, is the soft ternary
    dr / sqrt(dr^2 + eps^2) of the differences dr = gray[there] - gray[here]."""
    h, w = gray.shape[-2:]
    eps2 = params.epsilon * params.epsilon
    offsets = _offsets(params.radius)
    out = []
    for dy, dx in offsets[: len(offsets) // 2]:
        if abs(dy) >= h or abs(dx) >= w:
            continue
        here = (..., slice(max(0, -dy), h - max(0, dy)), slice(max(0, -dx), w - max(0, dx)))
        there = (..., slice(max(0, dy), h - max(0, -dy)), slice(max(0, dx), w - max(0, -dx)))
        tr = np.subtract(gray[there], gray[here])  # dr
        t = np.multiply(tr, tr)
        t += eps2
        np.sqrt(t, out=t)
        tr /= t  # tr = dr / sqrt(dr^2 + eps^2)
        out.append((here, there, tr))
    return tuple(out)


def _census_terms(ref, branches, params: CensusParams, grads: bool, ws: Workspace):
    """Census distance of a reference, given by its descriptors `ref`
    (`_census_reference` with the same params), against each (gray_warped,
    mask, counts) branch, counts being `_inverse_counts(mask)`. The soft
    ternary descriptor d / sqrt(d^2 + eps^2) of the neighborhood differences
    d is differentiable, and invariant to additive brightness as the census
    is. A neighbor outside the image or the mask carries zero weight, so each
    offset runs on its in-bounds overlap only. All arrays are (h, w), or
    stacked (n, h, w) with n at most 2 and the losses summed side by side.
    Returns one (loss, grad wrt gray_warped) per branch, the loss one per side
    (`_by_side`). An empty side, or branch, gives a zero loss and a +0
    gradient: its terms are +-0, and the accumulators start at +0. Its
    arrays are taken from ws's stack, where the returned gradients stay.

    Only the first half of the offsets is computed. The second half is the
    first negated and reversed, and offset -o adds exactly what o adds,
    shifted by o: its differences, descriptors and gated gradient are the
    IEEE negations of those of o at p - o, its penalty and gate those of o
    at p - o. So the half is replayed backward with the `-=` and the shift
    swapped, and every sum runs in the order of the full offset list. (A
    zero may flip sign under negation; the accumulators start at +0 and so
    never hold -0, and adding a zero of either sign leaves them unchanged.)
    """
    take = ws.take
    subtract, multiply, divide, sqrt, add_reduce = np.subtract, np.multiply, np.divide, np.sqrt, np.add.reduce
    eps2 = params.epsilon * params.epsilon
    c = params.charbonnier_eps
    # per branch: its gray_w, mask, 1 / valid count per side, the same
    # broadcastable, its gradient sum, and its sides' sums per offset
    per_branch = [
        (gray_w, mask, inv, scale, _zeros(take(gray_w.shape)) if grads else None, [])
        for gray_w, mask, (_, inv, scale) in branches
    ]
    mark = ws.mark()
    # each offset's gated gradient of each branch, kept for the mirrored half
    gated = [[take(tr.shape) for _ in per_branch] for _, _, tr in ref] if grads else None
    offset_mark = ws.mark()
    # the arithmetic runs in place, in the order of the plain expressions
    # noted beside it, so every value is the same to the bit
    for o, (here, there, tr) in enumerate(ref):
        shape = tr.shape
        dw, s, root, gate = take(shape), take(shape), take(shape), take(shape, bool)
        for j, (gray_w, mask, inv, scale, gsum, found) in enumerate(per_branch):
            subtract(gray_w[there], gray_w[here], out=dw)
            multiply(dw, dw, out=s)
            s += eps2
            delta = sqrt(s, out=gated[o][j] if grads else take(shape))
            divide(dw, delta, out=delta)
            subtract(tr, delta, out=delta)  # delta = tr - dw / sqrt(dw^2 + eps^2)
            multiply(delta, delta, out=root)
            root += c * c
            sqrt(root, out=root)
            np.logical_and(mask[here], mask[there], out=gate)
            terms = root[gate]
            terms -= c  # root[gate] - c, each side's part summed on its own
            if len(inv) == 1:
                found.append((float(add_reduce(terms, None)),))
            else:  # side 0's part of the compaction, then side 1's
                n0 = np.count_nonzero(gate[0])
                found.append((float(add_reduce(terms[:n0], None)), float(add_reduce(terms[n0:], None))))
            if not grads:
                continue
            # d phi / d dw = phi'(delta) * (-1) * t'(dw),  t'(d) = eps^2 / (d^2+eps^2)^1.5
            np.power(s, 1.5, out=s)
            divide(-eps2, s, out=s)
            delta /= root
            delta *= s
            delta *= scale  # (delta / root) * (-eps^2 / (dw^2 + eps^2)^1.5) * inv
            g = multiply(delta, gate, out=delta)
            gsum[here] -= g
            gsum[there] += g
        ws.release(offset_mark)
    if grads:
        # the mirrored half: -o's `-= g` is o's `+= g` and the other way round
        for (here, there, _), gs in zip(reversed(ref), reversed(gated)):
            for (*_, gsum, _), g in zip(per_branch, gs):
                gsum[there] += g
                gsum[here] -= g
    ws.release(mark)
    out = []
    for _, mask, inv, _, gsum, found in per_branch:
        # a translation keeps row-major order, so -o's sums are o's, each
        # side's added in the order of the full offset list
        losses = [0.0] * len(inv)
        for parts in found + found[::-1]:
            for side, part in enumerate(parts):
                losses[side] += part
        out.append((_by_side([loss * i for loss, i in zip(losses, inv)], mask), gsum))
    return out


def edge_weights(guide: np.ndarray):
    """Edge weights (wx, wy) of a planar (C, H, W) guide image: exp(-mean_c
    |d guide|) between horizontal neighbours, (H, W-1), and vertical ones, (H-1, W)."""
    g = np.asarray(guide, dtype=float)
    if g.ndim != 3:
        raise ValueError("guide must be a planar (C, H, W) image")
    wx = np.exp(-np.mean(np.abs(g[..., 1:] - g[..., :-1]), axis=0))
    wy = np.exp(-np.mean(np.abs(g[..., 1:, :] - g[..., :-1, :]), axis=0))
    return wx, wy


@dataclass(frozen=True)
class LevelInputs:
    """What one pyramid level's objective reads that the state does not
    change, built once per frame pair (`optimize.PairContext`): the gray
    images (2, h, w) of both frames, their edge weights (wx (2, h, w-1), wy
    (2, h-1, w)), the intrinsics, the census settings and each frame's
    census reference descriptors for them (`_census_reference` of the
    stacked gray images: one (2, ...) array per half-offset, on its overlap),
    and the level's pixel grid and rays (xs, ys, rx, ry) (`camera._pixels`).
    A block of sides reads its slice of them (`block`)."""

    gray: np.ndarray
    edges: tuple
    k: Intrinsics
    census: CensusParams
    descriptors: tuple
    pixels: tuple
    views: dict = field(default_factory=dict, compare=False, repr=False)  # of `block`, by its sides

    def block(self, own: slice, other: slice):
        """What the block of sides own, whose other frames are the sides other,
        reads: (gray[other], descriptors cut to own, edges cut to own), built once."""
        key = own.start, own.stop, other.start, other.stop
        views = self.views.get(key)
        if views is None:
            ref = tuple((here, there, tr[own]) for here, there, tr in self.descriptors)
            views = self.views[key] = self.gray[other], ref, tuple(e[own] for e in self.edges)
        return views


def _channel_last_sum(phi: np.ndarray, wgt: np.ndarray, prod: np.ndarray) -> list:
    """Per side, the sum of phi * wgt over a planar (C, n, h, w) phi, added
    up as the channel-last (h, w, C) products, written into the (n, h, w, C)
    prod: the summation order of the loss, so its value does not depend on
    the layout."""
    for c, plane in enumerate(phi):
        np.multiply(plane, wgt, out=prod[..., c])
    return np.add.reduce(prod.reshape(len(prod), -1), axis=1)  # each side's row, pairwise


_LO, _HI = slice(None, -1), slice(1, None)
# the (lo, hi) windows of each pair of neighbours: along x, then along y
_NEIGHBOURS = (((..., _LO), (..., _HI)), ((..., _LO, slice(None)), (..., _HI, slice(None))))


def smoothness_loss(field: np.ndarray, edges, mean_normalize: bool = False, grads: bool = True, ws=None, out=None):
    """Edge-aware first-order smoothness of an (H, W) or planar (C, H, W)
    field, weighted by the edge weights (wx, wy) of its guide image
    (`edge_weights`). Edge weights with a leading side axis, (n, H, W-1)
    and (n, H-1, W), take a stacked (n, H, W) or (C, n, H, W) field and
    give one loss per side.

    sum over axes of phi(d field) * exp(-mean_c |d guide|), divided by the
    pixel count H*W, where phi is the charbonnier surrogate for |.| (an exact
    critical point at a constant field; raw sign gradients would push an
    optimizer around on 1e-15 residuals). With mean_normalize the field is
    divided by its mean first (used for depth, where absolute scale is
    arbitrary).

    Returns (loss, grad wrt field), the gradient into `out` if given. Its
    temporaries are taken from ws's stack.
    """
    f = np.asarray(field, dtype=float)
    ws = Workspace() if ws is None else ws
    wx, wy = edges
    wx, wy = np.asarray(wx), np.asarray(wy)
    squeeze = f.ndim == wx.ndim  # no channel axis
    fc = f[None] if squeeze else f
    h, w = fc.shape[-2:]
    if wx.shape != fc.shape[1:-1] + (w - 1,) or wy.shape != fc.shape[1:-2] + (h - 1, w):
        raise ValueError("field and edge weight sizes differ")
    fc = fc.reshape((len(fc), -1, h, w))  # (C, n, h, w), n = 1 unstacked
    out = (np.empty(f.shape) if out is None else out) if grads else None
    mark = ws.mark()
    if mean_normalize:
        # each side's mean, as side.mean() takes it: the pairwise sum of its
        # row, its (C, h, w) values, over their count
        rows = fc.swapaxes(0, 1).reshape(fc.shape[1], -1)
        size = rows.shape[1]
        mu = np.add.reduce(rows, axis=1) / size
        if min(abs(m) for m in mu) < MEAN_FLOOR:
            raise ValueError("cannot mean-normalize a zero-mean field")
        mus = mu.reshape(-1, 1, 1)
        n = np.divide(fc, mus, out=ws.take(fc.shape))
        grad_n = _zeros(ws.take(fc.shape)) if grads else None
    else:
        n = fc
        grad_n = _zeros(out.reshape(fc.shape)) if grads else None
    inv = 1.0 / (h * w)
    sums = []
    axis_mark = ws.mark()
    for (lo, hi), wgt in zip(_NEIGHBOURS, (wx, wy)):
        shape = n[hi].shape
        d = np.subtract(n[hi], n[lo], out=ws.take(shape))
        phi, dphi = charbonnier(d, grads=grads, out=(ws.take(shape), ws.take(shape)))
        sums.append(_channel_last_sum(phi, wgt, ws.take(shape[1:] + shape[:1])))
        if grads:
            dphi *= wgt
            dphi *= inv  # dphi * wgt * inv
            grad_n[hi] += dphi
            grad_n[lo] -= dphi
        ws.release(axis_mark)
    loss = ((sums[0] + sums[1]) * inv).tolist()  # (along x + along y) * inv, per side
    loss = tuple(loss) if wx.ndim == 3 else loss[0]
    if grads and mean_normalize:
        # n = f / mean(f): the mean couples every element of its side
        prod = np.multiply(grad_n, fc, out=ws.take(fc.shape)).swapaxes(0, 1)
        corr = np.add.reduce(prod.reshape(len(mu), -1), axis=1) / (size * mu * mu)
        grad_f = np.divide(grad_n, mus, out=out.reshape(fc.shape))
        grad_f -= corr.reshape(-1, 1, 1)  # grad_n / mus - corr
    ws.release(mark)
    return loss, out


def _masked_penalty(x, mask, counts, grads: bool, ws: Workspace):
    """The robust penalty of a residual x over the bool mask, whose
    `_inverse_counts` are counts: the charbonnier of x, its two components
    added up per pixel for a planar (2, n, h, w) x, averaged over each side
    of the (n, h, w) mask (`_side_means`). Returns (loss, g), g the gradient
    wrt x, zero off the mask, or None without `grads`. x is written into;
    the other arrays are taken from ws's stack."""
    phi, dphi = charbonnier(x, grads=grads, out=(ws.take(x.shape), ws.take(x.shape)))
    loss = _side_means(np.add(phi[0], phi[1], out=x[0]) if x.ndim > mask.ndim else phi, mask, counts)
    if not grads:
        return loss, None
    dphi *= counts[2]  # 1 / each side's count
    return loss, _where(mask, dphi, phi)  # np.where(mask, dphi, 0.0)


def _fb_flow_terms(fwd, plan: WarpPlan, cycle, mask, counts, grads: bool, ws: Workspace):
    """Charbonnier norm of f(p) + b(p + f(p)) over the bool mask, whose
    `_inverse_counts` are counts, from the cycle (b, db/dx, db/dy) sampled
    through the plan of f = fwd, each planar (2, H, W) or stacked (2, n, H,
    W); only b is read without `grads`. Returns (loss, grad wrt fwd, grad wrt
    bwd), bwd being what the plan sampled, both taken from ws's stack."""
    shape = np.shape(fwd)
    x = np.add(fwd, cycle[0], out=ws.take(shape))
    loss, g = _masked_penalty(x, mask, counts, grads, ws)
    if not grads:
        return loss, None, None
    _, bdx, bdy = cycle
    gu, gv = g
    grad_fwd, tmp = ws.take(shape), x[0]
    # q depends on fwd, so the sampled b(q) feeds back into both components:
    # grad_fwd[0] = gu * (1.0 + bdx[0]) + gv * bdx[1]
    np.add(bdx[0], 1.0, out=grad_fwd[0])
    grad_fwd[0] *= gu
    grad_fwd[0] += np.multiply(gv, bdx[1], out=tmp)
    # grad_fwd[1] = gu * bdy[0] + gv * (1.0 + bdy[1])
    np.multiply(gu, bdy[0], out=grad_fwd[1])
    np.add(bdy[1], 1.0, out=tmp)
    tmp *= gv
    grad_fwd[1] += tmp
    return loss, grad_fwd, plan.scatter(g, out=ws.take(shape))


def _fb_depth_terms(depth_t, depth_t1, plan: WarpPlan, mask, counts, grads: bool, ws: Workspace):
    """Charbonnier gap over the bool mask, whose `_inverse_counts` are
    counts, between depth_t and depth_t1 pulled back through the plan of the
    rigid flow, (H, W) or stacked (n, H, W) (a stacked plan pulls each side
    from the other side of depth_t1). Returns (loss, grad wrt depth_t, grad
    wrt depth_t1, planar grad wrt the rigid flow), all taken from ws's stack."""
    shape = np.shape(depth_t)
    pulled, *dd = plan.sample(depth_t1, grads)
    x = np.subtract(depth_t, pulled, out=pulled)
    loss, g = _masked_penalty(x, mask, counts, grads, ws)
    if not grads:
        return loss, None, None, None
    neg = np.negative(g, out=x)
    grad_rigid = ws.take((2,) + shape)
    for d, out in zip(dd, grad_rigid):
        np.multiply(neg, d, out=out)
    return loss, g, plan.scatter(neg, out=ws.take(shape)), grad_rigid


def cross_task_loss(rigid, flow, mask, grads: bool = True, ws: Workspace | None = None):
    """Charbonnier gap between rigid flow and estimated flow, both planar
    (2, H, W), or stacked (2, n, H, W) with an (n, H, W) mask, over mask.

    Returns (loss, grad wrt rigid, grad wrt flow), the gradients taken from
    ws's stack.
    """
    rigid = np.asarray(rigid, dtype=float)
    flow = np.asarray(flow, dtype=float)
    if rigid.shape != flow.shape:
        raise ValueError("field sizes differ")
    mask = np.asarray(mask, dtype=bool)
    ws = Workspace() if ws is None else ws
    x = np.subtract(rigid, flow, out=ws.take(rigid.shape))
    loss, grad_rigid = _masked_penalty(x, mask, _inverse_counts(mask), grads, ws)
    if not grads:
        return loss, None, None
    return loss, grad_rigid, np.negative(grad_rigid, out=x)


@dataclass
class ScaleResult:
    """Per-level term values and gradients w.r.t. that level's inputs:
    grad_depth is (2, h, w), indexed by side, grad_flow the planar (2, 2, h,
    w) as [component, side], and grad_pose holds the (rotation,
    translation) gradient of each side's pose."""

    photometric: float
    smooth: float
    fb: float
    cross: float
    grad_depth: np.ndarray
    grad_pose: tuple
    grad_flow: np.ndarray
    masks: LevelMasks


def _photometric_terms(src, ref, census: CensusParams, branches, grads: bool, ws):
    """The photometric branches of a block of sides against its census
    reference descriptors ref, both views of `LevelInputs.block`.

    Each branch (plan, mask, counts, acc) warps the frames src through the
    plan of its correspondence field, gates by the mask, whose
    `_inverse_counts` are counts, and, when `grads`, adds the gradient wrt
    that field into acc. Returns the branch losses, side by side and branch
    by branch within a side.
    """
    warps = [plan.sample(src, grads) for plan, *_ in branches]
    pairs = [(warp[0], mask, counts) for warp, (_, mask, counts, _) in zip(warps, branches)]
    found = _census_terms(ref, pairs, census, grads, ws)
    if grads:
        for (_, g), warp, (*_, acc) in zip(found, warps, branches):
            prod = warp[0]  # the warped image is dead once the census has run
            acc[0] += np.multiply(g, warp[1], out=prod)
            acc[1] += np.multiply(g, warp[2], out=prod)
    return [loss for side in zip(*[loss for loss, _ in found]) for loss in side]


def _add_own_then_other(acc_own, acc_other, weight, own, other):
    """acc_own += weight * own and acc_other += weight * other, the sides on
    axis -3, in the order the sides' terms reach each element: side 0's own
    term comes before the term side 1 sends it, side 1's after the term side
    0 sends it. For a stacked block acc_own and acc_other are one array.
    own and other are scaled in place."""
    own *= weight
    other *= weight
    acc_own[..., :1, :, :] += own[..., :1, :, :]
    acc_other += other
    acc_own[..., 1:, :, :] += own[..., 1:, :, :]


# the two sides run as one stacked block on levels of fewer pixels than
# this, and one at a time on larger ones; both give the same bytes. Stacking
# halves the calls per level, which pays on small levels; on large ones the
# doubled arrays cost more, and stacking every level raised the max RSS of a
# mover 256x256 refine loop from 104 to 129 MB. The split sits at the
# crossover scripts/block_crossover.py measures (ROADMAP.md has the sweep)
STACKED_PIXELS = 100 * 100


def _side_blocks(h: int, w: int):
    """(own, other) side slices of each block of a level, in evaluation order."""
    if h * w < STACKED_PIXELS:
        return [(slice(0, 2), slice(0, 2))]
    return [(slice(0, 1), slice(1, 2)), (slice(1, 2), slice(0, 1))]


def _block_entries(sides, shapes) -> dict:
    """The `camera._entries` of each block of sides that levels of the (h, w)
    shapes run (`_side_blocks`), each built once from `sides`, one
    (rotation, translation) per side, and keyed by the block's own sides as
    (start, stop): the `entries` of `scale_objective`."""
    out = {}
    for shape in shapes:
        for own, _ in _side_blocks(*shape):
            if (own.start, own.stop) not in out:
                out[own.start, own.stop] = _entries(sides[own])
    return out


def scale_objective(
    level: LevelInputs,
    depths,
    entries,
    flows,
    weights: LossWeights,
    fb_params: FBCheckParams,
    ws: Workspace,
    terms: frozenset = ALL_TERMS,
    masks: LevelMasks | None = None,
    grads: bool = True,
) -> ScaleResult:
    """Objective of a single pyramid level, both sides, with gradients unless
    `grads` is False (then the gradient fields are None; the losses are the same).

    level holds the level's image-only inputs, among them the census
    settings and the descriptors built for them. depths are (frame t, frame t+1),
    (2, h, w), and flows (forward, backward), planar (2, 2, h, w) as
    [component, side]: entry d of each belongs to side d, whose other frame
    is the other entry. entries holds the pose entries of each block, built
    by `_block_entries` from (t -> t+1, t+1 -> t). Every term runs
    once per block of sides (`_side_blocks`): both sides at once on small
    levels, where plans along a stacked field read each side's other frame,
    and one side at a time on large ones, reading the other side's slice.
    The flow gradient has the flows' layout.

    The terms run in three passes over the blocks, since the pair's two
    directions are independent until the fb terms send gradients across:
    pass 1, photometric then depth and flow smoothness, writes only the
    block's own sides and rigid-flow gradient; pass 2, fb flow then fb
    depth, also writes the other block's sides (`_add_own_then_other`);
    pass 3 adds the cross term, which completes the rigid-flow gradient,
    and then runs the projection adjoint on it. Only pass 2 writes across
    blocks, each array in block order, so every gradient element gets its
    terms in the order of one loop over the blocks per term. The smoothness
    losses wait until pass 1 ends and the fb depth losses until pass 2 ends,
    so every loss adds up in that order too, from 0.0 with `+=`.

    When `masks` is given the validity masks are taken as-is instead of being
    recomputed from the current state (needed by finite-difference checks,
    where the masks must stay frozen while the state moves).

    Every array lives on ws's stack. The result's masks and gradients are
    taken first and stay for the caller to release; the rigid flows, plans,
    fb cycles and rigid-flow gradients above them, and each term's arrays
    above those, released once they are added up; everything above the
    result is released before returning.
    """
    h, w = level.gray.shape[-2:]
    depth = np.asarray(depths, dtype=float)
    flow = np.asarray(flows, dtype=float)
    blocks = _side_blocks(h, w)
    views = [level.block(own, other) for own, other in blocks]
    entries = [entries[own.start, own.stop] for own, _ in blocks]
    depth_mask = ws.take((2, h, w), bool)
    flow_mask = ws.take((2, h, w), bool)
    g_flow, g_depth = (_zeros(ws.take(a.shape)) if grads else None for a in (flow, depth))
    result_mark = ws.mark()
    # per block: its rigid flows, cheirality, projected points and plans;
    # block b's other sides are those of block -1 - b
    rigid, cheir, points = zip(
        *(_rigid_flow(depth[own], level.k, level.pixels, entries[b], ws) for b, (own, _) in enumerate(blocks))
    )
    # one warp plan per correspondence field serves every term of the level
    grid = level.pixels[:2]
    rigid_plans = [WarpPlan.along(r, ws, grid) for r in rigid]
    flow_plans = [WarpPlan.along(flow[:, own], ws, grid) for own, _ in blocks]
    # the fb cycle b(p + f(p)) of the flows feeds both their masks and their loss
    cycles = [plan.sample(flow[:, other], grads) for plan, (_, other) in zip(flow_plans, blocks) if "fb_flow" in terms]
    g_rigid = [_zeros(ws.take(r.shape)) if grads else None for r in rigid]
    mark = ws.mark()
    if masks is None:
        for b, (own, other) in enumerate(blocks):
            back = cycles[b][0] if cycles else flow_plans[b].sample(flow[:, other])[0]
            _cycle_mask(flow[:, own], back, flow_plans[b].inbounds, fb_params, ws, flow_mask[own])
            back = rigid_plans[b].sample(rigid[-1 - b])[0]
            _cycle_mask(rigid[b], back, rigid_plans[b].inbounds, fb_params, ws, depth_mask[own])
            depth_mask[own] &= cheir[b]
            ws.release(mark)
        masks = LevelMasks(*depth_mask, *flow_mask)
    else:
        np.stack((masks.depth_fwd, masks.depth_bwd), out=depth_mask)
        np.stack((masks.flow_fwd, masks.flow_bwd), out=flow_mask)
    # each block's valid counts of the two masks, for every term that reads them
    depth_counts, flow_counts = ([_inverse_counts(m[own]) for own, _ in blocks] for m in (depth_mask, flow_mask))
    photometric = smooth = fb_total = cross = 0.0
    # the losses that wait until their pass ends, in block order
    depth_smooth, flow_smooth, depth_fb = [], [], []

    # pass 1: the terms that write the block's own sides alone
    for b, (own, _) in enumerate(blocks):
        src, ref, edges = views[b]
        if "photometric" in terms:
            branches = (
                (rigid_plans[b], depth_mask[own], depth_counts[b], g_rigid[b]),
                (flow_plans[b], flow_mask[own], flow_counts[b], None if g_flow is None else g_flow[:, own]),
            )
            for loss in _photometric_terms(src, ref, level.census, branches, grads, ws):
                photometric += loss
            ws.release(mark)
        if "smooth" in terms:
            for values, acc, losses in ((depth, g_depth, depth_smooth), (flow, g_flow, flow_smooth)):
                part = values[..., own, :, :]
                out = ws.take(part.shape) if grads else None
                # the depths are mean-normalized
                loss, grad = smoothness_loss(part, edges, values is depth, grads, ws, out)
                losses += loss
                if grads:
                    grad *= weights.lambda_s
                    acc[..., own, :, :] += grad  # acc += weights.lambda_s * grad
                ws.release(mark)
    for side in depth_smooth + flow_smooth:
        smooth += side

    # pass 2: the fb terms, which also write the other block's sides
    for b, (own, other) in enumerate(blocks):
        if "fb_flow" in terms:
            loss, grad, grad_other = _fb_flow_terms(
                flow[:, own], flow_plans[b], cycles[b], flow_mask[own], flow_counts[b], grads, ws
            )
            for side in loss:
                fb_total += side
            if grads:
                _add_own_then_other(g_flow[:, own], g_flow[:, other], weights.lambda_f, grad, grad_other)
            ws.release(mark)
        if "fb_depth" in terms:
            loss, grad, grad_other, grad_rigid = _fb_depth_terms(
                depth[own], depth[other], rigid_plans[b], depth_mask[own], depth_counts[b], grads, ws
            )
            depth_fb += loss
            if grads:
                _add_own_then_other(g_depth[own], g_depth[other], weights.lambda_f, grad, grad_other)
                grad_rigid *= weights.lambda_f
                g_rigid[b] += grad_rigid  # g_rigid[b] += weights.lambda_f * grad_rigid
            ws.release(mark)
    for side in depth_fb:
        fb_total += side

    # pass 3: the cross term, then the chain through the projection, on the
    # points the rigid flow projected
    grad_pose = []
    for b, (own, _) in enumerate(blocks):
        if "cross" in terms:
            mask = np.logical_and(depth_mask[own], flow_mask[own], out=ws.take(depth[own].shape, bool))
            loss, grad_rigid, grad_flow = cross_task_loss(rigid[b], flow[:, own], mask, grads, ws)
            for side in loss:
                cross += side
            if grads:
                grad_rigid *= weights.lambda_c
                g_rigid[b] += grad_rigid  # g_rigid[b] += weights.lambda_c * grad_rigid
                grad_flow *= weights.lambda_c
                g_flow[:, own] += grad_flow
            ws.release(mark)
        if grads:
            out = ws.take(depth[own].shape)
            gd, gr, gt = _project_backward(
                depth[own], level.k, level.pixels, entries[b][0], points[b], cheir[b], *g_rigid[b], ws, out
            )
            g_depth[own] += gd
            grad_pose += zip(gr, gt)
            ws.release(mark)
    ws.release(result_mark)
    grad_pose = tuple(grad_pose) if grads else None
    return ScaleResult(photometric, smooth, fb_total, cross, g_depth, grad_pose, g_flow, masks)
