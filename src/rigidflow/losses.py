"""Unsupervised objective: census photometric, edge-aware smoothness,
forward-backward consistency, and cross-task consistency terms.

Every term comes with a hand-derived analytic gradient. Losses are means
over their own valid-pixel count (smoothness over the full pixel count) so
the weights below do not depend on image size. A term whose mask is empty
gives a zero loss and zero gradients rather than NaN, with no flag: the masks
that `optimize.evaluate` returns say which mask was empty. Every term core
takes a `grads` flag: when it is False the core returns once its loss is
known and none of the gradient arithmetic runs; its gradients are then
None, or zeros where the mask is empty.

The charbonnier penalty used throughout is

    phi(x) = sqrt(x^2 + eps^2) - eps

which behaves like |x| away from zero but is smooth at the origin and is
exactly zero for a zero residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_fields
from .camera import Intrinsics, project_backward, rigid_flow
from .masks import FBCheckParams, _cycle_mask, intersect
from .sampling import WarpPlan

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
    "SIDES",
]

ALL_TERMS = frozenset({"photometric", "smooth", "fb_flow", "fb_depth", "cross"})

# side 0 is frame t against frame t+1, side 1 the same with the frames
# swapped; the other frame of side d is 1 - d
SIDES = (0, 1)

DEFAULT_L1_EPS = 1e-3


class NonFiniteLossError(RuntimeError):
    """A loss term came out NaN or infinite."""

    def __init__(self, term: str, value: float):
        super().__init__(f"loss term '{term}' is non-finite ({value!r})")
        self.term = term


@dataclass(frozen=True)
class CensusParams:
    """Census transform settings.

    radius: neighborhood radius (radius 1 -> 8 comparisons per pixel).
    epsilon: soft-sign scale of the ternary descriptor.
    charbonnier_eps: stabilizer of the per-neighbor distance penalty.
    """

    radius: int = 1
    epsilon: float = 0.02
    charbonnier_eps: float = 1e-3

    def __post_init__(self):
        check_fields(self, ("radius",), lambda v: v >= 1, ">= 1")
        check_fields(self, ("epsilon", "charbonnier_eps"), lambda v: v > 0.0, "positive")


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


def charbonnier(x, eps: float = DEFAULT_L1_EPS):
    """Smooth L1: sqrt(x^2 + eps^2) - eps, and its derivative."""
    root = np.sqrt(x * x + eps * eps)
    return root - eps, x / root


def _offsets(radius: int):
    return [
        (dy, dx)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
        if (dy, dx) != (0, 0)
    ]


def _census_terms(gray_ref: np.ndarray, branches, params: CensusParams, grads: bool = True):
    """Census distance of gray_ref against each (gray_warped, mask) branch,
    on the soft ternary descriptor d / sqrt(d^2 + eps^2) of the neighborhood
    differences d: differentiable, and invariant to additive brightness as
    the census is. A neighbor outside the image or the mask carries zero
    weight, so each offset runs on its in-bounds overlap only. The reference's
    descriptor is computed once per offset and shared by every branch. Returns
    one (loss, grad wrt gray_warped) per branch, or None for an empty mask.

    Only the first half of the offsets is computed. The second half is the
    first negated and reversed, and offset -o adds exactly what o adds,
    shifted by o: its differences, descriptors and gated gradient are the
    IEEE negations of those of o at p - o, its penalty and gate those of o
    at p - o. So the half is replayed backward with the `-=` and the shift
    swapped, and every sum runs in the order of the full offset list. (A
    zero may flip sign under negation; the accumulators start at +0 and so
    never hold -0, and adding a zero of either sign leaves them unchanged.)
    """
    h, w = gray_ref.shape
    eps2 = params.epsilon * params.epsilon
    c = params.charbonnier_eps
    live = []  # (branch, gray_w, mask, 1 / valid count)
    for b, (gray_w, mask) in enumerate(branches):
        nv = int(np.count_nonzero(mask))
        if nv:
            live.append((b, gray_w, np.asarray(mask, dtype=bool), 1.0 / nv))
    losses = [0.0] * len(branches)
    gsum = {b: np.zeros((h, w)) for b, *_ in live} if grads else {}
    kept = {b: [] for b, *_ in live}  # (loss, gated gradient) per offset of the half
    offsets = _offsets(params.radius)
    # each offset (dy, dx) of the half as (here, there): the pixels whose
    # neighbour is in bounds, and those neighbours; a longer offset has none
    wins = [
        ((slice(max(0, -dy), h - max(0, dy)), slice(max(0, -dx), w - max(0, dx))),
         (slice(max(0, dy), h - max(0, -dy)), slice(max(0, dx), w - max(0, -dx))))
        for dy, dx in offsets[: len(offsets) // 2] if abs(dy) < h and abs(dx) < w
    ]
    # the arithmetic runs in place, in the order of the plain expressions
    # noted beside it, so every value is the same to the bit
    for here, there in wins:
        tr = gray_ref[there] - gray_ref[here]  # dr
        t = np.multiply(tr, tr)
        t += eps2
        np.sqrt(t, out=t)
        tr /= t  # tr = dr / sqrt(dr^2 + eps^2)
        for b, gray_w, mask, inv in live:
            dw = gray_w[there] - gray_w[here]
            s = np.multiply(dw, dw)
            s += eps2
            delta = np.sqrt(s)
            np.divide(dw, delta, out=delta)
            np.subtract(tr, delta, out=delta)  # delta = tr - dw / sqrt(dw^2 + eps^2)
            root = np.multiply(delta, delta)
            root += c * c
            np.sqrt(root, out=root)
            gate = mask[here] & mask[there]
            part = float(np.sum(root[gate] - c))
            losses[b] += part
            if not grads:
                kept[b].append((part, None))
                continue
            # d phi / d dw = phi'(delta) * (-1) * t'(dw),  t'(d) = eps^2 / (d^2+eps^2)^1.5
            np.power(s, 1.5, out=s)
            np.divide(-eps2, s, out=s)
            delta /= root
            delta *= s
            delta *= inv  # (delta / root) * (-eps^2 / (dw^2 + eps^2)^1.5) * inv
            g = np.multiply(delta, gate, out=delta)
            gsum[b][here] -= g
            gsum[b][there] += g
            kept[b].append((part, g))
    # the mirrored half: -o's `-= g` is o's `+= g` and the other way round;
    # a translation keeps row-major order, so `part` is the same
    for here, there in reversed(wins):
        for b, *_ in live:
            part, g = kept[b].pop()
            losses[b] += part
            if grads:
                gsum[b][there] += g
                gsum[b][here] -= g
    out = [None] * len(branches)
    for b, *_, inv in live:
        out[b] = (losses[b] * inv, gsum.get(b))
    return out


def edge_weights(guide: np.ndarray):
    """Edge weights (wx, wy) of a guide image, (H, W) or (H, W, C): exp(-mean_c
    |d guide|) between horizontal neighbours, (H, W-1), and vertical ones, (H-1, W)."""
    g = np.asarray(guide, dtype=float)
    gc = g[..., None] if g.ndim == 2 else g
    wx = np.exp(-np.mean(np.abs(gc[:, 1:] - gc[:, :-1]), axis=2))
    wy = np.exp(-np.mean(np.abs(gc[1:] - gc[:-1]), axis=2))
    return wx, wy


@dataclass(frozen=True)
class LevelInputs:
    """Image-only inputs of one pyramid level: per side, the gray image and edge weights; the intrinsics."""

    gray: tuple
    edges: tuple
    k: Intrinsics


def _channel_last_sum(phi: np.ndarray, wgt: np.ndarray) -> float:
    """sum of phi * wgt over a planar (C, h, w) phi, added up as the
    channel-last (h, w, C) products: the summation order of the loss, so
    its value does not depend on the layout."""
    prod = np.empty(phi.shape[1:] + phi.shape[:1])
    for c, plane in enumerate(phi):
        np.multiply(plane, wgt, out=prod[..., c])
    return np.sum(prod)


def smoothness_loss(field: np.ndarray, edges, mean_normalize: bool = False, grads: bool = True):
    """Edge-aware first-order smoothness of an (H, W) or planar (C, H, W)
    field, weighted by the edge weights (wx, wy) of its guide image
    (`edge_weights`).

    sum over axes of phi(d field) * exp(-mean_c |d guide|), divided by the
    pixel count H*W, where phi is the charbonnier surrogate for |.| (an exact
    critical point at a constant field; raw sign gradients would push an
    optimizer around on 1e-15 residuals). With mean_normalize the field is
    divided by its mean first (used for depth, where absolute scale is
    arbitrary).

    Returns (loss, grad wrt field).
    """
    f = np.asarray(field, dtype=float)
    squeeze = f.ndim == 2
    fc = f[None] if squeeze else f
    h, w = fc.shape[1:]
    wx, wy = edges
    if np.shape(wx) != (h, w - 1) or np.shape(wy) != (h - 1, w):
        raise ValueError("field and edge weight sizes differ")
    if mean_normalize:
        mu = f.mean()
        if abs(mu) < 1e-12:
            raise ValueError("cannot mean-normalize a zero-mean field")
        n = fc / mu
    else:
        n = fc
    dx = n[..., 1:] - n[..., :-1]
    dy = n[:, 1:] - n[:, :-1]
    inv = 1.0 / (h * w)
    phi_x, dphi_x = charbonnier(dx)
    phi_y, dphi_y = charbonnier(dy)
    loss = (_channel_last_sum(phi_x, wx) + _channel_last_sum(phi_y, wy)) * inv
    if not grads:
        return float(loss), None
    grad_n = np.zeros_like(fc)
    sx = dphi_x * wx * inv
    grad_n[..., 1:] += sx
    grad_n[..., :-1] -= sx
    sy = dphi_y * wy * inv
    grad_n[:, 1:] += sy
    grad_n[:, :-1] -= sy
    if mean_normalize:
        # n = f / mean(f): the mean couples every element
        corr = np.sum(grad_n * fc) / (fc.size * mu * mu)
        grad_f = grad_n / mu - corr
    else:
        grad_f = grad_n
    return float(loss), grad_f[0] if squeeze else grad_f


def _fb_flow_terms(fwd, plan: WarpPlan, cycle, mask, grads: bool = True):
    """Charbonnier norm of f(p) + b(p + f(p)) over mask, from the cycle (b,
    db/dx, db/dy) sampled through the plan of f = fwd, each planar (2, H, W);
    only b is read without `grads`. Returns (loss, grad wrt fwd, grad wrt bwd)."""
    nv = int(np.count_nonzero(mask))
    if nv == 0:
        return 0.0, np.zeros_like(fwd), np.zeros_like(fwd)
    mask = np.asarray(mask, dtype=bool)
    phi, dphi = charbonnier(fwd + cycle[0])
    inv = 1.0 / nv
    loss = float(np.sum((phi[0] + phi[1])[mask])) * inv
    if not grads:
        return loss, None, None
    _, bdx, bdy = cycle
    g = np.where(mask, dphi * inv, 0.0)
    del phi, dphi  # dead: freed before the scatter, where a level's memory peaks
    gu, gv = g
    # q depends on fwd, so the sampled b(q) feeds back into both components
    grad_fwd = np.empty_like(fwd)
    grad_fwd[0] = gu * (1.0 + bdx[0]) + gv * bdx[1]
    grad_fwd[1] = gu * bdy[0] + gv * (1.0 + bdy[1])
    return loss, grad_fwd, plan.scatter(g)


def _fb_depth_terms(depth_t, depth_t1, plan: WarpPlan, mask, grads: bool = True):
    """Charbonnier gap over mask between depth_t and depth_t1 pulled back
    through the plan of the rigid flow. Returns (loss, grad wrt depth_t,
    grad wrt depth_t1, planar grad wrt the rigid flow)."""
    h, w = depth_t.shape
    nv = int(np.count_nonzero(mask))
    if nv == 0:
        return 0.0, np.zeros((h, w)), np.zeros((h, w)), np.zeros((2, h, w))
    pulled, *deriv = plan.sample_grad(depth_t1) if grads else (plan.sample(depth_t1),)
    phi, dphi = charbonnier(depth_t - pulled)
    inv = 1.0 / nv
    loss = float(np.sum(phi[mask])) * inv
    if not grads:
        return loss, None, None, None
    g = np.where(mask, dphi * inv, 0.0)
    neg = -g
    grad_rigid = np.stack([neg * dd for dd in deriv])
    return loss, g, plan.scatter(neg), grad_rigid


def cross_task_loss(
    rigid: np.ndarray, flow: np.ndarray, mask: np.ndarray, eps: float = DEFAULT_L1_EPS, grads: bool = True
):
    """Charbonnier gap between rigid flow and estimated flow, both planar
    (2, H, W), over mask.

    Returns (loss, grad wrt rigid, grad wrt flow).
    """
    rigid = np.asarray(rigid, dtype=float)
    flow = np.asarray(flow, dtype=float)
    if rigid.shape != flow.shape:
        raise ValueError("field sizes differ")
    nv = int(np.count_nonzero(mask))
    if nv == 0:
        return 0.0, np.zeros_like(rigid), np.zeros_like(flow)
    phi, dphi = charbonnier(rigid - flow, eps)
    inv = 1.0 / nv
    loss = float(np.sum((phi[0] + phi[1])[mask])) * inv
    if not grads:
        return loss, None, None
    grad_rigid = np.where(mask, dphi * inv, 0.0)
    return loss, grad_rigid, -grad_rigid


@dataclass
class ScaleResult:
    """Per-level term values and gradients w.r.t. that level's inputs, the
    gradients indexed by side: grad_pose holds the (rotation, translation)
    gradient of each side's pose."""

    photometric: float
    smooth: float
    fb: float
    cross: float
    grad_depth: tuple
    grad_pose: tuple
    grad_flow: tuple
    masks: LevelMasks


def _photometric_pair(ref: np.ndarray, src: np.ndarray, branches, census: CensusParams, grads: bool):
    """The two photometric branches that share `ref` as census reference.

    Each branch (plan, mask, acc) warps `src` through the plan of its
    correspondence field and, when `grads`, adds the gradient wrt that
    field into acc. Returns the two branch losses.
    """
    warps = [plan.sample_grad(src) if grads else (plan.sample(src),) for plan, _, _ in branches]
    pairs = [(warp[0], mask) for warp, (_, mask, _) in zip(warps, branches)]
    found = _census_terms(ref, pairs, census, grads)
    losses = []
    for term, warp, (_, _, acc) in zip(found, warps, branches):
        loss, grad_warped = term or (0.0, None)  # None: the branch's mask is empty
        losses.append(loss)
        if grads and term:
            acc[0] += grad_warped * warp[1]
            acc[1] += grad_warped * warp[2]
    return losses


def scale_objective(
    level: LevelInputs,
    depths,
    poses,
    flows,
    weights: LossWeights,
    census: CensusParams,
    fb_params: FBCheckParams,
    terms: frozenset = ALL_TERMS,
    masks: LevelMasks | None = None,
    grads: bool = True,
) -> ScaleResult:
    """Objective of a single pyramid level, both sides, with gradients unless
    `grads` is False (then the gradient fields are None; the losses are the same).

    level holds the level's image-only inputs. depths are (frame t, frame
    t+1), poses (t -> t+1, t+1 -> t) and flows (forward, backward), planar
    (2, h, w): entry d of each, and of level's pairs, belongs to side d,
    whose other frame is 1 - d. Every term is written once and run for each
    side in turn. The flow gradients are planar too.

    When `masks` is given the validity masks are taken as-is instead of being
    recomputed from the current state (needed by finite-difference checks,
    where the masks must stay frozen while the state moves).
    """
    h, w = level.gray[0].shape
    flows = [np.asarray(f, dtype=float) for f in flows]
    rigid, cheir = zip(*(rigid_flow(depths[d], level.k, poses[d]) for d in SIDES))
    rigid = [np.moveaxis(f, -1, 0) for f in rigid]  # planar views, no copy
    # one warp plan per correspondence field serves every term of the level
    rigid_plans = [WarpPlan.along(f) for f in rigid]
    flow_plans = [WarpPlan.along(f) for f in flows]
    # the fb cycle b(p + f(p)) of each flow side feeds both its mask and its
    # loss; its loss pops it, so it is freed as soon as it is used
    cycles = {}
    if "fb_flow" in terms:
        cycles = {
            d: flow_plans[d].sample_grad(flows[1 - d]) if grads else (flow_plans[d].sample(flows[1 - d]),)
            for d in SIDES
        }
    if masks is None:
        depth_masks, flow_masks = [], []
        for d in SIDES:
            back = cycles[d][0] if cycles else flow_plans[d].sample(flows[1 - d])
            flow_masks.append(_cycle_mask(flows[d], back, flow_plans[d].inbounds, fb_params))
            back = rigid_plans[d].sample(rigid[1 - d])
            mask = _cycle_mask(rigid[d], back, rigid_plans[d].inbounds, fb_params)
            depth_masks.append(mask & cheir[d])
        del back
        masks = LevelMasks(*depth_masks, *flow_masks)
    depth_masks = (masks.depth_fwd, masks.depth_bwd)
    flow_masks = (masks.flow_fwd, masks.flow_bwd)
    g_rigid, g_flow, g_depth = (
        [np.zeros(shape) if grads else None for _ in SIDES] for shape in ((2, h, w), (2, h, w), (h, w))
    )
    photometric = 0.0
    smooth = 0.0
    fb_total = 0.0
    cross = 0.0

    if "photometric" in terms:
        for d in SIDES:
            branches = (
                (rigid_plans[d], depth_masks[d], g_rigid[d]),
                (flow_plans[d], flow_masks[d], g_flow[d]),
            )
            for loss in _photometric_pair(level.gray[d], level.gray[1 - d], branches, census, grads):
                photometric += loss

    if "smooth" in terms:
        # all four terms run before any is added: freeing each gradient right
        # after its add measured about 3% slower per refine iteration at 256²,
        # from the extra page faults of the reallocations
        parts = [
            (acc, d, *smoothness_loss(fields[d], level.edges[d], mean_normalize, grads))
            for fields, acc, mean_normalize in ((depths, g_depth, True), (flows, g_flow, False))
            for d in SIDES
        ]
        for acc, d, loss, grad in parts:
            smooth += loss
            if grads:
                acc[d] += weights.lambda_s * grad

    if "fb_flow" in terms:
        for d in SIDES:
            loss, grad, grad_other = _fb_flow_terms(
                flows[d], flow_plans[d], cycles.pop(d), flow_masks[d], grads
            )
            fb_total += loss
            if grads:
                g_flow[d] += weights.lambda_f * grad
                g_flow[1 - d] += weights.lambda_f * grad_other
    # the plans are dead once their last term has run: freeing them keeps
    # the level's peak memory at the projection adjoint below that of the
    # per-term sampling they replace
    del flow_plans

    if "fb_depth" in terms:
        for d in SIDES:
            loss, grad, grad_other, grad_rigid = _fb_depth_terms(
                depths[d], depths[1 - d], rigid_plans[d], depth_masks[d], grads
            )
            fb_total += loss
            if grads:
                g_depth[d] += weights.lambda_f * grad
                g_depth[1 - d] += weights.lambda_f * grad_other
                g_rigid[d] += weights.lambda_f * grad_rigid
    del rigid_plans

    if "cross" in terms:
        for d in SIDES:
            mask = intersect(depth_masks[d], flow_masks[d])
            loss, grad_rigid, grad_flow = cross_task_loss(rigid[d], flows[d], mask, grads=grads)
            cross += loss
            if grads:
                g_rigid[d] += weights.lambda_c * grad_rigid
                g_flow[d] += weights.lambda_c * grad_flow

    if not grads:
        return ScaleResult(photometric, smooth, fb_total, cross, None, None, None, masks)
    # photometric branch gradients on rigid flow arrive unweighted; rescale
    # happens at accumulation sites above, so here only the chain through
    # the projection remains
    g_pose = []
    for d in SIDES:
        gd, gr, gt = project_backward(depths[d], level.k, poses[d], *g_rigid[d])
        g_depth[d] += gd
        g_pose.append((gr, gt))
    grads = (tuple(g_depth), tuple(g_pose), tuple(g_flow))
    return ScaleResult(photometric, smooth, fb_total, cross, *grads, masks)
