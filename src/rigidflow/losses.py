"""Unsupervised objective: census photometric, edge-aware smoothness,
forward-backward consistency, and cross-task consistency terms.

Every term comes with a hand-derived analytic gradient. Losses are means
over their own valid-pixel count (smoothness over the full pixel count) so
the weights below do not depend on image size. An empty mask yields a zero
loss plus a `degenerate` flag rather than NaN.

The charbonnier penalty used throughout is

    phi(x) = sqrt(x^2 + eps^2) - eps

which behaves like |x| away from zero but is smooth at the origin and is
exactly zero for a zero residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .camera import Intrinsics, PoseSE3, project_backward, rigid_flow
from .masks import FBCheckParams, _cycle_mask, intersect
from .sampling import WarpPlan

__all__ = [
    "CensusParams",
    "LossWeights",
    "LossReport",
    "LevelMasks",
    "NonFiniteLossError",
    "charbonnier",
    "photometric_loss",
    "smoothness_loss",
    "fb_flow_loss",
    "fb_depth_loss",
    "cross_task_loss",
    "scale_objective",
    "ALL_TERMS",
]

ALL_TERMS = frozenset({"photometric", "smooth", "fb_flow", "fb_depth", "cross"})

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
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if self.epsilon <= 0.0 or self.charbonnier_eps <= 0.0:
            raise ValueError("epsilons must be positive")


@dataclass(frozen=True)
class LossWeights:
    lambda_s: float = 3.0
    lambda_f: float = 0.2
    lambda_c: float = 0.2

    def __post_init__(self):
        if self.lambda_s < 0.0 or self.lambda_f < 0.0 or self.lambda_c < 0.0:
            raise ValueError("weights must be non-negative")


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


def _gray(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=float)
    if img.ndim == 2:
        return img
    if img.ndim == 3:
        return img.mean(axis=2)
    raise ValueError("image must be (H, W) or (H, W, C)")


def _offsets(radius: int):
    return [
        (dy, dx)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
        if (dy, dx) != (0, 0)
    ]


def _shift_add(dst: np.ndarray, src: np.ndarray, dy: int, dx: int) -> None:
    """dst[q + (dy, dx)] += src[q] over the in-bounds overlap."""
    h, w = dst.shape
    y0, y1 = max(0, -dy), h - max(0, dy)
    x0, x1 = max(0, -dx), w - max(0, dx)
    dst[y0 + dy : y1 + dy, x0 + dx : x1 + dx] += src[y0:y1, x0:x1]


def photometric_loss(
    ref: np.ndarray,
    warped: np.ndarray,
    mask: np.ndarray,
    params: CensusParams = CensusParams(),
):
    """Census distance between ref and warped, averaged over mask.

    The comparison runs on a soft ternary descriptor t = d / sqrt(d^2 + eps^2)
    of the grayscale neighborhood differences d, so the loss is differentiable
    while inheriting census invariance to additive brightness changes.
    Neighbors outside the image or outside the mask carry zero weight — a
    masked-out pixel holds no trustworthy warped value, so comparisons
    against it would inject garbage at validity boundaries.

    Returns (loss, grad wrt warped, degenerate flag).
    """
    gray_r = _gray(ref)
    gray_w = _gray(warped)
    if gray_r.shape != gray_w.shape or gray_r.shape != np.asarray(mask).shape:
        raise ValueError("ref, warped, and mask sizes differ")
    warped_arr = np.asarray(warped, dtype=float)
    grad_warped = np.zeros_like(warped_arr)
    (term,) = _census_terms(gray_r, [(gray_w, mask)], params)
    if term is None:
        return 0.0, grad_warped, True
    loss, grad_gray = term
    if warped_arr.ndim == 3:
        grad_warped += (grad_gray / warped_arr.shape[2])[..., None]
    else:
        grad_warped += grad_gray
    return loss, grad_warped, False


def _census_terms(gray_ref: np.ndarray, branches, params: CensusParams):
    """Census loss of gray_ref against each (gray_warped, mask) branch.

    The reference's soft descriptor is computed once per offset and shared
    by every branch. Returns one (loss, grad wrt gray_warped) per branch,
    or None for a branch whose mask is empty.
    """
    h, w = gray_ref.shape
    r = params.radius
    eps2 = params.epsilon * params.epsilon
    c = params.charbonnier_eps
    live = []  # (branch, gray_w, padded gray_w, mask, padded mask, 1 / valid count)
    for b, (gray_w, mask) in enumerate(branches):
        nv = int(np.count_nonzero(mask))
        if nv:
            mask = np.asarray(mask, dtype=bool)
            pad_m = np.pad(mask, r, mode="constant", constant_values=False)
            live.append((b, gray_w, np.pad(gray_w, r, mode="edge"), mask, pad_m, 1.0 / nv))
    losses = [0.0] * len(branches)
    grads = {b: np.zeros((h, w)) for b, *_ in live}
    pad_r = np.pad(gray_ref, r, mode="edge")
    # the arithmetic runs in place, in the order of the plain expressions
    # noted beside it, so every value is the same to the bit
    for dy, dx in _offsets(r):
        win = (slice(r + dy, r + dy + h), slice(r + dx, r + dx + w))
        tr = pad_r[win] - gray_ref  # dr
        t = np.multiply(tr, tr)
        t += eps2
        np.sqrt(t, out=t)
        tr /= t  # tr = dr / sqrt(dr^2 + eps^2)
        for b, gray_w, pad_w, mask, pad_m, inv in live:
            dw = pad_w[win] - gray_w
            s = np.multiply(dw, dw)
            s += eps2
            delta = np.sqrt(s)
            np.divide(dw, delta, out=delta)
            np.subtract(tr, delta, out=delta)  # delta = tr - dw / sqrt(dw^2 + eps^2)
            root = np.multiply(delta, delta)
            root += c * c
            np.sqrt(root, out=root)
            gate = mask & pad_m[win]
            losses[b] += float(np.sum(root[gate] - c))
            # d phi / d dw = phi'(delta) * (-1) * t'(dw),  t'(d) = eps^2 / (d^2+eps^2)^1.5
            np.power(s, 1.5, out=s)
            np.divide(-eps2, s, out=s)
            delta /= root
            delta *= s
            delta *= inv  # (delta / root) * (-eps^2 / (dw^2 + eps^2)^1.5) * inv
            g = np.where(gate, delta, 0.0)
            grads[b] -= g
            _shift_add(grads[b], g, dy, dx)
    out = [None] * len(branches)
    for b, *_, inv in live:
        out[b] = (losses[b] * inv, grads[b])
    return out


def smoothness_loss(field: np.ndarray, guide: np.ndarray, mean_normalize: bool = False):
    """Edge-aware first-order smoothness of field, guided by image gradients.

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
    fc = f[..., None] if squeeze else f
    g = np.asarray(guide, dtype=float)
    gc = g[..., None] if g.ndim == 2 else g
    if fc.shape[:2] != gc.shape[:2]:
        raise ValueError("field and guide sizes differ")
    h, w = fc.shape[:2]
    if mean_normalize:
        mu = f.mean()
        if abs(mu) < 1e-12:
            raise ValueError("cannot mean-normalize a zero-mean field")
        n = fc / mu
    else:
        n = fc
    wx = np.exp(-np.mean(np.abs(gc[:, 1:] - gc[:, :-1]), axis=2))
    wy = np.exp(-np.mean(np.abs(gc[1:] - gc[:-1]), axis=2))
    dx = n[:, 1:] - n[:, :-1]
    dy = n[1:] - n[:-1]
    inv = 1.0 / (h * w)
    phi_x, dphi_x = charbonnier(dx)
    phi_y, dphi_y = charbonnier(dy)
    loss = (np.sum(phi_x * wx[..., None]) + np.sum(phi_y * wy[..., None])) * inv
    grad_n = np.zeros_like(fc)
    sx = dphi_x * wx[..., None] * inv
    grad_n[:, 1:] += sx
    grad_n[:, :-1] -= sx
    sy = dphi_y * wy[..., None] * inv
    grad_n[1:] += sy
    grad_n[:-1] -= sy
    if mean_normalize:
        # n = f / mean(f): the mean couples every element
        corr = np.sum(grad_n * fc) / (fc.size * mu * mu)
        grad_f = grad_n / mu - corr
    else:
        grad_f = grad_n
    return float(loss), grad_f[..., 0] if squeeze else grad_f


def fb_flow_loss(fwd: np.ndarray, bwd: np.ndarray, mask: np.ndarray, eps: float = DEFAULT_L1_EPS):
    """Charbonnier norm of f(p) + b(p + f(p)) over mask.

    Returns (loss, grad wrt fwd, grad wrt bwd, degenerate flag).
    """
    fwd = np.asarray(fwd, dtype=float)
    plan = WarpPlan.along(fwd)
    return _fb_flow_terms(fwd, plan, plan.sample_grad(bwd), mask, eps)


def _fb_flow_terms(fwd, plan: WarpPlan, cycle, mask, eps: float = DEFAULT_L1_EPS):
    """`fb_flow_loss` from the cycle (b, db/dx, db/dy) sampled through the
    plan of fwd, each (H, W, 2)."""
    nv = int(np.count_nonzero(mask))
    if nv == 0:
        return 0.0, np.zeros_like(fwd), np.zeros_like(fwd), True
    back, bdx, bdy = cycle
    mask = np.asarray(mask, dtype=bool)
    phi, dphi = charbonnier(fwd + back, eps)
    inv = 1.0 / nv
    loss = float(np.sum((phi[..., 0] + phi[..., 1])[mask])) * inv
    g = np.where(mask[..., None], dphi * inv, 0.0)
    gu = g[..., 0]
    gv = g[..., 1]
    # q depends on fwd, so the sampled b(q) feeds back into both components
    grad_fwd = np.empty_like(fwd)
    grad_fwd[..., 0] = gu * (1.0 + bdx[..., 0]) + gv * bdx[..., 1]
    grad_fwd[..., 1] = gu * bdy[..., 0] + gv * (1.0 + bdy[..., 1])
    return loss, grad_fwd, plan.scatter(g), False


def fb_depth_loss(
    depth_t: np.ndarray,
    depth_t1: np.ndarray,
    rigid_fwd: np.ndarray,
    mask: np.ndarray,
    eps: float = DEFAULT_L1_EPS,
):
    """Charbonnier gap between frame-t depth and frame-t+1 depth pulled back
    along the rigid flow.

    Returns (loss, grad wrt depth_t, grad wrt depth_t1, grad wrt rigid_fwd,
    degenerate flag).
    """
    depth_t = np.asarray(depth_t, dtype=float)
    return _fb_depth_terms(depth_t, depth_t1, WarpPlan.along(rigid_fwd), mask, eps)


def _fb_depth_terms(depth_t, depth_t1, plan: WarpPlan, mask, eps: float = DEFAULT_L1_EPS):
    """`fb_depth_loss` with depth_t1 pulled back through the rigid flow's plan."""
    h, w = depth_t.shape
    nv = int(np.count_nonzero(mask))
    if nv == 0:
        return 0.0, np.zeros((h, w)), np.zeros((h, w)), np.zeros((h, w, 2)), True
    pulled, ddx, ddy = plan.sample_grad(depth_t1)
    phi, dphi = charbonnier(depth_t - pulled, eps)
    inv = 1.0 / nv
    loss = float(np.sum(phi[mask])) * inv
    g = np.where(mask, dphi * inv, 0.0)
    neg = -g
    grad_rigid = np.stack([neg * ddx, neg * ddy], axis=-1)
    return loss, g, plan.scatter(neg), grad_rigid, False


def cross_task_loss(rigid: np.ndarray, flow: np.ndarray, mask: np.ndarray, eps: float = DEFAULT_L1_EPS):
    """Charbonnier gap between rigid flow and estimated flow over mask.

    Returns (loss, grad wrt rigid, grad wrt flow, degenerate flag).
    """
    rigid = np.asarray(rigid, dtype=float)
    flow = np.asarray(flow, dtype=float)
    if rigid.shape != flow.shape:
        raise ValueError("field sizes differ")
    nv = int(np.count_nonzero(mask))
    if nv == 0:
        return 0.0, np.zeros_like(rigid), np.zeros_like(flow), True
    ru = rigid[..., 0] - flow[..., 0]
    rv = rigid[..., 1] - flow[..., 1]
    phi_u, dphi_u = charbonnier(ru, eps)
    phi_v, dphi_v = charbonnier(rv, eps)
    inv = 1.0 / nv
    loss = float(np.sum((phi_u + phi_v)[mask])) * inv
    grad_rigid = np.stack(
        [np.where(mask, dphi_u * inv, 0.0), np.where(mask, dphi_v * inv, 0.0)], axis=-1
    )
    return loss, grad_rigid, -grad_rigid, False


@dataclass
class ScaleResult:
    """Per-level term values and gradients w.r.t. that level's inputs."""

    photometric: float
    smooth: float
    fb: float
    cross: float
    grad_depth_t: np.ndarray
    grad_depth_t1: np.ndarray
    grad_r_fwd: np.ndarray
    grad_t_fwd: np.ndarray
    grad_r_bwd: np.ndarray
    grad_t_bwd: np.ndarray
    grad_flow_fwd: np.ndarray
    grad_flow_bwd: np.ndarray
    masks: LevelMasks


def _photometric_pair(ref: np.ndarray, src: np.ndarray, branches, census: CensusParams):
    """The two photometric branches that share `ref` as census reference.

    Each branch (plan, mask, acc) warps `src` through the plan of its
    correspondence field and adds the gradient wrt that field into acc.
    Returns the two branch losses.
    """
    warps = [plan.sample_grad(src) for plan, _, _ in branches]
    pairs = [(val, mask) for (val, _, _), (_, mask, _) in zip(warps, branches)]
    found = _census_terms(ref, pairs, census)
    losses = []
    for term, (_, ddx, ddy), (_, _, acc) in zip(found, warps, branches):
        if term is None:
            losses.append(0.0)
            continue
        loss, grad_warped = term
        losses.append(loss)
        acc[..., 0] += grad_warped * ddx
        acc[..., 1] += grad_warped * ddy
    return losses


def scale_objective(
    img_t,
    img_t1,
    depth_t,
    depth_t1,
    pose_fwd: PoseSE3,
    pose_bwd: PoseSE3,
    flow_fwd,
    flow_bwd,
    k: Intrinsics,
    weights: LossWeights,
    census: CensusParams,
    fb_params: FBCheckParams,
    terms: frozenset = ALL_TERMS,
    masks: LevelMasks | None = None,
) -> ScaleResult:
    """Objective of a single pyramid level, both directions, with gradients.

    When `masks` is given the validity masks are taken as-is instead of being
    recomputed from the current state (needed by finite-difference checks,
    where the masks must stay frozen while the state moves).
    """
    gray_t = _gray(img_t)
    gray_t1 = _gray(img_t1)
    h, w = gray_t.shape
    flow_fwd = np.asarray(flow_fwd, dtype=float)
    flow_bwd = np.asarray(flow_bwd, dtype=float)
    rigid_f, cheir_f = rigid_flow(depth_t, k, pose_fwd)
    rigid_b, cheir_b = rigid_flow(depth_t1, k, pose_bwd)
    # one warp plan per correspondence field serves every term of the level
    plan_rf = WarpPlan.along(rigid_f)
    plan_rb = WarpPlan.along(rigid_b)
    plan_ff = WarpPlan.along(flow_fwd)
    plan_fb = WarpPlan.along(flow_bwd)
    # the fb cycle b(p + f(p)) of each flow direction feeds both its mask
    # and its loss; its loss pops it, so it is freed as soon as it is used
    cycles = {}
    if "fb_flow" in terms:
        cycles = {"fwd": plan_ff.sample_grad(flow_bwd), "bwd": plan_fb.sample_grad(flow_fwd)}
    if masks is None:
        back_f = cycles["fwd"][0] if cycles else plan_ff.sample(flow_bwd)
        back_b = cycles["bwd"][0] if cycles else plan_fb.sample(flow_fwd)
        back_rf = plan_rf.sample(rigid_b)
        back_rb = plan_rb.sample(rigid_f)
        masks = LevelMasks(
            depth_fwd=_cycle_mask(rigid_f, back_rf, plan_rf.inbounds, fb_params) & cheir_f,
            depth_bwd=_cycle_mask(rigid_b, back_rb, plan_rb.inbounds, fb_params) & cheir_b,
            flow_fwd=_cycle_mask(flow_fwd, back_f, plan_ff.inbounds, fb_params),
            flow_bwd=_cycle_mask(flow_bwd, back_b, plan_fb.inbounds, fb_params),
        )
        del back_f, back_b, back_rf, back_rb
    g_rigid_f = np.zeros((h, w, 2))
    g_rigid_b = np.zeros((h, w, 2))
    g_flow_f = np.zeros((h, w, 2))
    g_flow_b = np.zeros((h, w, 2))
    g_dt = np.zeros((h, w))
    g_dt1 = np.zeros((h, w))
    photometric = 0.0
    smooth = 0.0
    fb_total = 0.0
    cross = 0.0

    if "photometric" in terms:
        l1, l2 = _photometric_pair(
            gray_t,
            gray_t1,
            ((plan_rf, masks.depth_fwd, g_rigid_f), (plan_ff, masks.flow_fwd, g_flow_f)),
            census,
        )
        l3, l4 = _photometric_pair(
            gray_t1,
            gray_t,
            ((plan_rb, masks.depth_bwd, g_rigid_b), (plan_fb, masks.flow_bwd, g_flow_b)),
            census,
        )
        photometric = l1 + l2 + l3 + l4

    if "smooth" in terms:
        s1, gs1 = smoothness_loss(depth_t, img_t, mean_normalize=True)
        s2, gs2 = smoothness_loss(depth_t1, img_t1, mean_normalize=True)
        s3, gs3 = smoothness_loss(flow_fwd, img_t)
        s4, gs4 = smoothness_loss(flow_bwd, img_t1)
        smooth = s1 + s2 + s3 + s4
        g_dt += weights.lambda_s * gs1
        g_dt1 += weights.lambda_s * gs2
        g_flow_f += weights.lambda_s * gs3
        g_flow_b += weights.lambda_s * gs4

    if "fb_flow" in terms:
        lf, gf, gb, _ = _fb_flow_terms(flow_fwd, plan_ff, cycles.pop("fwd"), masks.flow_fwd)
        fb_total += lf
        g_flow_f += weights.lambda_f * gf
        g_flow_b += weights.lambda_f * gb
        lb, gb2, gf2, _ = _fb_flow_terms(flow_bwd, plan_fb, cycles.pop("bwd"), masks.flow_bwd)
        fb_total += lb
        g_flow_b += weights.lambda_f * gb2
        g_flow_f += weights.lambda_f * gf2
    # the plans are dead once their last term has run: freeing them keeps
    # the level's peak memory at the projection adjoint below that of the
    # per-term sampling they replace
    del plan_ff, plan_fb

    if "fb_depth" in terms:
        ld, gdt, gdt1, grig, _ = _fb_depth_terms(depth_t, depth_t1, plan_rf, masks.depth_fwd)
        fb_total += ld
        g_dt += weights.lambda_f * gdt
        g_dt1 += weights.lambda_f * gdt1
        g_rigid_f += weights.lambda_f * grig
        ld2, gdt1b, gdtb, grigb, _ = _fb_depth_terms(depth_t1, depth_t, plan_rb, masks.depth_bwd)
        fb_total += ld2
        g_dt1 += weights.lambda_f * gdt1b
        g_dt += weights.lambda_f * gdtb
        g_rigid_b += weights.lambda_f * grigb
    del plan_rf, plan_rb

    if "cross" in terms:
        m_f = intersect(masks.depth_fwd, masks.flow_fwd)
        m_b = intersect(masks.depth_bwd, masks.flow_bwd)
        lc, gr, gf, _ = cross_task_loss(rigid_f, flow_fwd, m_f)
        cross += lc
        g_rigid_f += weights.lambda_c * gr
        g_flow_f += weights.lambda_c * gf
        lc2, gr2, gf2, _ = cross_task_loss(rigid_b, flow_bwd, m_b)
        cross += lc2
        g_rigid_b += weights.lambda_c * gr2
        g_flow_b += weights.lambda_c * gf2

    # photometric branch gradients on rigid flow arrive unweighted; rescale
    # happens at accumulation sites above, so here only the chain through
    # the projection remains
    gd_f, gr_f, gt_f = project_backward(depth_t, k, pose_fwd, g_rigid_f[..., 0], g_rigid_f[..., 1])
    gd_b, gr_b, gt_b = project_backward(depth_t1, k, pose_bwd, g_rigid_b[..., 0], g_rigid_b[..., 1])
    g_dt += gd_f
    g_dt1 += gd_b
    return ScaleResult(
        photometric=photometric,
        smooth=smooth,
        fb=fb_total,
        cross=cross,
        grad_depth_t=g_dt,
        grad_depth_t1=g_dt1,
        grad_r_fwd=gr_f,
        grad_t_fwd=gt_f,
        grad_r_bwd=gr_b,
        grad_t_bwd=gt_b,
        grad_flow_fwd=g_flow_f,
        grad_flow_bwd=g_flow_b,
        masks=masks,
    )
