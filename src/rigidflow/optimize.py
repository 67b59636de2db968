"""Direct gradient-descent refinement of depth, pose, and flow.

`evaluate` runs the multi-scale objective and folds every per-level
gradient back onto the finest-level state (depth maps, 6 pose parameters,
both flow fields). `step` applies one Adam update in the raw parameter
space, where depth lives as log-depth so it stays positive. `refine` loops
the two with masks recomputed from the current state each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import (
    Intrinsics,
    invert,
    pose_from_params,
    pose_param_gradient,
    rigid_flow,
)
from .losses import (
    ALL_TERMS,
    CensusParams,
    LossReport,
    LossWeights,
    NonFiniteLossError,
    scale_objective,
)
from .masks import FBCheckParams
from .sampling import downsample_flow_adjoint, downsample_image_adjoint, flow_pyramid, image_pyramid

__all__ = [
    "SceneState",
    "StateGrad",
    "OptimizerConfig",
    "AdamMoments",
    "DivergenceError",
    "evaluate",
    "step",
    "refine",
    "make_initial_state",
]


class DivergenceError(RuntimeError):
    """Refinement lost its footing (non-finite loss). Carries the trace."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = trace


@dataclass
class SceneState:
    """Everything being optimized for one frame pair."""

    depth_t: np.ndarray
    depth_t1: np.ndarray
    pose_params: np.ndarray
    flow_fwd: np.ndarray
    flow_bwd: np.ndarray

    def __post_init__(self):
        self.depth_t = np.asarray(self.depth_t, dtype=float)
        self.depth_t1 = np.asarray(self.depth_t1, dtype=float)
        self.pose_params = np.asarray(self.pose_params, dtype=float)
        self.flow_fwd = np.asarray(self.flow_fwd, dtype=float)
        self.flow_bwd = np.asarray(self.flow_bwd, dtype=float)
        if self.depth_t.ndim != 2 or self.depth_t.shape != self.depth_t1.shape:
            raise ValueError("depth maps must be matching (H, W) arrays")
        h, w = self.depth_t.shape
        if self.flow_fwd.shape != (h, w, 2) or self.flow_bwd.shape != (h, w, 2):
            raise ValueError("flows must be (H, W, 2) matching the depths")
        if self.pose_params.shape != (6,):
            raise ValueError("pose_params must be a 6-vector")
        for name in ("depth_t", "depth_t1", "pose_params", "flow_fwd", "flow_bwd"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if not (np.all(self.depth_t > 0.0) and np.all(self.depth_t1 > 0.0)):
            raise ValueError("depth must be positive")

    def copy(self) -> "SceneState":
        return SceneState(
            self.depth_t.copy(),
            self.depth_t1.copy(),
            self.pose_params.copy(),
            self.flow_fwd.copy(),
            self.flow_bwd.copy(),
        )


@dataclass
class StateGrad:
    """Gradient of the total loss w.r.t. each SceneState component."""

    depth_t: np.ndarray
    depth_t1: np.ndarray
    pose_params: np.ndarray
    flow_fwd: np.ndarray
    flow_bwd: np.ndarray


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.99
    adam_eps: float = 1e-8
    iterations: int = 2000
    scales: int = 4
    cross_scales: int = 4
    scale_weights: tuple | None = None
    weights: LossWeights = LossWeights()
    census: CensusParams = CensusParams()
    fb_params: FBCheckParams = FBCheckParams()
    # totals below this are float noise: stepping on them would let the
    # normalized update sizes wander an already-converged state away
    converge_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if self.learning_rate <= 0.0 or self.adam_eps <= 0.0:
            raise ValueError("learning rate and adam_eps must be positive")
        if self.converge_tol < 0.0:
            raise ValueError("converge_tol must be nonnegative")
        if self.iterations < 0 or self.scales < 1:
            raise ValueError("iterations must be >= 0 and scales >= 1")
        if self.cross_scales < 0:
            raise ValueError(f"cross_scales must be >= 0, got {self.cross_scales}")
        if self.scale_weights is not None and len(self.scale_weights) != self.scales:
            n = len(self.scale_weights)
            raise ValueError(f"scale_weights needs one weight per scale ({self.scales}), got {n}")


_RAW_KEYS = ("log_depth_t", "log_depth_t1", "pose_params", "flow_fwd", "flow_bwd")


@dataclass
class AdamMoments:
    m: dict
    v: dict
    count: int = 0

    @classmethod
    def zeros(cls, state: SceneState) -> "AdamMoments":
        shapes = {
            "log_depth_t": state.depth_t,
            "log_depth_t1": state.depth_t1,
            "pose_params": state.pose_params,
            "flow_fwd": state.flow_fwd,
            "flow_bwd": state.flow_bwd,
        }
        return cls(
            m={k: np.zeros_like(v) for k, v in shapes.items()},
            v={k: np.zeros_like(v) for k, v in shapes.items()},
            count=0,
        )


def _grad_to_raw(state: SceneState, grad: StateGrad) -> dict:
    # d/d(log d) = d * d/dd
    return {
        "log_depth_t": grad.depth_t * state.depth_t,
        "log_depth_t1": grad.depth_t1 * state.depth_t1,
        "pose_params": grad.pose_params,
        "flow_fwd": grad.flow_fwd,
        "flow_bwd": grad.flow_bwd,
    }


def evaluate(
    state: SceneState,
    img_t: np.ndarray,
    img_t1: np.ndarray,
    k: Intrinsics,
    cfg: OptimizerConfig = OptimizerConfig(),
    masks=None,
    terms: frozenset = ALL_TERMS,
    want_grads: bool = True,
):
    """Full objective and state gradient: the one entry point of the objective.

    Inputs live at the finest level; each coarser level is built by 2x2
    average pooling (flow displacements halved to stay in level units) and
    evaluated natively with correspondingly scaled intrinsics. The
    cross-task term runs on the finest `cfg.cross_scales` levels only.

    Returns (LossReport, StateGrad or None, per-level masks); the gradient
    is None when `want_grads` is False. Passing `masks` (as returned by a
    previous call) freezes the validity masks so the objective is smooth in
    the state; by default they are recomputed. Raises NonFiniteLossError
    naming the term that went bad.
    """
    scales = cfg.scales
    if masks is not None and len(masks) != scales:
        raise ValueError("masks must cover every scale")
    for name, arr in (("img_t", img_t), ("img_t1", img_t1)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
    h, w = state.depth_t.shape
    if scales > 1 and min(h, w) <= 2 ** (scales - 1):
        raise ValueError(
            f"scales={scales} needs both image sides above {2 ** (scales - 1)}, "
            f"got {h}x{w}: the coarsest level would have a side of 1"
        )
    sw = list(cfg.scale_weights) if cfg.scale_weights else [1.0] * scales
    imgs_t = image_pyramid(img_t, scales)
    imgs_t1 = image_pyramid(img_t1, scales)
    depths_t = image_pyramid(state.depth_t, scales)
    depths_t1 = image_pyramid(state.depth_t1, scales)
    flows_f = flow_pyramid(state.flow_fwd, scales)
    flows_b = flow_pyramid(state.flow_bwd, scales)
    pose = pose_from_params(state.pose_params)
    pose_bwd = invert(pose)
    ks = [k]
    for _ in range(scales - 1):
        ks.append(ks[-1].scaled_down())
    photometric = 0.0
    smooth = 0.0
    fb_total = 0.0
    cross = 0.0
    results = []
    for lvl in range(scales):
        res = scale_objective(
            imgs_t[lvl],
            imgs_t1[lvl],
            depths_t[lvl],
            depths_t1[lvl],
            pose,
            pose_bwd,
            flows_f[lvl],
            flows_b[lvl],
            ks[lvl],
            cfg.weights,
            cfg.census,
            cfg.fb_params,
            terms=terms if lvl < cfg.cross_scales else terms - {"cross"},
            masks=None if masks is None else masks[lvl],
        )
        photometric += sw[lvl] * res.photometric
        smooth += sw[lvl] * res.smooth
        fb_total += sw[lvl] * res.fb
        cross += sw[lvl] * res.cross
        results.append(res)
    weights = cfg.weights
    total = (
        photometric
        + weights.lambda_s * smooth
        + weights.lambda_f * fb_total
        + weights.lambda_c * cross
    )
    for name, value in (
        ("photometric", photometric),
        ("smooth", smooth),
        ("forward_backward", fb_total),
        ("cross", cross),
        ("total", total),
    ):
        if not np.isfinite(value):
            raise NonFiniteLossError(name, value)
    report = LossReport(photometric, smooth, fb_total, cross, total)
    masks_used = [r.masks for r in results]
    if not want_grads:
        return report, None, masks_used

    def fold(per_level, adjoint):
        acc = sw[-1] * per_level[-1]
        for lvl in range(len(per_level) - 2, -1, -1):
            acc = sw[lvl] * per_level[lvl] + adjoint(acc, per_level[lvl].shape[:2])
        return acc

    grad = StateGrad(
        depth_t=fold([r.grad_depth_t for r in results], downsample_image_adjoint),
        depth_t1=fold([r.grad_depth_t1 for r in results], downsample_image_adjoint),
        pose_params=pose_param_gradient(
            state.pose_params,
            sum(w * r.grad_r_fwd for w, r in zip(sw, results)),
            sum(w * r.grad_t_fwd for w, r in zip(sw, results)),
            sum(w * r.grad_r_bwd for w, r in zip(sw, results)),
            sum(w * r.grad_t_bwd for w, r in zip(sw, results)),
        ),
        flow_fwd=fold([r.grad_flow_fwd for r in results], downsample_flow_adjoint),
        flow_bwd=fold([r.grad_flow_bwd for r in results], downsample_flow_adjoint),
    )
    return report, grad, masks_used


def step(
    state: SceneState,
    grad: StateGrad,
    moments: AdamMoments,
    cfg: OptimizerConfig = OptimizerConfig(),
):
    """One Adam update. Returns (new state, new moments); inputs untouched."""
    graw = _grad_to_raw(state, grad)
    t = moments.count + 1
    lr = cfg.learning_rate
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    new_m = {}
    new_v = {}
    updates = {}
    for key in _RAW_KEYS:
        g = graw[key]
        m = b1 * moments.m[key] + (1.0 - b1) * g
        v = b2 * moments.v[key] + (1.0 - b2) * g * g
        updates[key] = lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)
        new_m[key] = m
        new_v[key] = v
    # log-space depth updates applied multiplicatively: exp(log d - u) written
    # as d * exp(-u) so a zero update leaves the state bit-identical
    new_state = SceneState(
        depth_t=state.depth_t * np.exp(-updates["log_depth_t"]),
        depth_t1=state.depth_t1 * np.exp(-updates["log_depth_t1"]),
        pose_params=state.pose_params - updates["pose_params"],
        flow_fwd=state.flow_fwd - updates["flow_fwd"],
        flow_bwd=state.flow_bwd - updates["flow_bwd"],
    )
    return new_state, AdamMoments(new_m, new_v, t)


def refine(
    img_t: np.ndarray,
    img_t1: np.ndarray,
    k: Intrinsics,
    init_state: SceneState,
    cfg: OptimizerConfig = OptimizerConfig(),
    callback=None,
):
    """Run `iterations` Adam steps from init_state.

    Masks are recomputed from the current state every iteration. Returns
    (final state, trace) where trace[i] is the LossReport at the state
    before step i plus one final entry for the final state
    (len = iterations + 1). Iterations whose total is already below
    cfg.converge_tol leave the state untouched. Raises DivergenceError,
    with the partial trace attached, if the loss goes non-finite or an
    update leaves the feasible set.
    """
    state = init_state.copy()
    moments = AdamMoments.zeros(state)
    trace = []
    for it in range(cfg.iterations + 1):
        try:
            report, grad, _ = evaluate(state, img_t, img_t1, k, cfg, want_grads=it < cfg.iterations)
        except NonFiniteLossError as exc:
            raise DivergenceError(f"diverged at iteration {it}: {exc}", trace) from exc
        trace.append(report)
        if callback is not None:
            callback(it, state, report)
        if it == cfg.iterations:
            break
        if report.total < cfg.converge_tol:
            continue
        try:
            state, moments = step(state, grad, moments, cfg)
        except ValueError as exc:
            # the update left the feasible set (e.g. depth underflowed to 0,
            # or a field went non-finite)
            raise DivergenceError(f"diverged at iteration {it}: {exc}", trace) from exc
    return state, trace


def make_initial_state(
    gt,
    rng: np.random.Generator,
    depth_noise: float = 0.2,
    pose_noise: float = 0.0,
    flow_noise: float = 0.0,
    flow_init: str = "rigid",
) -> SceneState:
    """Perturbed-ground-truth starting point for refinement experiments.

    depth_noise d multiplies true depth per pixel by U[1-d, 1+d];
    pose_noise is additive uniform on the 6 parameters; flow_init 'rigid'
    synthesizes flows from the perturbed depth and pose (self-consistent
    start), 'gt' copies the true flows; flow_noise adds per-pixel uniform
    noise on top of either.
    """
    from .camera import params_from_pose

    h, w = gt.depth_t.shape
    depth_t = gt.depth_t * rng.uniform(1.0 - depth_noise, 1.0 + depth_noise, size=(h, w))
    depth_t1 = gt.depth_t1 * rng.uniform(1.0 - depth_noise, 1.0 + depth_noise, size=(h, w))
    pose_params = params_from_pose(gt.pose)
    if pose_noise > 0.0:
        pose_params = pose_params + rng.uniform(-pose_noise, pose_noise, size=6)
    if flow_init == "rigid":
        pose = pose_from_params(pose_params)
        flow_fwd, _ = rigid_flow(depth_t, gt.intrinsics, pose)
        flow_bwd, _ = rigid_flow(depth_t1, gt.intrinsics, invert(pose))
    elif flow_init == "gt":
        flow_fwd = gt.flow_fwd.copy()
        flow_bwd = gt.flow_bwd.copy()
    else:
        raise ValueError("flow_init must be 'rigid' or 'gt'")
    if flow_noise > 0.0:
        flow_fwd = flow_fwd + rng.uniform(-flow_noise, flow_noise, size=(h, w, 2))
        flow_bwd = flow_bwd + rng.uniform(-flow_noise, flow_noise, size=(h, w, 2))
    return SceneState(depth_t, depth_t1, pose_params, flow_fwd, flow_bwd)
