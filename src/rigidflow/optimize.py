"""Direct gradient-descent refinement of depth, pose, and flow.

`evaluate` runs the multi-scale objective and folds every per-level
gradient back onto the finest-level state (depth maps, 6 pose parameters,
both flow fields). `step` applies one Adam update in the raw parameter
space, where depth lives as log-depth so it stays positive. `refine` loops
the two on one `PairContext` and recomputes the masks every iteration.

Buffers: the context owns a `sampling.Workspace`, and the objective and the
Adam step of `refine` write every array whose size follows the state into
it, so iterations after the first allocate only the next state's arrays.
What `refine` hands out is never one of those buffers: each state is new,
and its moments stay inside. `evaluate` keeps the context of its last call
for the next one (its docstring has the slot policy), and `step` copies the
moments it updates and leaves its inputs untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._checks import check_fields
from .camera import (
    Intrinsics,
    _pixels,
    invert,
    pose_from_params,
    pose_param_gradient,
    rigid_flow,
    rodrigues,
)
from .losses import (
    ALL_TERMS,
    MEAN_FLOOR,
    CensusParams,
    LevelInputs,
    LossReport,
    LossWeights,
    NonFiniteLossError,
    _block_entries,
    _census_reference,
    _census_squares,
    edge_weights,
    scale_objective,
)
from .masks import FBCheckParams
from .sampling import Workspace, pyramid, pyramid_adjoint

__all__ = [
    "SceneState",
    "StateGrad",
    "OptimizerConfig",
    "AdamMoments",
    "PairContext",
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
        # row-major, whatever the layout of the input (`rigid_flow` returns a
        # channel-last view of planar memory), so the Adam step's arrays agree
        self.flow_fwd = np.ascontiguousarray(self.flow_fwd, dtype=float)
        self.flow_bwd = np.ascontiguousarray(self.flow_bwd, dtype=float)
        self.check()

    def check(self) -> None:
        """Raise ValueError naming the malformed field and, for a wrong size,
        the shape found, for a depth mean too small to normalize by, the
        mean, and for a depth, flow or rotation too large to square, its
        largest value or magnitude.
        `evaluate` calls this again, since the arrays can be changed in place
        after construction; `refine` calls it once per state it evaluates."""
        if self.depth_t.ndim != 2:
            raise ValueError(f"depth_t must be (H, W), got shape {self.depth_t.shape}")
        h, w = self.depth_t.shape
        for name, shape in (("depth_t1", (h, w)), ("flow_fwd", (h, w, 2)), ("flow_bwd", (h, w, 2))):
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape} to match depth_t")
        if self.pose_params.shape != (6,):
            raise ValueError(f"pose_params must be a 6-vector, got shape {self.pose_params.shape}")
        # each field's smallest and largest value, read once: NaN and +-inf
        # reach one of them, and they bound every check below
        bounds = {}
        for name in ("depth_t", "depth_t1", "pose_params", "flow_fwd", "flow_bwd"):
            a = getattr(self, name)
            lo, hi = bounds[name] = a.min(), a.max()
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} must be finite")
        for name in ("depth_t", "depth_t1"):
            depth = getattr(self, name)
            lo, top = bounds[name]
            if not lo > 0.0:
                raise ValueError(f"{name} must be positive")
            # the depth smoothness divides each level by its mean
            mean = np.add.reduce(depth, None) / depth.size
            if mean < MEAN_FLOOR:
                raise ValueError(f"{name} has mean {mean:.6g}, below the {MEAN_FLOOR:g} the depth smoothness needs")
            # and its gradient divides by size * mean**2, which a mean above
            # sqrt(max float / size) overflows; the largest value bounds the mean
            ceiling = math.sqrt(np.finfo(float).max / depth.size)
            if top > ceiling:
                raise ValueError(
                    f"{name} has a largest value of {top:.6g}, "
                    f"above the {ceiling:.6g} the depth smoothness can square at {h}x{w}"
                )
        # the fb check's ru * ru + rv * rv, ru and rv each a sum of two flows,
        # stays finite while no flow has a magnitude above sqrt(max float / 8)
        ceiling = math.sqrt(np.finfo(float).max / 8)
        for name in ("flow_fwd", "flow_bwd"):
            lo, hi = bounds[name]
            top = max(hi, -lo)  # np.abs(flow).max()
            if top > ceiling:
                raise ValueError(
                    f"{name} has a largest magnitude of {top:.6g}, above the {ceiling:.6g} the fb check can square"
                )
        # rodrigues squares the rotation, w @ w, which stays finite while no
        # component is above sqrt(max float / 3)
        ceiling = math.sqrt(np.finfo(float).max / 3)
        top = float(np.abs(self.pose_params[:3]).max())
        if top > ceiling:
            raise ValueError(
                f"pose_params has a rotation component of magnitude {top:.6g}, "
                f"above the {ceiling:.6g} the rotation angle can square"
            )

    def copy(self) -> "SceneState":
        return _copied(self)


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
        # each message starts with the field's name; config keys use the same names
        check_fields(self, ("beta1", "beta2"), lambda v: 0.0 <= v < 1.0, "in [0, 1)")
        check_fields(self, ("learning_rate", "adam_eps"), lambda v: v > 0.0, "positive")
        check_fields(self, ("iterations", "cross_scales", "converge_tol"), lambda v: v >= 0, ">= 0")
        check_fields(self, ("scales",), lambda v: v >= 1, ">= 1")
        if self.scale_weights is not None and len(self.scale_weights) != self.scales:
            n = len(self.scale_weights)
            raise ValueError(f"scale_weights needs one weight per scale ({self.scales}), got {n}")


@dataclass
class AdamMoments:
    m: dict
    v: dict
    count: int = 0

    @classmethod
    def zeros(cls, state: SceneState) -> "AdamMoments":
        """Zero moments for each raw parameter of state (`_RAW_FIELDS`)."""
        m, v = ({key: np.zeros_like(getattr(state, name)) for key, (name, _) in _RAW_FIELDS.items()} for _ in range(2))
        return cls(m, v)


def _check_masks(masks, sizes) -> None:
    """Raise ValueError naming the frozen mask that is not a bool array of
    its level's (H, W); a level given as None is recomputed."""
    for lvl, (level, (h, w)) in enumerate(zip(masks, sizes)):
        if level is None:
            continue
        for f in fields(level):
            arr = np.asarray(getattr(level, f.name))
            name = f"masks[{lvl}].{f.name}"
            if arr.shape != (h, w):
                size = "x".join(map(str, arr.shape))
                raise ValueError(f"{name} is {size} but level {lvl} is {h}x{w}")
            if arr.dtype != bool:
                raise ValueError(f"{name} must be a bool array, got {arr.dtype}")


class PairContext:
    """What the objective reads of one frame pair that the state does not
    change: `levels[lvl]` holds the `LevelInputs` of pyramid level lvl of
    `cfg.scales` (gray images, edge weights, intrinsics, the census
    reference descriptors of both frames for `cfg.census`, and the pixel
    grid and its rays). `refine` builds one for all its iterations, and
    `evaluate` keeps its last one (the slot policy is in its docstring).
    Each frame is pooled as its planar (C, H, W) view, (1, H, W)
    for a gray (H, W) one. Raises ValueError naming an image that is not
    (H, W) or (H, W, C), not real, not of `shape`, the state's (H, W), not
    finite, too large for the sums of its pyramid and gray mean, or whose
    values span a range the census cannot square (the magnitude or range
    found), and when `shape` is too small for the pyramid.

    `ws` is the pair's workspace: `_objective` and `_adam` keep every array
    whose size follows the state there, so a refine allocates them once.
    """

    def __init__(self, img_t: np.ndarray, img_t1: np.ndarray, k: Intrinsics, cfg: OptimizerConfig, shape):
        h, w = shape
        if cfg.scales > 1 and min(h, w) <= 2 ** (cfg.scales - 1):
            raise ValueError(
                f"scales={cfg.scales} needs both image sides above {2 ** (cfg.scales - 1)}, "
                f"got {h}x{w}: the coarsest level would have a side of 1"
            )
        frames = []
        for name, img in (("img_t", img_t), ("img_t1", img_t1)):
            if np.ndim(img) not in (2, 3):
                raise ValueError(f"{name} must be (H, W) or (H, W, C)")
            if np.iscomplexobj(img):
                raise ValueError(f"{name} must be real, got {np.asarray(img).dtype}")
            img = np.asarray(img, dtype=float)
            if img.shape[:2] != (h, w):
                raise ValueError(f"{name} is {img.shape[0]}x{img.shape[1]} but the state is {h}x{w}")
            lo, hi = float(img.min()), float(img.max())  # NaN and +-inf reach one of them
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} must be finite")
            # the largest sums the context takes: the 2x2 pool adds four
            # values, the gray mean the C channels
            top, ceiling = max(hi, -lo), np.finfo(float).max / max(4, np.atleast_3d(img).shape[2])
            if top > ceiling:
                raise ValueError(
                    f"{name} has a largest magnitude of {top:.6g}, "
                    f"above the {ceiling:.6g} its pyramid and gray mean can sum"
                )
            if not _census_squares(hi - lo, cfg.census):
                raise ValueError(f"{name} has a value range of {hi - lo:.6g}, too wide for the census to square")
            # the planar view of the frame's channel-last memory: no copy
            frames.append(pyramid(np.moveaxis(np.atleast_3d(img), -1, 0), cfg.scales))
        self.levels = []
        for pair in zip(*frames):
            h, w = pair[0].shape[-2:]
            # each frame's gray image and edge weights, written into its side
            gray, wx, wy = np.empty((2, h, w)), np.empty((2, h, w - 1)), np.empty((2, h - 1, w))
            for level, g, ex, ey in zip(pair, gray, wx, wy):
                np.mean(level, axis=0, out=g)
                ex[...], ey[...] = edge_weights(level)
            descriptors = _census_reference(gray, cfg.census)
            self.levels.append(LevelInputs(gray, (wx, wy), k, cfg.census, descriptors, _pixels(h, w, k)))
            k = k.scaled_down()
        self.ws = Workspace()


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

    Returns (LossReport, StateGrad or None, per-level masks). With
    `want_grads` False no level does any gradient work and the gradient is
    None; the report and masks are the same to the bit. Passing `masks` (as
    returned by a previous call) freezes the validity masks so the objective
    is smooth in the state; by default they are recomputed. Raises ValueError
    naming a malformed state field, image or frozen mask, and
    NonFiniteLossError naming the term that went bad.

    The `PairContext` of the last call (its levels, its workspace and the
    bytes of its frames) stays in a module-level slot until the next call,
    which runs on it if its frames have the same bytes and its intrinsics,
    `cfg.scales`, `cfg.census` and state size are the same, so a run of
    calls on one frame pair builds the image-only inputs once and sizes the
    workspace on its second call. A call on other frames or settings builds
    a context, returns the arrays of its workspace and leaves the context in
    the slot with an empty workspace: about 1 MiB of gray images, edge
    weights and frame bytes at 129x97, and the census reference descriptors,
    about 1.1 MiB more at 129x97 and 5.6 MiB at 256x256 (radius 1). A call
    on the slot's frames returns copies of the gradient and of the masks it
    recomputed and keeps the workspace, 6.2 MiB more at 129x97 forward,
    4.3 MiB of it ever written.
    Either way the frozen masks given are returned as they are, and no two
    results share memory.
    """
    shape = state.depth_t.shape[:2]
    key = _pair_key(img_t, img_t1, k, cfg, shape)
    try:
        spare_key, ctx = _spare.pop()
    except IndexError:
        spare_key = ctx = None
    hit = key is not None and key == spare_key
    del spare_key
    if not hit:
        ctx = None  # the spare's memory goes before the new context is built
        ctx = PairContext(img_t, img_t1, k, cfg, shape)
    mark = ctx.ws.mark()
    try:
        if masks is not None and len(masks) != cfg.scales:
            raise ValueError(f"masks has {len(masks)} levels but scales is {cfg.scales}")
        state.check()
        report, grad, used = _objective(state, ctx, cfg, masks, terms, want_grads)
        if hit:
            given = [None] * cfg.scales if masks is None else masks
            used = [_copied(m) if g is None else m for m, g in zip(used, given)]
            grad = None if grad is None else _copied(grad)
        return report, grad, used
    finally:
        if hit:
            ctx.ws.release(mark)
        else:
            # what is returned keeps the workspace it was written into
            ctx.ws = Workspace()
        _spare[:] = [(key, ctx)]


# the (key, context) of the last `evaluate`; a call pops it while it runs
# (atomic under the GIL), so two threads, or an `evaluate` inside a `refine`
# callback, never share a workspace
_spare = []


def _copied(arrays):
    """A dataclass of arrays (a SceneState, StateGrad or LevelMasks) with each array copied."""
    return type(arrays)(*(getattr(arrays, f.name).copy() for f in fields(arrays)))


def _pair_key(img_t, img_t1, k: Intrinsics, cfg: OptimizerConfig, shape):
    """What a `PairContext` is built from: each frame's dtype, shape and
    bytes (its bits, so -0 is not +0), the intrinsics' bits, the pyramid
    depth, the census settings and the state's (H, W). None, which matches
    nothing, for a frame of Python objects, whose bytes are pointers."""
    frames = [np.asarray(img) for img in (img_t, img_t1)]
    if any(f.dtype.hasobject for f in frames):
        return None
    bits = np.array([k.fx, k.fy, k.cx, k.cy], dtype=float).tobytes()
    return (*((f.dtype.str, f.shape, f.tobytes()) for f in frames), bits, cfg.scales, cfg.census, shape)


def _objective(state: SceneState, ctx: PairContext, cfg: OptimizerConfig, masks, terms, want_grads):
    """`evaluate` on the image-only inputs of ctx, built with the same cfg.

    Every array it writes is taken from ctx.ws's stack above the caller's
    mark: the depth and flow pyramids first, then each level's result, whose
    gradients the fold overwrites, and the gradient's flows last. The
    returned gradient and recomputed masks stay valid until the caller
    releases to its mark. The state is only read, and not checked:
    `evaluate` checks it, and `refine` evaluates only states it has checked
    (see there)."""
    scales = cfg.scales
    sw = list(cfg.scale_weights) if cfg.scale_weights else [1.0] * scales
    if masks is not None:
        _check_masks(masks, [level.gray[0].shape for level in ctx.levels])
    # the context builds every level's census descriptors for one setting
    census = ctx.levels[0].census
    if cfg.census != census:
        raise ValueError(f"the level's census descriptors are for {census}, not {cfg.census}")
    ws = ctx.ws
    depths, flows = ([ws.take(lead + level.gray.shape[1:]) for level in ctx.levels] for lead in ((2,), (2, 2)))
    # per level, the stacked (side 0, side 1) depths (2, h, w) and planar
    # flows (2, 2, h, w), [component, side]: one row-major copy of the state's
    # on entry (a plain `np.stack` keeps the flows' channel-last order)
    pyramid(np.stack((state.depth_t, state.depth_t1), out=depths[0]), scales, out=depths[1:])
    planar = [np.moveaxis(f, -1, 0) for f in (state.flow_fwd, state.flow_bwd)]
    pyramid(np.stack(planar, axis=1, out=flows[0]), scales, 0.5, out=flows[1:])
    # the pose and its inverse as `pose_from_params` and `invert` build them,
    # without a `PoseSE3` to build and validate, and their entries per block
    p = state.pose_params
    r, t = rodrigues(p[:3]), p[3:].copy()
    rt = r.T
    sides = (r, t), (rt.copy(), -(rt @ t))
    entries = _block_entries(sides, [level.gray.shape[1:] for level in ctx.levels])
    photometric = smooth = fb_total = cross = 0.0
    results = []
    for lvl in range(scales):
        res = scale_objective(
            ctx.levels[lvl],
            depths[lvl],
            entries,
            flows[lvl],
            cfg.weights,
            cfg.fb_params,
            ws,
            terms=terms if lvl < cfg.cross_scales else terms - {"cross"},
            masks=None if masks is None else masks[lvl],
            grads=want_grads,
        )
        photometric += sw[lvl] * res.photometric
        smooth += sw[lvl] * res.smooth
        fb_total += sw[lvl] * res.fb
        cross += sw[lvl] * res.cross
        results.append(res)
    weights = cfg.weights
    total = photometric + weights.lambda_s * smooth + weights.lambda_f * fb_total + weights.lambda_c * cross
    report = LossReport(photometric, smooth, fb_total, cross, total)
    for name, value in vars(report).items():  # photometric, ..., total
        if not np.isfinite(value):
            raise NonFiniteLossError(name, value)
    masks_used = [r.masks for r in results]
    if not want_grads:
        return report, None, masks_used

    # the level gradients are the context's and dead after their fold, which
    # overwrites them
    depth = pyramid_adjoint([r.grad_depth for r in results], sw, ws=ws)
    flow = pyramid_adjoint([r.grad_flow for r in results], sw, 0.5, ws=ws)
    # the (rotation, translation) gradient of the forward pose, then of its inverse
    pose_grads = [
        sum(w * r.grad_pose[side][i] for w, r in zip(sw, results)) for side in (0, 1) for i in (0, 1)
    ]
    # the flows fold planar; one copy of each turns it back to the state's (H, W, 2)
    flow_fwd, flow_bwd = [ws.take(state.flow_fwd.shape) for _ in (0, 1)]
    for side, out in enumerate((flow_fwd, flow_bwd)):
        np.copyto(out, np.moveaxis(flow[:, side], 0, -1))
    grad = StateGrad(
        depth_t=depth[0],
        depth_t1=depth[1],
        pose_params=pose_param_gradient(state.pose_params, r, *pose_grads),
        flow_fwd=flow_fwd,
        flow_bwd=flow_bwd,
    )
    return report, grad, masks_used


# each raw parameter: its state field, and whether it lives as log-depth
_RAW_FIELDS = {
    "log_depth_t": ("depth_t", True),
    "log_depth_t1": ("depth_t1", True),
    "pose_params": ("pose_params", False),
    "flow_fwd": ("flow_fwd", False),
    "flow_bwd": ("flow_bwd", False),
}


def step(
    state: SceneState,
    grad: StateGrad,
    moments: AdamMoments,
    cfg: OptimizerConfig = OptimizerConfig(),
):
    """One Adam update. Returns (new state, new moments); inputs untouched."""
    m, v = ({key: a.copy() for key, a in d.items()} for d in (moments.m, moments.v))
    moments = AdamMoments(m, v, moments.count)
    return _adam(state, grad, moments, cfg, Workspace()), moments


def _adam(state: SceneState, grad: StateGrad, moments: AdamMoments, cfg: OptimizerConfig, ws: Workspace) -> SceneState:
    """`step` with the moments updated in place (its count too) and every
    temporary in ws; returns the new state, whose arrays are new."""
    t = moments.count + 1
    lr = cfg.learning_rate
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    new = {}
    for key, (name, log) in _RAW_FIELDS.items():
        x, g = getattr(state, name), getattr(grad, name)
        mark = ws.mark()
        raw, tmp, update = [ws.take(x.shape) for _ in range(3)]
        if log:  # d/d(log d) = d * d/dd
            g = np.multiply(g, x, out=raw)
        m, v = moments.m[key], moments.v[key]
        # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=tmp)
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v += tmp
        # update = lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=update)
        update *= lr
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += cfg.adam_eps
        update /= tmp
        if log:
            # log-space depth updates applied multiplicatively: exp(log d - u)
            # written as d * exp(-u) so a zero update leaves the state bit-identical
            new[name] = x * np.exp(np.negative(update, out=update), out=update)
        else:
            new[name] = x - update
        ws.release(mark)
    moments.count = t
    return SceneState(**new)


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

    Each state is checked once: the copy of init_state and each step's new
    state when built, a state a skipped step keeps after the callback saw it.
    """
    ctx = PairContext(img_t, img_t1, k, cfg, init_state.depth_t.shape[:2])
    state = init_state.copy()
    moments = AdamMoments.zeros(state)  # updated in place by every step
    trace = []
    base = ctx.ws.mark()
    for it in range(cfg.iterations + 1):
        ctx.ws.release(base)  # the previous iteration's gradient
        try:
            report, grad, _ = _objective(state, ctx, cfg, None, ALL_TERMS, it < cfg.iterations)
        except NonFiniteLossError as exc:
            raise DivergenceError(f"diverged at iteration {it}: {exc}", trace) from exc
        trace.append(report)
        if callback is not None:
            callback(it, state, report)
        if it == cfg.iterations:
            break
        if report.total < cfg.converge_tol:
            # the next iteration evaluates this state again, which the
            # callback may have changed in place
            state.check()
            continue
        try:
            state = _adam(state, grad, moments, cfg, ctx.ws)
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
