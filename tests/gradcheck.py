"""Finite-difference harness for the analytic loss gradients.

Builds small random general-position states (nothing integer, residuals away
from the charbonnier and bilinear kinks), isolates one loss term at a time
through evaluate(terms=...), freezes the validity masks, and compares each
analytic gradient entry against a central difference of the scalar loss.
"""

from dataclasses import dataclass

import numpy as np

from rigidflow.camera import Intrinsics, invert, pose_from_params, rigid_flow
from rigidflow.losses import CensusParams, LossWeights
from rigidflow.masks import FBCheckParams
from rigidflow.optimize import OptimizerConfig, SceneState, evaluate

TERMS = ("photometric", "smooth", "fb_flow", "fb_depth", "cross")
WRTS = ("depth", "pose", "flow")

# wider soft-sign and charbonnier scales than the defaults so the smooth
# neighborhood around each census residual comfortably contains the h = 1e-4
# stencil even when a pose perturbation moves every sample at fx px/unit
SUITE_CENSUS = CensusParams(radius=1, epsilon=0.08, charbonnier_eps=0.05)


def suite_cfg() -> OptimizerConfig:
    # unit weights make report.total equal the raw isolated term value; the
    # huge fb tolerance keeps every in-bounds pixel in the masks (the scenes
    # deliberately hold fb residuals O(1), away from the charbonnier kink,
    # which a consistency threshold meant for real scenes would reject)
    return OptimizerConfig(
        scales=1,
        census=SUITE_CENSUS,
        weights=LossWeights(1.0, 1.0, 1.0),
        fb_params=FBCheckParams(alpha1=0.01, alpha2=1000.0),
    )


@dataclass
class GradScene:
    img_t: np.ndarray
    img_t1: np.ndarray
    state: SceneState
    k: Intrinsics


def _bilinear_field(rng, h, w, base, span, twist):
    """Random surface c0 + c1*x + c2*y + c3*x*y on unit-normalized coords.

    Bilinear interpolation reproduces such a surface exactly, so resampling
    it anywhere is globally smooth: the integer-lattice derivative kinks that
    break an h = 1e-4 central difference (a pose perturbation sweeps every
    sample coordinate by ~fx*h at once) vanish identically. Slopes are drawn
    sign-fixed and larger than the twist, keeping neighbor differences
    monotone and clear of the charbonnier curvature region.
    """
    ys, xs = np.mgrid[0:h, 0:w]
    xn = xs / (w - 1.0)
    yn = ys / (h - 1.0)
    c1, c2 = rng.uniform(*span, 2)
    c3 = rng.uniform(-twist, twist)
    return base + c1 * xn + c2 * yn + c3 * xn * yn


def random_scene(seed: int, h: int = 16, w: int = 16) -> GradScene:
    """General-position scene: bilinear fields, residuals bounded from 0.

    Flows are rigid flow plus a sign-fixed offset of magnitude >= 0.3 (cross
    and forward-backward flow residuals never change sign under an FD
    stencil) and the two depth maps live in disjoint ranges (the depth
    reprojection residual keeps one sign everywhere).
    """
    rng = np.random.default_rng(seed)
    pose_params = np.concatenate(
        [
            rng.normal(0.0, 0.004, 3),
            rng.choice([-1.0, 1.0], 2) * rng.uniform(0.08, 0.15, 2),
            rng.uniform(-0.03, 0.03, 1),
        ]
    )
    depth_t = _bilinear_field(rng, h, w, 3.6, (0.45, 0.55), 0.1)
    depth_t1 = _bilinear_field(rng, h, w, 5.4, (0.45, 0.55), 0.1)
    k = Intrinsics(12.0, 12.0, (w - 1) / 2.0, (h - 1) / 2.0)
    pose = pose_from_params(pose_params)
    rigid_f, _ = rigid_flow(depth_t, k, pose)
    rigid_b, _ = rigid_flow(depth_t1, k, invert(pose))
    signs = rng.choice([-1.0, 1.0], size=2)

    def offset():
        return np.stack(
            [s * _bilinear_field(rng, h, w, 0.3, (0.8, 1.1), 0.1) for s in signs], axis=-1
        )

    state = SceneState(
        depth_t=depth_t,
        depth_t1=depth_t1,
        pose_params=pose_params,
        flow_fwd=rigid_f + offset(),
        flow_bwd=rigid_b + offset(),
    )
    return GradScene(
        img_t=_bilinear_field(rng, h, w, 0.2, (0.25, 0.45), 0.15),
        img_t1=_bilinear_field(rng, h, w, 0.2, (0.25, 0.45), 0.15),
        state=state,
        k=k,
    )


def _perturbed(state: SceneState, field: str, index, delta: float) -> SceneState:
    out = state.copy()
    getattr(out, field)[index] += delta
    return out


def check_block(
    scene: GradScene,
    cfg: OptimizerConfig,
    term: str,
    wrt: str,
    n_coords: int,
    rng,
    h: float = 1e-4,
    floor: float = 1e-8,
):
    """Max relative error of analytic vs central-FD over sampled coordinates.

    Masks are frozen from the base state so the objective is differentiable
    in the state; the error scale is max(|analytic|, |fd|, floor), the floor
    covering structurally zero blocks. `cfg` should keep unit loss weights
    and a lax fb check, as `suite_cfg` does. Returns (worst relative error,
    largest |analytic| seen) so callers can tell a passing block from an
    empty one.
    """
    terms = frozenset({term})
    args = (scene.img_t, scene.img_t1, scene.k)
    _, grad, masks = evaluate(scene.state, *args, cfg, terms=terms)

    def total_at(state):
        rep, _, _ = evaluate(state, *args, cfg, masks=masks, terms=terms, want_grads=False)
        return rep.total

    hgt, wid = scene.state.depth_t.shape
    worst = 0.0
    largest = 0.0
    for _ in range(n_coords):
        if wrt == "depth":
            field = "depth_t" if rng.integers(2) == 0 else "depth_t1"
            index = (int(rng.integers(hgt)), int(rng.integers(wid)))
            analytic = getattr(grad, field)[index]
        elif wrt == "flow":
            field = "flow_fwd" if rng.integers(2) == 0 else "flow_bwd"
            index = (int(rng.integers(hgt)), int(rng.integers(wid)), int(rng.integers(2)))
            analytic = getattr(grad, field)[index]
        elif wrt == "pose":
            field = "pose_params"
            index = (int(rng.integers(6)),)
            analytic = grad.pose_params[index]
        else:
            raise ValueError(f"unknown wrt {wrt!r}")
        fd = (
            total_at(_perturbed(scene.state, field, index, +h))
            - total_at(_perturbed(scene.state, field, index, -h))
        ) / (2.0 * h)
        err = abs(analytic - fd) / max(abs(analytic), abs(fd), floor)
        worst = max(worst, err)
        largest = max(largest, abs(analytic))
    return worst, largest
