"""Forward-backward consistency masks.

A pixel survives the check when the forward flow and the backward flow
sampled at its landing point roughly cancel:

    |f(p) + b(p + f(p))|^2 < alpha1 * (|f(p)|^2 + |b(p + f(p))|^2) + alpha2

and p + f(p) stays inside the image. Masks are treated as constants of the
state they were computed from; nothing differentiates through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_fields
from .sampling import WarpPlan

__all__ = ["FBCheckParams", "fb_check"]


@dataclass(frozen=True)
class FBCheckParams:
    alpha1: float = 0.01
    alpha2: float = 0.5

    def __post_init__(self):
        check_fields(self, ("alpha1", "alpha2"), lambda v: v >= 0.0, "non-negative")


def fb_check(fwd: np.ndarray, bwd: np.ndarray, params: FBCheckParams = FBCheckParams()):
    """Mask of pixels whose forward/backward flows are mutually consistent.

    fwd and bwd are finite (H, W, 2) fields of the two directions; returns (H, W) bool.
    """
    fwd = np.asarray(fwd, dtype=float)
    bwd = np.asarray(bwd, dtype=float)
    if fwd.shape != bwd.shape or fwd.ndim != 3 or fwd.shape[2] != 2:
        raise ValueError("flows must both be (H, W, 2)")
    for name, flow in (("fwd", fwd), ("bwd", bwd)):
        if not np.all(np.isfinite(flow)):
            raise ValueError(f"{name} must be finite")
    fwd, bwd = np.moveaxis(fwd, -1, 0), np.moveaxis(bwd, -1, 0)  # planar views
    plan = WarpPlan.along(fwd)
    return _cycle_mask(fwd, plan.sample(bwd), plan.inbounds, params)


def _cycle_mask(fwd: np.ndarray, back: np.ndarray, inbounds: np.ndarray, params: FBCheckParams):
    """The fb check of the planar (2, H, W) fwd given its cycle back =
    b(p + f(p)), sampled through the plan of fwd whose in-bounds flags are
    `inbounds`."""
    ru = fwd[0] + back[0]
    rv = fwd[1] + back[1]
    lhs = ru * ru + rv * rv
    mag = fwd[0] * fwd[0] + fwd[1] * fwd[1] + back[0] * back[0] + back[1] * back[1]
    return (lhs < params.alpha1 * mag + params.alpha2) & inbounds

