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
from .sampling import WarpPlan, Workspace

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
    for name, flow in (("fwd", fwd), ("bwd", bwd)):
        if flow.ndim != 3 or flow.shape[2] != 2:
            raise ValueError(f"{name} must be (H, W, 2), got shape {flow.shape}")
    if fwd.shape != bwd.shape:
        raise ValueError(f"fwd is {fwd.shape[0]}x{fwd.shape[1]} but bwd is {bwd.shape[0]}x{bwd.shape[1]}")
    for name, flow in (("fwd", fwd), ("bwd", bwd)):
        if not np.all(np.isfinite(flow)):
            raise ValueError(f"{name} must be finite")
    fwd, bwd = np.moveaxis(fwd, -1, 0), np.moveaxis(bwd, -1, 0)  # planar views
    ws = Workspace()
    plan = WarpPlan.along(fwd, ws)
    return _cycle_mask(fwd, plan.sample(bwd), plan.inbounds, params, ws, np.empty(fwd.shape[1:], bool))


def _cycle_mask(fwd, back, inbounds, params: FBCheckParams, ws: Workspace, out):
    """The fb check of the planar (2, H, W) fwd given its cycle back =
    b(p + f(p)), sampled through the plan of fwd whose in-bounds flags are
    `inbounds`, into `out`. Its temporaries are taken from ws's stack."""
    shape = inbounds.shape
    mark = ws.mark()
    lhs, mag, tmp = [ws.take(shape) for _ in range(3)]
    # lhs = ru * ru + rv * rv, with ru = fwd[0] + back[0] and rv = fwd[1] + back[1]
    for i, acc in enumerate((lhs, tmp)):
        np.add(fwd[i], back[i], out=acc)
        np.multiply(acc, acc, out=acc)
    lhs += tmp
    # mag = fwd[0] * fwd[0] + fwd[1] * fwd[1] + back[0] * back[0] + back[1] * back[1]
    np.multiply(fwd[0], fwd[0], out=mag)
    for x in (fwd[1], back[0], back[1]):
        mag += np.multiply(x, x, out=tmp)
    mag *= params.alpha1
    mag += params.alpha2
    np.less(lhs, mag, out=out)  # lhs < alpha1 * mag + alpha2
    ws.release(mark)
    return np.logical_and(out, inbounds, out=out)
