"""Depth and flow evaluation metrics.

Depth follows the usual monocular protocol: optional validity mask, optional
ground-truth depth cap, optional median scaling (the estimate is scale
ambiguous), then abs_rel / sq_rel / rmse / log_rmse and the three inlier
ratios. Flow reports endpoint error and the outlier fraction (error above
3 px and above 5% of the ground-truth magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "DepthMetrics",
    "FlowMetrics",
    "depth_metrics",
    "flow_metrics",
    "report_text",
    "report_csv",
]


@dataclass(frozen=True)
class DepthMetrics:
    abs_rel: float
    sq_rel: float
    rmse: float
    log_rmse: float
    a1: float
    a2: float
    a3: float


@dataclass(frozen=True)
class FlowMetrics:
    epe: float
    f1: float


def _effective_mask(gt: np.ndarray, mask, cap):
    m = np.ones(gt.shape, dtype=bool) if mask is None else np.asarray(mask).astype(bool)
    if m.shape != gt.shape:
        raise ValueError("mask size differs from ground truth")
    m = m & np.isfinite(gt) & (gt > 0.0)
    if cap is not None:
        m = m & (gt <= cap)
    return m


def depth_metrics(
    est: np.ndarray,
    gt: np.ndarray,
    mask=None,
    cap: float | None = None,
    median_scale: bool = True,
    min_depth: float = 1e-3,
) -> DepthMetrics:
    """Standard depth error suite over the masked pixels.

    Pixels with gt > cap (when cap is given) or outside the mask are
    excluded. With median_scale the estimate is multiplied by
    median(gt)/median(est) over the evaluated pixels first. The estimate is
    clamped below at min_depth so ratios and logs stay finite.
    """
    est = np.asarray(est, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if est.shape != gt.shape:
        raise ValueError("estimate and ground truth sizes differ")
    m = _effective_mask(gt, mask, cap)
    e = est[m]
    g = gt[m]
    if e.size == 0:
        raise ValueError("no pixels left to evaluate")
    if median_scale:
        e = e * (np.median(g) / np.median(e))
    e = np.maximum(e, min_depth)
    ratio = np.maximum(g / e, e / g)
    a1 = float(np.mean(ratio < 1.25))
    a2 = float(np.mean(ratio < 1.25**2))
    a3 = float(np.mean(ratio < 1.25**3))
    d = e - g
    abs_rel = float(np.mean(np.abs(d) / g))
    sq_rel = float(np.mean(d * d / g))
    rmse = float(np.sqrt(np.mean(d * d)))
    dl = np.log(e) - np.log(g)
    log_rmse = float(np.sqrt(np.mean(dl * dl)))
    return DepthMetrics(abs_rel, sq_rel, rmse, log_rmse, a1, a2, a3)


def flow_metrics(est: np.ndarray, gt: np.ndarray, mask=None) -> FlowMetrics:
    """Mean endpoint error and outlier fraction over the masked pixels."""
    est = np.asarray(est, dtype=float)
    gt = np.asarray(gt, dtype=float)
    for name, flow in (("est", est), ("gt", gt)):
        if flow.ndim != 3 or flow.shape[2] != 2:
            raise ValueError(f"{name} must be (H, W, 2), got shape {flow.shape}")
    if est.shape != gt.shape:
        raise ValueError(f"est is {est.shape[0]}x{est.shape[1]} but gt is {gt.shape[0]}x{gt.shape[1]}")
    if mask is None:
        m = np.ones(est.shape[:2], dtype=bool)
    else:
        m = np.asarray(mask).astype(bool)
        if m.shape != est.shape[:2]:
            raise ValueError("mask size differs from flow")
    m = m & np.all(np.isfinite(gt), axis=2)
    if not np.any(m):
        raise ValueError("no pixels left to evaluate")
    du = est[..., 0] - gt[..., 0]
    dv = est[..., 1] - gt[..., 1]
    err = np.sqrt(du * du + dv * dv)[m]
    gmag = np.sqrt(gt[..., 0] * gt[..., 0] + gt[..., 1] * gt[..., 1])[m]
    epe = float(np.mean(err))
    f1 = float(np.mean((err > 3.0) & (err > 0.05 * gmag)))
    return FlowMetrics(epe, f1)


def report_text(metrics) -> str:
    """Flat key=value lines, one field per line (metrics or a loss report), full precision."""
    return "\n".join(f"{f.name}={getattr(metrics, f.name)!r}" for f in fields(metrics))


def report_csv(metrics) -> str:
    """Two CSV lines: header and values."""
    names = [f.name for f in fields(metrics)]
    values = [repr(getattr(metrics, n)) for n in names]
    return ",".join(names) + "\n" + ",".join(values)
