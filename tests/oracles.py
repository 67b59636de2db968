"""Independent scalar reference implementations used by the tests.

Everything here is written as plain per-pixel loops and explicit algebra,
deliberately avoiding the vectorized code paths of the package. Metric
oracles select pixels with scalar loops but apply the same numpy
reductions (mean/median/sqrt/log) as the implementation so that results
are comparable bit for bit.

The one exception is the last section: the vectorized per-call samplers
and the term-by-term level objective that the shared warp plans replaced,
kept as the bit-for-bit reference of the fused code path.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# rotations and projection


def rotation_series(w, terms: int = 30) -> np.ndarray:
    """Matrix exponential of the cross-product matrix of w, by power series."""
    k = np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )
    out = np.eye(3)
    term = np.eye(3)
    for n in range(1, terms):
        term = term @ k / n
        out = out + term
    return out


def project_pixel_ref(x, y, depth, fx, fy, cx, cy, r, t):
    """One-pixel projection written with plain Python floats.

    Returns (u, v, z) like the implementation, but built from a homogeneous
    point transform rather than fused per-coordinate expressions.
    """
    px = depth * ((x - cx) / fx)
    py = depth * ((y - cy) / fy)
    pz = depth
    q = [
        r[i][0] * px + r[i][1] * py + r[i][2] * pz + t[i]
        for i in range(3)
    ]
    return fx * q[0] / q[2] + cx, fy * q[1] / q[2] + cy, q[2]


def project_pixel(x, y, depth, k, pose):
    """One-pixel projection through Intrinsics k and PoseSE3 pose, in the
    fused per-coordinate expressions of the package: the bit-for-bit
    reference of `rigid_flow`. Returns (u, v, z); z <= 0 means the point
    lands behind the camera."""
    r = pose.rotation
    t = pose.translation
    rx = (x - k.cx) / k.fx
    ry = (y - k.cy) / k.fy
    p0 = depth * rx
    p1 = depth * ry
    p2 = depth
    q0 = r[0, 0] * p0 + r[0, 1] * p1 + r[0, 2] * p2 + t[0]
    q1 = r[1, 0] * p0 + r[1, 1] * p1 + r[1, 2] * p2 + t[1]
    q2 = r[2, 0] * p0 + r[2, 1] * p1 + r[2, 2] * p2 + t[2]
    u = k.fx * (q0 / q2) + k.cx
    v = k.fy * (q1 / q2) + k.cy
    return u, v, q2


# ---------------------------------------------------------------------------
# sampling


def bilinear_ref(img, x, y):
    """Scalar bilinear lookup with the package's clamping semantics.

    Returns (value, inbounds). Multi-channel images give a channel vector.
    """
    img = np.asarray(img, dtype=float)
    h, w = img.shape[:2]
    inb = 0.0 <= x <= w - 1.0 and 0.0 <= y <= h - 1.0
    xc = min(max(x, 0.0), w - 1.0)
    yc = min(max(y, 0.0), h - 1.0)
    x0 = min(int(math.floor(xc)), max(w - 2, 0))
    y0 = min(int(math.floor(yc)), max(h - 2, 0))
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    wx = xc - x0
    wy = yc - y0
    top = img[y0, x0] + wx * (img[y0, x1] - img[y0, x0])
    bot = img[y1, x0] + wx * (img[y1, x1] - img[y1, x0])
    return top + wy * (bot - top), inb


def pool_ref(a, scale=1.0):
    """2x2 average pooling of every (H, W) plane of a (..., H, W) array, by
    scalar loops, the last row or column replicated at odd sizes, times scale.
    The four are added in row-major order, as the package does."""
    a = np.asarray(a, dtype=float)
    h, w = a.shape[-2:]
    out = np.empty(a.shape[:-2] + ((h + 1) // 2, (w + 1) // 2))
    for idx in np.ndindex(a.shape[:-2]):
        plane = a[idx]
        for i in range(out.shape[-2]):
            y0, y1 = 2 * i, min(2 * i + 1, h - 1)
            for j in range(out.shape[-1]):
                x0, x1 = 2 * j, min(2 * j + 1, w - 1)
                s = float(plane[y0, x0]) + float(plane[y0, x1])
                s += float(plane[y1, x0])
                s += float(plane[y1, x1])
                out[idx + (i, j)] = 0.25 * s * scale
    return out


def pool_adjoint_ref(g, fine_shape, scale=1.0):
    """The adjoint of `pool_ref` onto planes of fine_shape, by scalar loops
    over a zero-padded plane: each padded pixel gets 0.0 + 0.25 * g of its
    coarse pixel, a replicated last row and then last column are added onto
    the row or column they copy, and the result is cropped, times scale."""
    g = np.asarray(g, dtype=float)
    h, w = fine_shape
    hp, wp = h + h % 2, w + w % 2
    out = np.empty(g.shape[:-2] + (h, w))
    for idx in np.ndindex(g.shape[:-2]):
        pad = [[0.0 + 0.25 * float(g[idx + (i // 2, j // 2)]) for j in range(wp)] for i in range(hp)]
        if h % 2:
            for j in range(wp):
                pad[h - 1][j] += pad[h][j]
        if w % 2:
            for i in range(hp):
                pad[i][w - 1] += pad[i][w]
        for i in range(h):
            for j in range(w):
                out[idx + (i, j)] = pad[i][j] * scale
    return out


# ---------------------------------------------------------------------------
# losses


def _phi(x, eps):
    return math.sqrt(x * x + eps * eps) - eps


def _gray_at(img, y, x):
    img = np.asarray(img, dtype=float)
    if img.ndim == 2:
        return float(img[y, x])
    return float(img[y, x].mean())


def census_loss_ref(ref, warped, mask, radius, epsilon, charbonnier_eps):
    """Scalar-loop census photometric loss.

    Soft ternary descriptors of the grayscale neighborhood differences are
    compared per (pixel, neighbor) pair; pairs whose neighbor leaves the
    image or the mask are skipped; the sum is divided by the mask count.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    nv = int(mask.sum())
    if nv == 0:
        return 0.0
    total = 0.0
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            cr = _gray_at(ref, y, x)
            cw = _gray_at(warped, y, x)
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    if dy == 0 and dx == 0:
                        continue
                    ny, nx = y + dy, x + dx
                    if not (0 <= ny < h and 0 <= nx < w):
                        continue
                    if not mask[ny, nx]:
                        continue
                    dr = _gray_at(ref, ny, nx) - cr
                    dw = _gray_at(warped, ny, nx) - cw
                    tr = dr / math.sqrt(dr * dr + epsilon * epsilon)
                    tw = dw / math.sqrt(dw * dw + epsilon * epsilon)
                    total += _phi(tr - tw, charbonnier_eps)
    return total / nv


def smoothness_ref(field, guide, mean_normalize=False, eps=1e-3):
    """Scalar-loop edge-aware smoothness, normalized by the pixel count."""
    f = np.asarray(field, dtype=float)
    if f.ndim == 2:
        f = f[..., None]
    g = np.asarray(guide, dtype=float)
    if g.ndim == 2:
        g = g[..., None]
    h, w, c = f.shape
    if mean_normalize:
        f = f / np.asarray(field, dtype=float).mean()
    total = 0.0
    for y in range(h):
        for x in range(w - 1):
            wgt = math.exp(-float(np.abs(g[y, x + 1] - g[y, x]).mean()))
            for ch in range(c):
                total += _phi(f[y, x + 1, ch] - f[y, x, ch], eps) * wgt
    for y in range(h - 1):
        for x in range(w):
            wgt = math.exp(-float(np.abs(g[y + 1, x] - g[y, x]).mean()))
            for ch in range(c):
                total += _phi(f[y + 1, x, ch] - f[y, x, ch], eps) * wgt
    return total / (h * w)


def fb_flow_ref(fwd, bwd, mask, eps=1e-3):
    """Scalar-loop forward-backward flow residual loss."""
    fwd = np.asarray(fwd, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    nv = int(mask.sum())
    if nv == 0:
        return 0.0
    total = 0.0
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            qx = x + fwd[y, x, 0]
            qy = y + fwd[y, x, 1]
            back, _ = bilinear_ref(bwd, qx, qy)
            total += _phi(fwd[y, x, 0] + back[0], eps)
            total += _phi(fwd[y, x, 1] + back[1], eps)
    return total / nv


def fb_depth_ref(depth_t, depth_t1, rigid_fwd, mask, eps=1e-3):
    """Scalar-loop depth consistency along the rigid flow."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    nv = int(mask.sum())
    if nv == 0:
        return 0.0
    total = 0.0
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            qx = x + rigid_fwd[y, x, 0]
            qy = y + rigid_fwd[y, x, 1]
            pulled, _ = bilinear_ref(depth_t1, qx, qy)
            total += _phi(float(depth_t[y, x]) - float(pulled), eps)
    return total / nv


def cross_ref(rigid, flow, mask, eps=1e-3):
    """Scalar-loop rigid-vs-estimated flow gap."""
    mask = np.asarray(mask, dtype=bool)
    nv = int(mask.sum())
    if nv == 0:
        return 0.0
    total = 0.0
    h, w = mask.shape
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            total += _phi(float(rigid[y, x, 0] - flow[y, x, 0]), eps)
            total += _phi(float(rigid[y, x, 1] - flow[y, x, 1]), eps)
    return total / nv


# ---------------------------------------------------------------------------
# metrics


def depth_metrics_ref(est, gt, mask=None, cap=None, median_scale=True, min_depth=1e-3):
    """Scalar-loop depth metric suite.

    Pixel selection and per-pixel formulas run as explicit loops; the final
    reductions reuse numpy's mean/median/sqrt/log on the collected arrays so
    the summation order matches the vectorized implementation exactly.
    """
    est = np.asarray(est, dtype=float)
    gt = np.asarray(gt, dtype=float)
    h, w = gt.shape
    es, gs = [], []
    for y in range(h):
        for x in range(w):
            if mask is not None and not mask[y, x]:
                continue
            g = float(gt[y, x])
            if not math.isfinite(g) or g <= 0.0:
                continue
            if cap is not None and g > cap:
                continue
            es.append(float(est[y, x]))
            gs.append(g)
    if not es:
        raise ValueError("no pixels left to evaluate")
    e_arr = np.array(es)
    g_arr = np.array(gs)
    if median_scale:
        s = np.median(g_arr) / np.median(e_arr)
        e_arr = np.array([e * s for e in e_arr])
    e_arr = np.array([max(e, min_depth) for e in e_arr])
    ratios = np.array([max(g / e, e / g) for e, g in zip(e_arr, g_arr)])
    a1 = float(np.mean(ratios < 1.25))
    a2 = float(np.mean(ratios < 1.25**2))
    a3 = float(np.mean(ratios < 1.25**3))
    abs_rel = float(np.mean(np.array([abs(e - g) / g for e, g in zip(e_arr, g_arr)])))
    sq_rel = float(np.mean(np.array([(e - g) * (e - g) / g for e, g in zip(e_arr, g_arr)])))
    rmse = float(np.sqrt(np.mean(np.array([(e - g) * (e - g) for e, g in zip(e_arr, g_arr)]))))
    dl = np.log(e_arr) - np.log(g_arr)
    log_rmse = float(np.sqrt(np.mean(dl * dl)))
    return dict(
        abs_rel=abs_rel, sq_rel=sq_rel, rmse=rmse, log_rmse=log_rmse, a1=a1, a2=a2, a3=a3
    )


def flow_metrics_ref(est, gt, mask=None):
    """Scalar-loop endpoint error and outlier fraction."""
    est = np.asarray(est, dtype=float)
    gt = np.asarray(gt, dtype=float)
    h, w = est.shape[:2]
    errs, gmags = [], []
    for y in range(h):
        for x in range(w):
            if mask is not None and not mask[y, x]:
                continue
            if not (math.isfinite(gt[y, x, 0]) and math.isfinite(gt[y, x, 1])):
                continue
            du = est[y, x, 0] - gt[y, x, 0]
            dv = est[y, x, 1] - gt[y, x, 1]
            errs.append(float(np.sqrt(du * du + dv * dv)))
            gmags.append(
                float(np.sqrt(gt[y, x, 0] * gt[y, x, 0] + gt[y, x, 1] * gt[y, x, 1]))
            )
    if not errs:
        raise ValueError("no pixels left to evaluate")
    err = np.array(errs)
    gmag = np.array(gmags)
    epe = float(np.mean(err))
    f1 = float(np.mean((err > 3.0) & (err > 0.05 * gmag)))
    return dict(epe=epe, f1=f1)


# ---------------------------------------------------------------------------
# finite differences


def central_difference(fn, h=1e-4):
    """Symmetric difference quotient of a callable fn(delta) -> loss."""
    return (fn(h) - fn(-h)) / (2.0 * h)


def relative_error(a, b, floor=1e-8):
    """|a - b| over the larger magnitude, floored so 0-vs-0 compares equal."""
    return abs(a - b) / max(abs(a), abs(b), floor)


# ---------------------------------------------------------------------------
# per-call bilinear bookkeeping and the per-term level objective
#
# The engine samples through one shared `WarpPlan` per correspondence field.
# What follows is the design it replaced, kept verbatim as the reference the
# plan must reproduce bit for bit: every sampler call redoes the
# clip/floor/weights step, and every term of a level samples on its own.


def _cell(height, width, xs, ys):
    """Shared bilinear bookkeeping: corner indices, weights, validity."""
    xc = np.clip(xs, 0.0, width - 1.0)
    yc = np.clip(ys, 0.0, height - 1.0)
    x0 = np.floor(xc).astype(np.intp)
    y0 = np.floor(yc).astype(np.intp)
    x0 = np.minimum(x0, max(width - 2, 0))
    y0 = np.minimum(y0, max(height - 2, 0))
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    wx = xc - x0
    wy = yc - y0
    inbounds = (xs >= 0.0) & (xs <= width - 1.0) & (ys >= 0.0) & (ys <= height - 1.0)
    return x0, x1, y0, y1, wx, wy, inbounds


def cell_sample(img, xs, ys):
    img = np.asarray(img, dtype=float)
    h, w = img.shape[:2]
    x0, x1, y0, y1, wx, wy, inb = _cell(h, w, xs, ys)
    if img.ndim == 2:
        v00 = img[y0, x0]
        v01 = img[y0, x1]
        v10 = img[y1, x0]
        v11 = img[y1, x1]
    else:
        flat = img.reshape(h * w, -1)
        v00 = flat[y0 * w + x0]
        v01 = flat[y0 * w + x1]
        v10 = flat[y1 * w + x0]
        v11 = flat[y1 * w + x1]
        wx = wx[..., None]
        wy = wy[..., None]
    top = v00 + wx * (v01 - v00)
    bot = v10 + wx * (v11 - v10)
    return top + wy * (bot - top), inb


def cell_sample_grad(img, xs, ys):
    img = np.asarray(img, dtype=float)
    h, w = img.shape
    x0, x1, y0, y1, wx, wy, inb = _cell(h, w, xs, ys)
    v00 = img[y0, x0]
    v01 = img[y0, x1]
    v10 = img[y1, x0]
    v11 = img[y1, x1]
    top = v00 + wx * (v01 - v00)
    bot = v10 + wx * (v11 - v10)
    val = top + wy * (bot - top)
    free_x = (xs >= 0.0) & (xs <= w - 1.0)
    free_y = (ys >= 0.0) & (ys <= h - 1.0)
    ddx = np.where(free_x, (v01 - v00) + wy * ((v11 - v10) - (v01 - v00)), 0.0)
    ddy = np.where(free_y, bot - top, 0.0)
    return val, ddx, ddy, inb


def cell_scatter(grad_out, xs, ys, shape):
    h, w = shape
    x0, x1, y0, y1, wx, wy, _ = _cell(h, w, xs, ys)
    g = np.asarray(grad_out, dtype=float).ravel()
    x0 = x0.ravel()
    x1 = x1.ravel()
    y0 = y0.ravel()
    y1 = y1.ravel()
    wx = wx.ravel()
    wy = wy.ravel()
    idx = np.concatenate([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1])
    wgt = np.concatenate(
        [
            g * (1.0 - wx) * (1.0 - wy),
            g * wx * (1.0 - wy),
            g * (1.0 - wx) * wy,
            g * wx * wy,
        ]
    )
    return np.bincount(idx, weights=wgt, minlength=h * w).reshape(h, w)


def _grid(h, w):
    ys, xs = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    return xs, ys


def fb_check_cell(fwd, bwd, alpha1, alpha2):
    fwd = np.asarray(fwd, dtype=float)
    bwd = np.asarray(bwd, dtype=float)
    xs, ys = _grid(*fwd.shape[:2])
    back, inb = cell_sample(bwd, xs + fwd[..., 0], ys + fwd[..., 1])
    ru = fwd[..., 0] + back[..., 0]
    rv = fwd[..., 1] + back[..., 1]
    lhs = ru * ru + rv * rv
    mag = (
        fwd[..., 0] * fwd[..., 0]
        + fwd[..., 1] * fwd[..., 1]
        + back[..., 0] * back[..., 0]
        + back[..., 1] * back[..., 1]
    )
    return (lhs < alpha1 * mag + alpha2) & inb


def _charbonnier(x, eps=1e-3):
    root = np.sqrt(x * x + eps * eps)
    return root - eps, x / root


def _shift_add(dst, src, dy, dx):
    h, w = dst.shape
    y0, y1 = max(0, -dy), h - max(0, dy)
    x0, x1 = max(0, -dx), w - max(0, dx)
    dst[y0 + dy : y1 + dy, x0 + dx : x1 + dx] += src[y0:y1, x0:x1]


def photometric_cell(gray_r, gray_w, mask, radius, epsilon, charbonnier_eps):
    """Census loss of one branch; returns (loss, grad wrt warped, degenerate)."""
    grad_warped = np.zeros_like(gray_w)
    nv = int(np.count_nonzero(mask))
    if nv == 0:
        return 0.0, grad_warped, True
    h, w = gray_r.shape
    r = radius
    eps2 = epsilon * epsilon
    c = charbonnier_eps
    pad_r = np.pad(gray_r, r, mode="edge")
    pad_w = np.pad(gray_w, r, mode="edge")
    pad_m = np.pad(mask, r, mode="constant", constant_values=False)
    inv = 1.0 / nv
    loss = 0.0
    grad_gray = np.zeros((h, w))
    offsets = [(dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1) if (dy, dx) != (0, 0)]
    for dy, dx in offsets:
        dr = pad_r[r + dy : r + dy + h, r + dx : r + dx + w] - gray_r
        dw = pad_w[r + dy : r + dy + h, r + dx : r + dx + w] - gray_w
        tr = dr / np.sqrt(dr * dr + eps2)
        tw = dw / np.sqrt(dw * dw + eps2)
        delta = tr - tw
        root = np.sqrt(delta * delta + c * c)
        gate = mask & pad_m[r + dy : r + dy + h, r + dx : r + dx + w]
        loss += float(np.sum((root - c)[gate]))
        g = np.where(gate, (delta / root) * (-eps2 / (dw * dw + eps2) ** 1.5) * inv, 0.0)
        grad_gray -= g
        _shift_add(grad_gray, g, dy, dx)
    grad_warped += grad_gray
    return loss * inv, grad_warped, False


def fb_flow_cell(fwd, bwd, mask, eps=1e-3):
    h, w = fwd.shape[:2]
    grad_fwd = np.zeros_like(fwd)
    nv = int(np.count_nonzero(mask))
    if nv == 0:
        return 0.0, grad_fwd, np.zeros_like(bwd), True
    xs, ys = _grid(h, w)
    qx = xs + fwd[..., 0]
    qy = ys + fwd[..., 1]
    bu, du_dx, du_dy, _ = cell_sample_grad(bwd[..., 0], qx, qy)
    bv, dv_dx, dv_dy, _ = cell_sample_grad(bwd[..., 1], qx, qy)
    ru = fwd[..., 0] + bu
    rv = fwd[..., 1] + bv
    phi_u, dphi_u = _charbonnier(ru, eps)
    phi_v, dphi_v = _charbonnier(rv, eps)
    inv = 1.0 / nv
    loss = float(np.sum((phi_u + phi_v)[mask])) * inv
    gu = np.where(mask, dphi_u * inv, 0.0)
    gv = np.where(mask, dphi_v * inv, 0.0)
    grad_fwd[..., 0] = gu * (1.0 + du_dx) + gv * dv_dx
    grad_fwd[..., 1] = gu * du_dy + gv * (1.0 + dv_dy)
    grad_bwd = np.stack(
        [cell_scatter(gu, qx, qy, (h, w)), cell_scatter(gv, qx, qy, (h, w))],
        axis=-1,
    )
    return loss, grad_fwd, grad_bwd, False


def fb_depth_cell(depth_t, depth_t1, rigid_fwd, mask, eps=1e-3):
    h, w = depth_t.shape
    nv = int(np.count_nonzero(mask))
    if nv == 0:
        return 0.0, np.zeros((h, w)), np.zeros((h, w)), np.zeros((h, w, 2)), True
    xs, ys = _grid(h, w)
    qx = xs + rigid_fwd[..., 0]
    qy = ys + rigid_fwd[..., 1]
    pulled, ddx, ddy, _ = cell_sample_grad(depth_t1, qx, qy)
    phi, dphi = _charbonnier(depth_t - pulled, eps)
    inv = 1.0 / nv
    loss = float(np.sum(phi[mask])) * inv
    g = np.where(mask, dphi * inv, 0.0)
    grad_rigid = np.stack([-g * ddx, -g * ddy], axis=-1)
    grad_dt1 = cell_scatter(-g, qx, qy, (h, w))
    return loss, g, grad_dt1, grad_rigid, False


def _photometric_branch_cell(gray_ref, gray_src, flow_field, mask, census):
    xs, ys = _grid(*gray_ref.shape)
    qx = xs + flow_field[..., 0]
    qy = ys + flow_field[..., 1]
    warped, ddx, ddy, _ = cell_sample_grad(gray_src, qx, qy)
    loss, grad_warped, _ = photometric_cell(
        gray_ref, warped, mask, census.radius, census.epsilon, census.charbonnier_eps
    )
    return loss, np.stack([grad_warped * ddx, grad_warped * ddy], axis=-1)


def project_backward(depth, k, pose, grad_u, grad_v):
    """The package's projection adjoint called bare: `camera._rigid_flow`
    projects the (H, W) depth, or a stacked (n, H, W) one with a sequence of
    one pose per side, and `camera._project_backward` reads the points it
    kept. Returns (grad_depth, grad_r, grad_t)."""
    from rigidflow.camera import PoseSE3, _entries, _pixels, _project_backward, _rigid_flow
    from rigidflow.sampling import Workspace

    depth = np.asarray(depth, dtype=float)
    poses = [pose] if isinstance(pose, PoseSE3) else pose
    entries = _entries([(p.rotation, p.translation) for p in poses])
    pixels = _pixels(*depth.shape[-2:], k)
    ws = Workspace()
    _, valid, q = _rigid_flow(depth, k, pixels, entries, ws)
    return _project_backward(depth, k, pixels, entries[0], q, valid, grad_u, grad_v, ws, np.empty(depth.shape))


def scale_objective_cell(
    imgs,
    depths,
    poses,
    flows,
    k,
    weights,
    census,
    fb_params,
    terms=frozenset({"photometric", "smooth", "fb_flow", "fb_depth", "cross"}),
    masks=None,
):
    """The level objective term by term, each term sampling on its own.

    Returns the package's ScaleResult. Smoothness, the cross-task term and
    the projection are the package's own: they never sampled."""
    from rigidflow.camera import rigid_flow
    from rigidflow.losses import LevelMasks, ScaleResult, cross_task_loss, edge_weights, smoothness_loss

    img_t, img_t1 = imgs
    depth_t, depth_t1 = depths
    pose_fwd, pose_bwd = poses
    flow_fwd, flow_bwd = flows
    gray_t = img_t.mean(axis=2) if img_t.ndim == 3 else img_t
    gray_t1 = img_t1.mean(axis=2) if img_t1.ndim == 3 else img_t1
    # the package's edge weights take a planar (C, H, W) guide
    guide_t, guide_t1 = (np.moveaxis(np.atleast_3d(img), -1, 0) for img in imgs)
    h, w = gray_t.shape
    a1, a2 = fb_params.alpha1, fb_params.alpha2
    rigid_f, cheir_f = rigid_flow(depth_t, k, pose_fwd)
    rigid_b, cheir_b = rigid_flow(depth_t1, k, pose_bwd)
    if masks is None:
        masks = LevelMasks(
            depth_fwd=fb_check_cell(rigid_f, rigid_b, a1, a2) & cheir_f,
            depth_bwd=fb_check_cell(rigid_b, rigid_f, a1, a2) & cheir_b,
            flow_fwd=fb_check_cell(flow_fwd, flow_bwd, a1, a2),
            flow_bwd=fb_check_cell(flow_bwd, flow_fwd, a1, a2),
        )
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
        l1, g1 = _photometric_branch_cell(gray_t, gray_t1, rigid_f, masks.depth_fwd, census)
        l2, g2 = _photometric_branch_cell(gray_t, gray_t1, flow_fwd, masks.flow_fwd, census)
        l3, g3 = _photometric_branch_cell(gray_t1, gray_t, rigid_b, masks.depth_bwd, census)
        l4, g4 = _photometric_branch_cell(gray_t1, gray_t, flow_bwd, masks.flow_bwd, census)
        photometric = l1 + l2 + l3 + l4
        g_rigid_f += g1
        g_flow_f += g2
        g_rigid_b += g3
        g_flow_b += g4

    if "smooth" in terms:
        s1, gs1 = smoothness_loss(depth_t, edge_weights(guide_t), mean_normalize=True)
        s2, gs2 = smoothness_loss(depth_t1, edge_weights(guide_t1), mean_normalize=True)
        # the package's smoothness and cross-task terms take planar (2, H, W) flows
        s3, gs3 = smoothness_loss(np.moveaxis(flow_fwd, -1, 0), edge_weights(guide_t))
        s4, gs4 = smoothness_loss(np.moveaxis(flow_bwd, -1, 0), edge_weights(guide_t1))
        smooth = s1 + s2 + s3 + s4
        g_dt += weights.lambda_s * gs1
        g_dt1 += weights.lambda_s * gs2
        g_flow_f += weights.lambda_s * np.moveaxis(gs3, 0, -1)
        g_flow_b += weights.lambda_s * np.moveaxis(gs4, 0, -1)

    if "fb_flow" in terms:
        lf, gf, gb, _ = fb_flow_cell(flow_fwd, flow_bwd, masks.flow_fwd)
        fb_total += lf
        g_flow_f += weights.lambda_f * gf
        g_flow_b += weights.lambda_f * gb
        lb, gb2, gf2, _ = fb_flow_cell(flow_bwd, flow_fwd, masks.flow_bwd)
        fb_total += lb
        g_flow_b += weights.lambda_f * gb2
        g_flow_f += weights.lambda_f * gf2

    if "fb_depth" in terms:
        ld, gdt, gdt1, grig, _ = fb_depth_cell(depth_t, depth_t1, rigid_f, masks.depth_fwd)
        fb_total += ld
        g_dt += weights.lambda_f * gdt
        g_dt1 += weights.lambda_f * gdt1
        g_rigid_f += weights.lambda_f * grig
        ld2, gdt1b, gdtb, grigb, _ = fb_depth_cell(depth_t1, depth_t, rigid_b, masks.depth_bwd)
        fb_total += ld2
        g_dt1 += weights.lambda_f * gdt1b
        g_dt += weights.lambda_f * gdtb
        g_rigid_b += weights.lambda_f * grigb

    if "cross" in terms:
        lc, gr, gf = cross_task_loss(
            np.moveaxis(rigid_f, -1, 0), np.moveaxis(flow_fwd, -1, 0), masks.depth_fwd & masks.flow_fwd
        )
        cross += lc
        g_rigid_f += weights.lambda_c * np.moveaxis(gr, 0, -1)
        g_flow_f += weights.lambda_c * np.moveaxis(gf, 0, -1)
        lc2, gr2, gf2 = cross_task_loss(
            np.moveaxis(rigid_b, -1, 0), np.moveaxis(flow_bwd, -1, 0), masks.depth_bwd & masks.flow_bwd
        )
        cross += lc2
        g_rigid_b += weights.lambda_c * np.moveaxis(gr2, 0, -1)
        g_flow_b += weights.lambda_c * np.moveaxis(gf2, 0, -1)

    gd_f, gr_f, gt_f = project_backward(depth_t, k, pose_fwd, g_rigid_f[..., 0], g_rigid_f[..., 1])
    gd_b, gr_b, gt_b = project_backward(depth_t1, k, pose_bwd, g_rigid_b[..., 0], g_rigid_b[..., 1])
    g_dt += gd_f
    g_dt1 += gd_b
    return ScaleResult(
        photometric=photometric,
        smooth=smooth,
        fb=fb_total,
        cross=cross,
        grad_depth=(g_dt, g_dt1),
        grad_pose=((gr_f, gt_f), (gr_b, gt_b)),
        grad_flow=(g_flow_f, g_flow_b),
        masks=masks,
    )
