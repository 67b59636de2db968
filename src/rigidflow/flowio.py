"""File formats: .flo flow fields, PFM float images, PGM/PPM previews,
and loss-trace CSVs.

.flo layout: little-endian float32 magic 202021.25, int32 width, int32
height, then row-major interleaved (u, v) float32 pairs. PFM: 'Pf' (one
channel) or 'PF' (three), dims line, scale line whose sign encodes
endianness (negative = little), rows stored bottom-up.
"""

from __future__ import annotations

import struct

import numpy as np

from ._checks import MAX_SIDE

__all__ = [
    "FLO_MAGIC",
    "write_flo",
    "read_flo",
    "write_pfm",
    "read_pfm",
    "write_pgm",
    "write_flow_visualization",
    "write_trace_csv",
]

FLO_MAGIC = 202021.25  # exactly representable in float32


def write_flo(path, flow: np.ndarray) -> None:
    flow = np.asarray(flow, dtype=np.float32)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ValueError("flow must be (H, W, 2)")
    if not np.all(np.isfinite(flow)):
        raise ValueError("flow must be finite")
    h, w = flow.shape[:2]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<fii", FLO_MAGIC, w, h))
        fh.write(np.ascontiguousarray(flow, dtype="<f4").tobytes())


def read_flo(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) != 12:
            raise ValueError(f"{path}: not a flow file (truncated header)")
        magic, w, h = struct.unpack("<fii", header)
        if magic != FLO_MAGIC:
            raise ValueError(f"{path}: not a flow file (bad magic {magic!r})")
        if not (0 < w <= MAX_SIDE and 0 < h <= MAX_SIDE):
            raise ValueError(f"{path}: implausible flow dimensions {w}x{h}")
        payload = fh.read()
    expected = w * h * 2 * 4
    if len(payload) != expected:
        raise ValueError(f"{path}: corrupt flow file (payload {len(payload)}, want {expected})")
    data = np.frombuffer(payload, dtype="<f4").reshape(h, w, 2)
    return data.copy()


def write_pfm(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float32)
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[..., 0]
    if arr.ndim == 2:
        magic = b"Pf"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"PF"
    else:
        raise ValueError("PFM stores (H, W) or (H, W, 3) arrays")
    if not np.all(np.isfinite(arr)):
        raise ValueError("PFM data must be finite")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n")
        fh.write(f"{w} {h}\n".encode("ascii"))
        fh.write(b"-1.0\n")  # negative scale: little-endian
        fh.write(np.ascontiguousarray(arr[::-1], dtype="<f4").tobytes())


def _pfm_token(fh) -> bytes:
    tok = b""
    while True:
        ch = fh.read(1)
        if ch == b"":
            raise ValueError("truncated PFM header")
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = _pfm_token(fh)
        if magic not in (b"Pf", b"PF"):
            raise ValueError(f"{path}: not a PFM file (magic {magic!r})")
        channels = 3 if magic == b"PF" else 1
        try:
            w = int(_pfm_token(fh))
            h = int(_pfm_token(fh))
            scale = float(_pfm_token(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: malformed PFM header") from exc
        if not (0 < w <= MAX_SIDE and 0 < h <= MAX_SIDE) or scale == 0.0:
            raise ValueError(f"{path}: malformed PFM header")
        payload = fh.read()
    expected = w * h * channels * 4
    if len(payload) != expected:
        raise ValueError(f"{path}: corrupt PFM (payload {len(payload)}, want {expected})")
    dtype = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(payload, dtype=dtype)
    shape = (h, w) if channels == 1 else (h, w, 3)
    return np.ascontiguousarray(data.reshape(shape)[::-1], dtype=np.float32)


def write_pgm(path, img: np.ndarray) -> None:
    """8-bit grayscale preview. Bool arrays map to 0/255, floats from [0,1]."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError("PGM stores (H, W) arrays")
    if img.dtype == np.bool_:
        data = np.where(img, 255, 0).astype(np.uint8)
    else:
        data = np.clip(np.rint(np.asarray(img, dtype=float) * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def _hsv_to_rgb(hue, sat, val):
    i = np.floor(hue * 6.0)
    f = hue * 6.0 - i
    p = val * (1.0 - sat)
    q = val * (1.0 - f * sat)
    t = val * (1.0 - (1.0 - f) * sat)
    i = i.astype(int) % 6
    r = np.choose(i, [val, q, p, p, t, val])
    g = np.choose(i, [t, val, val, q, p, p])
    b = np.choose(i, [p, p, t, val, val, q])
    return r, g, b


def write_flow_visualization(path, flow: np.ndarray, max_magnitude: float | None = None) -> None:
    """Direction-as-hue, magnitude-as-saturation color wheel, binary PPM.

    Zero flow renders white; opposite displacements land on complementary
    hues. Magnitudes are scaled by max_magnitude (default: the field's own
    maximum) and clipped.
    """
    flow = np.asarray(flow, dtype=float)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ValueError("flow must be (H, W, 2)")
    if not np.all(np.isfinite(flow)):
        raise ValueError("flow must be finite")
    u = flow[..., 0]
    v = flow[..., 1]
    mag = np.sqrt(u * u + v * v)
    scale = float(max_magnitude) if max_magnitude else float(mag.max())
    if scale <= 0.0:
        scale = 1.0
    sat = np.clip(mag / scale, 0.0, 1.0)
    hue = (np.arctan2(-v, -u) / (2.0 * np.pi) + 0.5) % 1.0
    r, g, b = _hsv_to_rgb(hue, sat, np.ones_like(sat))
    rgb = np.stack([r, g, b], axis=-1)
    data = np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)
    h, w = flow.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def write_trace_csv(path, trace) -> None:
    """Loss trace as CSV with columns iter,photometric,smooth,fb,cross,total."""
    lines = ["iter,photometric,smooth,fb,cross,total"]
    for i, rep in enumerate(trace):
        lines.append(
            f"{i},{rep.photometric!r},{rep.smooth!r},{rep.forward_backward!r},"
            f"{rep.cross!r},{rep.total!r}"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
