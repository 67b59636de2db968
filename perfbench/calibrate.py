"""Machine-speed calibration for the benchmark's timings.

The benchmark shares its machine with other tenants, and their load moves
the speed of memory-bound numpy code by up to half within a minute. A run
therefore times a fixed numpy kernel after every op and every set-up: a
bilinear gather, blend and scatter at each level of a 4-level pyramid of the
workload's image size, written here and not taken from the engine, so no
change to the engine changes it. Like an engine op, it mixes per-call
overhead at the small levels with memory traffic at the large one; a kernel
at the full size alone slowed by more than the loss workload's ops under
load and over-corrected them.

Dividing an op's latency by the kernel's time nearby cancels most of the
machine's current slowdown; multiplying by the kernel's reference time puts
the result back in milliseconds, as the op would take on the machine at its
reference speed.
"""

from __future__ import annotations

import time

import numpy as np

# an op is scaled by the median of the kernel timings just before and after it
# and after the next op: wider windows smooth over the short spells that set the tail
WINDOW = 1
LEVELS = 4
REPS = 2


class Level:
    """The kernel at one image size, with fixed inputs."""

    def __init__(self, height: int, width: int):
        rng = np.random.default_rng(20180905)
        ys, xs = np.meshgrid(np.arange(height, dtype=float), np.arange(width, dtype=float), indexing="ij")
        self.shape = (height, width)
        self.img = rng.random((height, width))
        self.qx = xs + rng.uniform(-3.0, 3.0, (height, width))
        self.qy = ys + rng.uniform(-3.0, 3.0, (height, width))
        self.grad = rng.random(height * width)

    def once(self) -> float:
        h, w = self.shape
        xc = np.clip(self.qx, 0.0, w - 1.0)
        yc = np.clip(self.qy, 0.0, h - 1.0)
        x0 = np.minimum(np.floor(xc).astype(np.intp), w - 2)
        y0 = np.minimum(np.floor(yc).astype(np.intp), h - 2)
        wx = xc - x0
        wy = yc - y0
        img = self.img
        val = (
            img[y0, x0] * (1.0 - wx) * (1.0 - wy)
            + img[y0, x0 + 1] * wx * (1.0 - wy)
            + img[y0 + 1, x0] * (1.0 - wx) * wy
            + img[y0 + 1, x0 + 1] * wx * wy
        )
        idx = np.concatenate([(y0 * w + x0).ravel(), (y0 * w + x0 + 1).ravel()])
        acc = np.bincount(idx, weights=np.concatenate([self.grad, self.grad]), minlength=h * w)
        return float(np.sqrt(val * val + 1e-6).sum() + acc[0])



class Kernel:
    """The calibration kernel: one Level per pyramid level of an image size."""

    def __init__(self, height: int, width: int):
        self.levels = []
        for _ in range(LEVELS):
            self.levels.append(Level(height, width))
            height, width = (height + 1) // 2, (width + 1) // 2

    def time(self) -> float:
        """Seconds for one timing of the kernel."""
        start = time.perf_counter()
        for _ in range(REPS):
            for level in self.levels:
                level.once()
        return time.perf_counter() - start


def local_scale(kernel_s, reference_ms: float) -> np.ndarray:
    """Per-op factor: reference kernel time over the kernel time near the op."""
    k = np.asarray(kernel_s, dtype=float)
    local = np.array([np.median(k[max(0, i - WINDOW) : i + WINDOW + 1]) for i in range(k.size)])
    return (reference_ms / 1e3) / local
