#!/usr/bin/env python3
"""Where stacking both sides of a level stops paying: the sweep behind
`losses.STACKED_PIXELS`.

For each size, renders the preset at that size and runs the level objective
(`optimize._objective` at scales=1, so the one level is the whole image)
two ways on the same state: both sides as one stacked block
(`STACKED_PIXELS = 10**9`) and one side at a time (`STACKED_PIXELS = 0`),
each on its own `PairContext`, interleaved, the first path alternating
between pairs. It does so with gradients and forward only. Per size and
mode it prints the median of the per-pair ratio (one-side time over stacked
time, so above 1 means stacking is faster), its quartiles, and whether both
paths gave the same bytes (report, gradient and masks).

    python scripts/block_crossover.py --sizes 64 96 128 129x97 --pairs 40
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import statistics
import time
from dataclasses import astuple, fields

import numpy as np

from rigidflow import losses, optimize
from rigidflow.losses import ALL_TERMS
from rigidflow.scenes import preset, render

PATHS = {"stacked": 10**9, "one-side": 0}


def size_arg(text: str):
    """(width, height) of "N" (N x N) or "WxH"."""
    w, _, h = text.partition("x")
    return int(w), int(h or w)


def run(ctx, state, cfg, grads: bool, stacked_pixels: int):
    """Seconds of one `_objective` call on the given block path, and the bytes
    of its report, gradient and masks."""
    losses.STACKED_PIXELS = stacked_pixels
    mark = ctx.ws.mark()
    start = time.perf_counter()
    report, grad, masks = optimize._objective(state, ctx, cfg, None, ALL_TERMS, grads)
    seconds = time.perf_counter() - start
    arrays = [np.asarray(astuple(report))]
    if grad is not None:
        arrays += [np.asarray(getattr(grad, f.name)) for f in fields(grad)]
    arrays += [getattr(level, f.name) for level in masks for f in fields(level)]
    out = b"".join(a.tobytes() for a in arrays)
    ctx.ws.release(mark)
    return seconds, out


def sweep(name: str, size, pairs: int, calls: int, grads: bool):
    """(median, first quartile, third quartile) of the one-side/stacked time
    ratio over `pairs` interleaved pairs of `calls` calls each, and whether
    both paths gave the same bytes."""
    width, height = size
    gt = render(preset(name, width=width, height=height))
    state = optimize.make_initial_state(gt, np.random.default_rng(0))
    cfg = optimize.OptimizerConfig(scales=1)
    ctxs = {p: optimize.PairContext(gt.image_t, gt.image_t1, gt.intrinsics, cfg, (height, width)) for p in PATHS}
    # a warm-up call per path sizes each workspace and gives the bytes
    outs = {p: run(ctxs[p], state, cfg, grads, PATHS[p])[1] for p in PATHS}
    ratios = []
    for i in range(pairs):
        order = list(PATHS) if i % 2 == 0 else list(PATHS)[::-1]
        took = {p: sum(run(ctxs[p], state, cfg, grads, PATHS[p])[0] for _ in range(calls)) for p in order}
        ratios.append(took["one-side"] / took["stacked"])
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return median, q1, q3, outs["stacked"] == outs["one-side"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--preset", default="plane", help="scene preset name")
    ap.add_argument("--sizes", nargs="+", type=size_arg, default=[(64, 64), (96, 96), (128, 128)],
                    help="level sizes, N or WxH")
    ap.add_argument("--pairs", type=int, default=20, help="interleaved pairs per size and mode")
    ap.add_argument("--calls", type=int, default=1, help="calls per path in each pair")
    args = ap.parse_args()

    saved = losses.STACKED_PIXELS
    print(f"preset {args.preset}, {args.pairs} pairs of {args.calls} call(s); "
          f"ratio = one-side time / stacked time; STACKED_PIXELS is {saved}")
    print("size        pixels  mode       median   q1      q3      same bytes  default path")
    try:
        for w, h in args.sizes:
            default = "stacked" if h * w < saved else "one-side"
            for grads in (True, False):
                median, q1, q3, same = sweep(args.preset, (w, h), args.pairs, args.calls, grads)
                mode = "gradients" if grads else "forward"
                print(f"{w:>4}x{h:<4} {h * w:>8}  {mode:<9}  {median:6.3f}  {q1:6.3f}  {q3:6.3f}  "
                      f"{str(same):<10}  {default}", flush=True)
    finally:
        losses.STACKED_PIXELS = saved
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
