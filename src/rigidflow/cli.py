"""Command-line interface.

Subcommands cover the whole pipeline: synthesizing rigid flow, warping,
consistency masks, loss evaluation, refinement, scene rendering, metric
evaluation, and flow visualization. Numerical results are independent of
the BLAS thread count, which the standard variables set at launch
(OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .camera import (
    Intrinsics,
    params_from_pose,
    pose_from_params,
    rigid_flow,
)
from .config import optimizer_config_from, parse_kv_file, parse_overrides
from .flowio import (
    read_flo,
    read_pfm,
    write_flo,
    write_flow_visualization,
    write_pfm,
    write_pgm,
    write_trace_csv,
)
from .masks import FBCheckParams, fb_check
from .metrics import depth_metrics, flow_metrics, report_csv, report_text
from .optimize import OptimizerConfig, SceneState, evaluate, make_initial_state, refine
from .scenes import load_scene_spec, preset, render

__all__ = ["main"]


def _parse_floats(text: str, n: int, what: str):
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated values")
    values = []
    for p in parts:
        try:
            values.append(float(p))
        except ValueError:
            raise ValueError(f"{what}: cannot parse {p!r} as a float") from None
    return values


def _intrinsics_arg(text: str) -> Intrinsics:
    fx, fy, cx, cy = _parse_floats(text, 4, "--intrinsics")
    return Intrinsics(fx, fy, cx, cy)


def _pose_arg(text: str) -> np.ndarray:
    return np.asarray(_parse_floats(text, 6, "--pose"), dtype=float)


def _scene_from_args(args):
    if getattr(args, "scene", None):
        return load_scene_spec(args.scene)
    if getattr(args, "preset", None):
        return preset(args.preset)
    raise ValueError("need --scene FILE or --preset NAME")


def _config_from_args(args) -> OptimizerConfig:
    settings = {}
    if getattr(args, "config", None):
        settings.update(parse_kv_file(args.config))
    settings.update(parse_overrides(getattr(args, "set", None)))
    return optimizer_config_from(settings)


def _cmd_synth_flow(args) -> int:
    depth = read_pfm(args.depth)
    pose = pose_from_params(_pose_arg(args.pose))
    k = _intrinsics_arg(args.intrinsics)
    flow, valid = rigid_flow(depth, k, pose)
    write_flo(args.output, flow)
    if args.valid_mask:
        write_pgm(args.valid_mask, valid)
    print(f"wrote {args.output} ({flow.shape[1]}x{flow.shape[0]}), "
          f"{int(valid.sum())}/{valid.size} valid")
    return 0


def _cmd_warp(args) -> int:
    from .sampling import inverse_warp

    image = read_pfm(args.image)
    flow = read_flo(args.flow)
    warped, valid = inverse_warp(image, flow)
    write_pfm(args.output, warped)
    if args.valid_mask:
        write_pgm(args.valid_mask, valid)
    print(f"wrote {args.output}, {int(valid.sum())}/{valid.size} in bounds")
    return 0


def _cmd_mask(args) -> int:
    fwd = read_flo(args.forward)
    bwd = read_flo(args.backward)
    params = FBCheckParams(alpha1=args.alpha1, alpha2=args.alpha2)
    mask = fb_check(fwd, bwd, params)
    write_pgm(args.output, mask)
    print(f"wrote {args.output}, {int(mask.sum())}/{mask.size} valid")
    return 0


def _cmd_loss(args) -> int:
    cfg = _config_from_args(args)
    inputs = ("image_t", "image_t1", "depth_t", "depth_t1", "flow_fwd", "flow_bwd", "pose", "intrinsics")
    given = {"--" + n.replace("_", "-"): getattr(args, n) is not None for n in inputs}
    if args.scene or args.preset:
        if any(given.values()):
            # the scene gives every input, so these would be ignored
            raise ValueError(
                "with --scene/--preset, no other inputs are taken (given: "
                + ", ".join(flag for flag, found in given.items() if found) + ")"
            )
        spec = _scene_from_args(args)
        gt = render(spec)
        img_t, img_t1, k = gt.image_t, gt.image_t1, gt.intrinsics
        state = SceneState(gt.depth_t, gt.depth_t1, spec.pose_params, gt.flow_fwd, gt.flow_bwd)
    else:
        if not all(given.values()):
            raise ValueError(
                "without --scene/--preset, all inputs are required (missing: "
                + ", ".join(flag for flag, found in given.items() if not found) + ")"
            )
        img_t = read_pfm(args.image_t)
        img_t1 = read_pfm(args.image_t1)
        depth_t = read_pfm(args.depth_t)
        depth_t1 = read_pfm(args.depth_t1)
        flow_fwd = read_flo(args.flow_fwd)
        flow_bwd = read_flo(args.flow_bwd)
        pose_params = _pose_arg(args.pose)
        k = _intrinsics_arg(args.intrinsics)
        state = SceneState(depth_t, depth_t1, pose_params, flow_fwd, flow_bwd)
    report, _, masks = evaluate(state, img_t, img_t1, k, cfg, want_grads=False)
    print(report_text(report))
    _warn_empty_masks(masks)
    return 0


def _warn_empty_masks(masks) -> None:
    """One line on stderr for each empty mask of each level."""
    for lvl, level in enumerate(masks):
        for name in [name for name, mask in vars(level).items() if not mask.any()]:
            print(f"warning: level {lvl} mask {name} is empty", file=sys.stderr)


def _cmd_refine(args) -> int:
    cfg = _config_from_args(args)
    gt = render(_scene_from_args(args))
    rng = np.random.default_rng(args.seed)
    init = make_initial_state(
        gt,
        rng,
        depth_noise=args.depth_noise,
        pose_noise=args.pose_noise,
        flow_noise=args.flow_noise,
        flow_init=args.flow_init,
    )
    final, trace = refine(gt.image_t, gt.image_t1, gt.intrinsics, init, cfg)
    if args.trace:
        write_trace_csv(args.trace, trace)
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        write_pfm(os.path.join(args.output_dir, "depth_t.pfm"), final.depth_t)
        write_pfm(os.path.join(args.output_dir, "depth_t1.pfm"), final.depth_t1)
        write_flo(os.path.join(args.output_dir, "flow_fwd.flo"), final.flow_fwd)
        write_flo(os.path.join(args.output_dir, "flow_bwd.flo"), final.flow_bwd)
        with open(os.path.join(args.output_dir, "pose.txt"), "w") as fh:
            fh.write(",".join(repr(float(v)) for v in final.pose_params) + "\n")
    print(report_text(trace[-1]))
    # the final state's masks, from the forward evaluation its trace entry had
    _warn_empty_masks(evaluate(final, gt.image_t, gt.image_t1, gt.intrinsics, cfg, want_grads=False)[2])
    dm = depth_metrics(final.depth_t, gt.depth_t)
    fm = flow_metrics(final.flow_fwd, gt.flow_fwd, mask=~gt.occlusion)
    print(report_text(dm))
    print(report_text(fm))
    return 0


def _cmd_render_scene(args) -> int:
    gt = render(_scene_from_args(args))
    out = args.output_dir
    os.makedirs(out, exist_ok=True)
    write_pfm(os.path.join(out, "image_t.pfm"), gt.image_t)
    write_pfm(os.path.join(out, "image_t1.pfm"), gt.image_t1)
    write_pfm(os.path.join(out, "depth_t.pfm"), gt.depth_t)
    write_pfm(os.path.join(out, "depth_t1.pfm"), gt.depth_t1)
    write_flo(os.path.join(out, "flow_fwd.flo"), gt.flow_fwd)
    write_flo(os.path.join(out, "flow_bwd.flo"), gt.flow_bwd)
    write_pgm(os.path.join(out, "occlusion.pgm"), gt.occlusion)
    write_pgm(os.path.join(out, "mover.pgm"), gt.mover_mask)
    k = gt.intrinsics
    with open(os.path.join(out, "camera.txt"), "w") as fh:
        fh.write(f"intrinsics={k.fx!r},{k.fy!r},{k.cx!r},{k.cy!r}\n")
        fh.write("pose=" + ",".join(repr(float(v)) for v in params_from_pose(gt.pose)) + "\n")
    print(f"wrote scene to {out}")
    return 0


def _cmd_eval_flow(args) -> int:
    est = read_flo(args.est)
    gt = read_flo(args.gt)
    m = flow_metrics(est, gt)
    if args.csv:
        print(report_csv(m))
    else:
        print(report_text(m))
    return 0


def _cmd_eval_depth(args) -> int:
    est = read_pfm(args.est)
    gt = read_pfm(args.gt)
    m = depth_metrics(
        est, gt, cap=args.cap, median_scale=not args.no_median_scale, min_depth=args.min_depth
    )
    if args.csv:
        print(report_csv(m))
    else:
        print(report_text(m))
    return 0


def _cmd_viz_flow(args) -> int:
    flow = read_flo(args.flow)
    write_flow_visualization(args.output, flow, max_magnitude=args.max_magnitude)
    print(f"wrote {args.output}")
    return 0


def _add_scene_args(p):
    p.add_argument("--scene", help="scene spec file (key=value)")
    p.add_argument("--preset", help="built-in scene name")


def _add_config_args(p):
    p.add_argument("--config", help="optimizer config file (key=value)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidflow",
        description="Joint depth/pose/flow refinement on monocular frame pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-flow", help="rigid flow from a depth map and pose")
    p.add_argument("--depth", required=True, help="depth map (PFM)")
    p.add_argument("--pose", required=True, help="wx,wy,wz,tx,ty,tz")
    p.add_argument("--intrinsics", required=True, help="fx,fy,cx,cy")
    p.add_argument("--output", required=True, help="output .flo")
    p.add_argument("--valid-mask", help="optional PGM of the cheirality mask")
    p.set_defaults(func=_cmd_synth_flow)

    p = sub.add_parser("warp", help="inverse-warp an image by a flow field")
    p.add_argument("--image", required=True, help="image (PFM)")
    p.add_argument("--flow", required=True, help="flow (.flo)")
    p.add_argument("--output", required=True, help="output PFM")
    p.add_argument("--valid-mask", help="optional PGM of in-bounds pixels")
    p.set_defaults(func=_cmd_warp)

    p = sub.add_parser("mask", help="forward-backward consistency mask")
    p.add_argument("--forward", required=True, help="forward flow (.flo)")
    p.add_argument("--backward", required=True, help="backward flow (.flo)")
    p.add_argument("--output", required=True, help="output PGM (255 = valid)")
    p.add_argument("--alpha1", type=float, default=0.01)
    p.add_argument("--alpha2", type=float, default=0.5)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("loss", help="evaluate the full objective")
    _add_scene_args(p)
    _add_config_args(p)
    for name in ("image-t", "image-t1", "depth-t", "depth-t1"):
        p.add_argument(f"--{name}", help=f"{name} (PFM)")
    p.add_argument("--flow-fwd", help="forward flow (.flo)")
    p.add_argument("--flow-bwd", help="backward flow (.flo)")
    p.add_argument("--pose", help="wx,wy,wz,tx,ty,tz")
    p.add_argument("--intrinsics", help="fx,fy,cx,cy")
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("refine", help="gradient-descent refinement on a scene")
    _add_scene_args(p)
    _add_config_args(p)
    p.add_argument("--seed", type=int, default=0, help="perturbation seed")
    p.add_argument("--depth-noise", type=float, default=0.2)
    p.add_argument("--pose-noise", type=float, default=0.0)
    p.add_argument("--flow-noise", type=float, default=0.0)
    p.add_argument("--flow-init", choices=("rigid", "gt"), default="rigid")
    p.add_argument("--trace", help="write the loss trace CSV here")
    p.add_argument("--output-dir", help="write refined depth/flow/pose here")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("render-scene", help="render a synthetic scene to files")
    _add_scene_args(p)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_render_scene)

    p = sub.add_parser("eval-flow", help="endpoint error and outlier rate")
    p.add_argument("--est", required=True, help="estimated flow (.flo)")
    p.add_argument("--gt", required=True, help="ground-truth flow (.flo)")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of key=value")
    p.set_defaults(func=_cmd_eval_flow)

    p = sub.add_parser("eval-depth", help="depth error suite")
    p.add_argument("--est", required=True, help="estimated depth (PFM)")
    p.add_argument("--gt", required=True, help="ground-truth depth (PFM)")
    p.add_argument("--cap", type=float, default=None, help="ignore gt deeper than this")
    p.add_argument("--min-depth", type=float, default=1e-3)
    p.add_argument("--no-median-scale", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_eval_depth)

    p = sub.add_parser("viz-flow", help="flow field to a color-wheel PPM")
    p.add_argument("--flow", required=True, help="flow (.flo)")
    p.add_argument("--output", required=True, help="output PPM")
    p.add_argument("--max-magnitude", type=float, default=None)
    p.set_defaults(func=_cmd_viz_flow)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
