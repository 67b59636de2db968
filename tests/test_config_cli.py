"""Config parsing and command-line entry points, end to end in a tmpdir."""

import struct
import subprocess
import sys

import numpy as np
import pytest

from rigidflow.cli import main
from rigidflow.config import optimizer_config_from, parse_kv_file, parse_overrides
from rigidflow.flowio import FLO_MAGIC, read_flo, read_pfm, write_flo, write_pfm
from rigidflow.optimize import OptimizerConfig, SceneState, evaluate
from rigidflow.scenes import preset, render


# ---------------------------------------------------------------------------
# config parsing


def test_parse_kv_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# optimizer\nlearning_rate = 0.005\n\niterations=300  # budget\nscales =2\n"
    )
    assert parse_kv_file(path) == {
        "learning_rate": "0.005",
        "iterations": "300",
        "scales": "2",
    }


def test_parse_kv_file_rejects_bare_words(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("learning_rate\n")
    with pytest.raises(ValueError, match="expected key=value"):
        parse_kv_file(path)


def test_parse_overrides():
    assert parse_overrides(["a=1", "b = 2 "]) == {"a": "1", "b": "2"}
    assert parse_overrides(None) == {}
    with pytest.raises(ValueError, match="expected key=value"):
        parse_overrides(["oops"])


def test_optimizer_config_from_full_settings():
    cfg = optimizer_config_from(
        {
            "learning_rate": "0.005",
            "iterations": "123",
            "scales": "3",
            "cross_scales": "2",
            "lambda_s": "1.5",
            "lambda_f": "0.4",
            "lambda_c": "0.0",
            "census_radius": "2",
            "census_epsilon": "0.05",
            "census_charbonnier_eps": "0.01",
            "fb_alpha1": "0.02",
            "fb_alpha2": "0.7",
            "scale_weights": "1.0,0.5,0.25",
        }
    )
    assert cfg.learning_rate == 0.005
    assert cfg.iterations == 123
    assert cfg.scales == 3
    assert cfg.cross_scales == 2
    assert cfg.weights.lambda_s == 1.5
    assert cfg.weights.lambda_f == 0.4
    assert cfg.weights.lambda_c == 0.0
    assert cfg.census.radius == 2
    assert cfg.census.epsilon == 0.05
    assert cfg.census.charbonnier_eps == 0.01
    assert cfg.fb_params.alpha1 == 0.02
    assert cfg.fb_params.alpha2 == 0.7
    assert cfg.scale_weights == (1.0, 0.5, 0.25)


def test_optimizer_config_defaults_when_unset():
    cfg = optimizer_config_from({})
    assert cfg.weights.lambda_s == 3.0
    assert cfg.weights.lambda_f == 0.2
    assert cfg.weights.lambda_c == 0.2
    assert cfg.iterations == 2000
    assert cfg.scales == 4
    assert cfg == OptimizerConfig()


def test_optimizer_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys: momentum"):
        optimizer_config_from({"momentum": "0.9"})


def test_optimizer_config_rejects_scale_settings_that_cannot_run():
    with pytest.raises(ValueError, match=r"scale_weights needs one weight per scale \(3\), got 1"):
        OptimizerConfig(scales=3, scale_weights=(1.0,))
    with pytest.raises(ValueError, match="cross_scales must be >= 0, got -2"):
        optimizer_config_from({"cross_scales": "-2"})
    assert OptimizerConfig(scales=2, scale_weights=(1.0, 0.5), cross_scales=0).cross_scales == 0


# ---------------------------------------------------------------------------
# CLI plumbing helpers


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv_lines(text):
    out = {}
    for line in text.strip().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# render-scene / synth-flow / warp / mask


def test_render_scene_writes_scene_files(tmp_path, capsys):
    out = tmp_path / "scene"
    code, stdout, _ = run_cli(capsys, "render-scene", "--preset", "plane", "--output-dir", str(out))
    assert code == 0
    assert "wrote scene" in stdout
    gt = render(preset("plane"))
    flow = read_flo(out / "flow_fwd.flo")
    assert np.array_equal(flow, gt.flow_fwd.astype(np.float32))
    depth = read_pfm(out / "depth_t.pfm")
    assert np.array_equal(depth, gt.depth_t.astype(np.float32))
    for name in ("image_t.pfm", "image_t1.pfm", "depth_t1.pfm", "flow_bwd.flo",
                 "occlusion.pgm", "mover.pgm", "camera.txt"):
        assert (out / name).exists()


def test_synth_flow_identity_pose_is_zero(tmp_path, capsys):
    depth_path = tmp_path / "depth.pfm"
    write_pfm(depth_path, np.full((10, 12), 4.0))
    out = tmp_path / "flow.flo"
    code, stdout, _ = run_cli(
        capsys,
        "synth-flow",
        "--depth", str(depth_path),
        "--pose", "0,0,0,0,0,0",
        "--intrinsics", "50,50,5.5,4.5",
        "--output", str(out),
    )
    assert code == 0
    assert "120/120 valid" in stdout
    flow = read_flo(out)
    assert flow.shape == (10, 12, 2)
    # float residue of fx*((x-cx)/fx) stays far under the 1e-12 contract
    assert np.max(np.abs(flow)) < 1e-12


def test_warp_by_zero_flow_returns_input(tmp_path, capsys):
    rng = np.random.default_rng(5)
    image = rng.uniform(0.0, 1.0, (8, 9)).astype(np.float32)
    write_pfm(tmp_path / "img.pfm", image)
    write_flo(tmp_path / "zero.flo", np.zeros((8, 9, 2)))
    code, stdout, _ = run_cli(
        capsys,
        "warp",
        "--image", str(tmp_path / "img.pfm"),
        "--flow", str(tmp_path / "zero.flo"),
        "--output", str(tmp_path / "warped.pfm"),
    )
    assert code == 0
    assert "72/72 in bounds" in stdout
    assert np.array_equal(read_pfm(tmp_path / "warped.pfm"), image)


def test_mask_counts_consistent_flows(tmp_path, capsys):
    fwd = np.zeros((6, 6, 2))
    fwd[..., 0] = 2.0
    bwd = -fwd
    write_flo(tmp_path / "f.flo", fwd)
    write_flo(tmp_path / "b.flo", bwd)
    code, stdout, _ = run_cli(
        capsys,
        "mask",
        "--forward", str(tmp_path / "f.flo"),
        "--backward", str(tmp_path / "b.flo"),
        "--output", str(tmp_path / "m.pgm"),
    )
    assert code == 0
    # landings at x + 2 leave the last two columns out of bounds
    assert "24/36 valid" in stdout


# ---------------------------------------------------------------------------
# loss / refine


def test_loss_on_ground_truth_preset_is_tiny(capsys):
    code, stdout, _ = run_cli(capsys, "loss", "--preset", "plane")
    assert code == 0
    values = kv_lines(stdout)
    assert set(values) == {"photometric", "smooth", "forward_backward", "cross", "total"}
    spec = preset("plane")
    gt = render(spec)
    state = SceneState(gt.depth_t, gt.depth_t1, spec.pose_params, gt.flow_fwd, gt.flow_bwd)
    report, _, _ = evaluate(state, gt.image_t, gt.image_t1, gt.intrinsics, want_grads=False)
    assert float(values["total"]) == report.total
    assert float(values["total"]) < 1e-6


def test_loss_requires_full_inputs_without_scene(capsys):
    code, _, stderr = run_cli(capsys, "loss", "--pose", "0,0,0,0,0,0")
    assert code == 1
    assert "error:" in stderr
    assert "--image-t" in stderr


def test_loss_names_a_non_finite_input_field(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "render-scene", "--preset", "plane", "--output-dir", str(tmp_path))
    assert code == 0
    # write_flo refuses a NaN, so patch one into the payload of flow (5, 5, 0)
    raw = bytearray((tmp_path / "flow_fwd.flo").read_bytes())
    offset = 12 + 4 * 2 * (5 * 64 + 5)
    raw[offset : offset + 4] = struct.pack("<f", float("nan"))
    (tmp_path / "nan.flo").write_bytes(bytes(raw))
    assert np.isnan(read_flo(tmp_path / "nan.flo")[5, 5, 0])
    argv = ["loss"]
    for name in ("image-t", "image-t1", "depth-t", "depth-t1"):
        argv += [f"--{name}", str(tmp_path / (name.replace("-", "_") + ".pfm"))]
    argv += ["--flow-fwd", str(tmp_path / "nan.flo"), "--flow-bwd", str(tmp_path / "flow_bwd.flo")]
    argv += ["--pose", "0,0,0,0.4,0,0", "--intrinsics", "100,100,31.5,31.5"]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1
    assert stderr == "error: flow_fwd must be finite\n"
    assert stdout == ""


def test_refine_writes_trace_and_outputs(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    out_dir = tmp_path / "refined"
    code, stdout, _ = run_cli(
        capsys,
        "refine",
        "--preset", "plane",
        "--seed", "3",
        "--set", "iterations=3",
        "--set", "scales=2",
        "--trace", str(trace_path),
        "--output-dir", str(out_dir),
    )
    assert code == 0
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0] == "iter,photometric,smooth,fb,cross,total"
    assert len(lines) == 1 + 4  # header + initial + one row per iteration
    for name in ("depth_t.pfm", "depth_t1.pfm", "flow_fwd.flo", "flow_bwd.flo", "pose.txt"):
        assert (out_dir / name).exists()
    values = kv_lines(stdout)
    assert "abs_rel" in values and "epe" in values
    assert float(values["abs_rel"]) >= 0.0


def test_refine_rejects_unknown_config_key(capsys):
    code, _, stderr = run_cli(
        capsys, "refine", "--preset", "plane", "--set", "bogus=1"
    )
    assert code == 1
    assert "unknown config keys: bogus" in stderr


def test_refine_rejects_scale_weights_of_the_wrong_length():
    proc = subprocess.run(
        [sys.executable, "-m", "rigidflow.cli", "refine", "--preset", "plane",
         "--set", "scale_weights=1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: scale_weights needs one weight per scale (4), got 1\n"
    assert proc.stdout == ""


def test_refine_rejects_scales_too_deep_for_the_image(capsys):
    code, stdout, stderr = run_cli(capsys, "refine", "--preset", "plane", "--set", "scales=7")
    assert code == 1
    assert "scales=7" in stderr and "64x64" in stderr
    assert stdout == ""


def test_bad_pose_arity_fails_cleanly(tmp_path, capsys):
    write_pfm(tmp_path / "d.pfm", np.full((4, 4), 2.0))
    code, _, stderr = run_cli(
        capsys,
        "synth-flow",
        "--depth", str(tmp_path / "d.pfm"),
        "--pose", "0,0,0",
        "--intrinsics", "10,10,1.5,1.5",
        "--output", str(tmp_path / "f.flo"),
    )
    assert code == 1
    assert "--pose needs 6" in stderr


def test_unknown_preset_fails_cleanly(capsys):
    code, _, stderr = run_cli(capsys, "loss", "--preset", "nosuch")
    assert code == 1
    assert "error:" in stderr


# ---------------------------------------------------------------------------
# eval / viz


def test_eval_flow_perfect_estimate(tmp_path, capsys):
    rng = np.random.default_rng(9)
    flow = rng.normal(0.0, 3.0, (7, 5, 2))
    write_flo(tmp_path / "est.flo", flow)
    write_flo(tmp_path / "gt.flo", flow)
    code, stdout, _ = run_cli(
        capsys, "eval-flow", "--est", str(tmp_path / "est.flo"), "--gt", str(tmp_path / "gt.flo")
    )
    assert code == 0
    values = kv_lines(stdout)
    assert float(values["epe"]) == 0.0
    assert float(values["f1"]) == 0.0


def test_eval_depth_csv_of_perfect_estimate(tmp_path, capsys):
    depth = np.linspace(1.0, 9.0, 48).reshape(6, 8)
    write_pfm(tmp_path / "est.pfm", depth)
    write_pfm(tmp_path / "gt.pfm", depth)
    code, stdout, _ = run_cli(
        capsys,
        "eval-depth",
        "--est", str(tmp_path / "est.pfm"),
        "--gt", str(tmp_path / "gt.pfm"),
        "--csv",
    )
    assert code == 0
    header, row = stdout.strip().splitlines()
    assert header == "abs_rel,sq_rel,rmse,log_rmse,a1,a2,a3"
    vals = [float(v) for v in row.split(",")]
    assert vals[:4] == [0.0, 0.0, 0.0, 0.0]
    assert vals[4:] == [1.0, 1.0, 1.0]


def test_viz_flow_zero_field_is_white(tmp_path, capsys):
    write_flo(tmp_path / "z.flo", np.zeros((3, 4, 2)))
    out = tmp_path / "z.ppm"
    code, _, _ = run_cli(capsys, "viz-flow", "--flow", str(tmp_path / "z.flo"), "--output", str(out))
    assert code == 0
    payload = out.read_bytes()
    header, rest = payload.split(b"255\n", 1)
    assert header.startswith(b"P6")
    assert rest == b"\xff" * (3 * 4 * 3)


def test_flo_magic_is_stable():
    assert struct.pack("<f", FLO_MAGIC)[:4] == struct.pack("<f", 202021.25)
