"""Config parsing and command-line entry points, end to end in a tmpdir."""

import math
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidflow.camera import Intrinsics
from rigidflow.cli import main
from rigidflow.config import _INT_KEYS, _KNOWN, optimizer_config_from, parse_kv_file, parse_overrides
from rigidflow.flowio import FLO_MAGIC, read_flo, read_pfm, write_flo, write_pfm
from rigidflow.optimize import OptimizerConfig, SceneState, evaluate, make_initial_state, refine
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


@pytest.mark.parametrize("item", ["=3", " = 3", "="])
def test_parse_overrides_rejects_an_empty_key(item):
    with pytest.raises(ValueError) as err:
        parse_overrides(["scales=2", item])
    assert str(err.value) == f"override '{item}': expected key=value"


def test_parse_kv_file_rejects_an_empty_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scales = 2\n# comment\n  = 3\n")
    with pytest.raises(ValueError) as err:
        parse_kv_file(path)
    assert str(err.value) == f"{path}:3: expected key=value"


# any character, with the ones the syntax gives a meaning drawn often
_KV_TEXT = st.text(st.one_of(st.sampled_from(" =#\t\nk"), st.characters(blacklist_categories=("Cs",))))


@settings(max_examples=300, deadline=None)
@given(items=st.lists(_KV_TEXT, max_size=5))
def test_parse_overrides_of_any_items_parses_or_quotes_the_item(items):
    try:
        out = parse_overrides(items)
    except ValueError as err:
        m = re.fullmatch(r"override '(.*)': expected key=value", str(err), re.DOTALL)
        assert m and m.group(1) in items, str(err)
        key, sep, _ = m.group(1).partition("=")
        assert not (sep and key.strip())
    else:
        assert set(out) <= {item.partition("=")[0].strip() for item in items}
        assert all(out)


@settings(max_examples=300, deadline=None)
@given(text=_KV_TEXT)
def test_parse_kv_file_of_any_text_parses_or_names_the_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text, "utf-8")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        try:
            out = parse_kv_file(path)
        except ValueError as err:
            m = re.fullmatch(rf"{re.escape(str(path))}:(\d+): expected key=value", str(err))
            assert m, str(err)
            key, sep, _ = lines[int(m.group(1)) - 1].split("#", 1)[0].partition("=")
            assert not (sep and key.strip())
        else:
            assert all(key and key == key.strip() and not {"#", "="} & set(key) for key in out)


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


@pytest.mark.parametrize(
    "key, raw, message",
    [
        ("scales", "1.5", "scales must be an integer, got '1.5'"),
        ("learning_rate", "fast", "learning_rate must be a number, got 'fast'"),
        ("scale_weights", "1,,2,3", "scale_weights must be comma-separated numbers, got '1,,2,3'"),
        ("learning_rate", "nan", "learning_rate must be finite, got 'nan'"),
        ("census_epsilon", "inf", "census_epsilon must be finite, got 'inf'"),
        ("scale_weights", "1,-inf,1,1", "scale_weights must be finite, got '1,-inf,1,1'"),
        # range errors of the nested settings carry the key's prefix
        ("census_radius", "0", "census_radius must be >= 1, got 0"),
        ("census_charbonnier_eps", "0", "census_charbonnier_eps must be positive, got 0.0"),
        (
            "census_epsilon",
            "1e-300",
            "census_epsilon must be in [2.812644285236262e-103, 5.643803094122362e+102), got 1e-300",
        ),
        (
            "census_charbonnier_eps",
            "1e155",
            "census_charbonnier_eps must be in [1.4916681462400413e-154, 1.3407807929942596e+154], got 1e+155",
        ),
        ("beta1", "2", "beta1 must be in [0, 1), got 2.0"),
        ("lambda_s", "-1", "lambda_s must be non-negative, got -1.0"),
        ("fb_alpha1", "-1", "fb_alpha1 must be non-negative, got -1.0"),
        ("scales", "0", "scales must be >= 1, got 0"),
    ],
)
def test_optimizer_config_names_a_value_it_cannot_use(key, raw, message):
    with pytest.raises(ValueError) as err:
        optimizer_config_from({key: raw})
    assert str(err.value) == message


_NUMBER_TEXT = st.one_of(
    st.text(),
    st.integers().map(str),
    st.floats().map(repr),
    st.lists(st.floats(), min_size=1, max_size=5).map(lambda xs: ",".join(map(repr, xs))),
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(_KNOWN)), raw=_NUMBER_TEXT)
def test_optimizer_config_from_any_text_builds_or_names_the_key(key, raw):
    try:
        cfg = optimizer_config_from({key: raw})
    except ValueError as err:
        message = str(err)
    else:
        assert isinstance(cfg, OptimizerConfig)
        return
    # every failure, range errors included, names the key first
    assert message.startswith(f"{key} "), message
    # the conversion rules, restated: a failure to convert, or a float that
    # is not finite, must name the key and the text
    kind = int if key in _INT_KEYS else float
    try:
        values = [kind(part) for part in (raw.split(",") if key == "scale_weights" else [raw])]
    except ValueError:
        assert message.startswith(f"{key} must be ") and message.endswith(f"got {raw!r}")
        return
    if kind is float and not all(map(math.isfinite, values)):
        assert message == f"{key} must be finite, got {raw!r}"


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


def test_mask_names_both_sizes_of_mismatched_flows(tmp_path, capsys):
    write_flo(tmp_path / "f.flo", np.zeros((4, 4, 2)))
    write_flo(tmp_path / "b.flo", np.zeros((5, 4, 2)))
    code, _, stderr = run_cli(
        capsys,
        "mask",
        "--forward", str(tmp_path / "f.flo"),
        "--backward", str(tmp_path / "b.flo"),
        "--output", str(tmp_path / "m.pgm"),
    )
    assert code == 1
    assert stderr == "error: fwd is 4x4 but bwd is 5x4\n"


def test_warp_names_both_sizes_of_mismatched_inputs(tmp_path, capsys):
    write_pfm(tmp_path / "img.pfm", np.zeros((5, 5)))
    write_flo(tmp_path / "zero.flo", np.zeros((4, 4, 2)))
    code, _, stderr = run_cli(
        capsys,
        "warp",
        "--image", str(tmp_path / "img.pfm"),
        "--flow", str(tmp_path / "zero.flo"),
        "--output", str(tmp_path / "warped.pfm"),
    )
    assert code == 1
    assert stderr == "error: target is 5x5 but flow is 4x4\n"


def write_flo_with(path, h, w, value):
    """An (h, w) .flo file of zero flow but for one component set to value;
    `write_flo` itself refuses a non-finite flow."""
    flow = np.zeros((h, w, 2), dtype="<f4")
    flow[h // 2, w // 3, 1] = value
    path.write_bytes(struct.pack("<fii", FLO_MAGIC, w, h) + flow.tobytes())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "command, flow_arg, message",
    [
        ("warp", "--flow", "flow must be finite"),
        ("mask", "--forward", "fwd must be finite"),
        ("mask", "--backward", "bwd must be finite"),
        ("viz-flow", "--flow", "flow must be finite"),
    ],
)
def test_a_non_finite_flow_file_fails_naming_the_flow(tmp_path, capsys, command, flow_arg, message, bad):
    write_pfm(tmp_path / "img.pfm", np.zeros((8, 8), dtype=np.float32))
    write_flo(tmp_path / "zero.flo", np.zeros((8, 8, 2)))
    write_flo_with(tmp_path / "bad.flo", 8, 8, bad)
    assert not np.all(np.isfinite(read_flo(tmp_path / "bad.flo")))  # read as it is
    given = {
        "warp": {"--image": "img.pfm", "--flow": "zero.flo", "--output": "out.pfm"},
        "mask": {"--forward": "zero.flo", "--backward": "zero.flo", "--output": "out.pgm"},
        "viz-flow": {"--flow": "zero.flo", "--output": "out.ppm"},
    }[command]
    given[flow_arg] = "bad.flo"
    argv = [x for flag, name in given.items() for x in (flag, str(tmp_path / name))]
    code, stdout, stderr = run_cli(capsys, command, *argv)
    assert code == 1
    assert stderr == f"error: {message}\n"
    assert stdout == ""
    assert not any(tmp_path.glob("out.*"))


def test_a_non_finite_image_file_fails_naming_the_target(tmp_path, capsys):
    # an 8x8 PFM holding one NaN, written raw: `write_pfm` itself refuses it
    img = np.zeros((8, 8), dtype="<f4")
    img[3, 5] = np.nan
    (tmp_path / "img.pfm").write_bytes(b"Pf\n8 8\n-1.0\n" + img.tobytes())
    assert np.isnan(read_pfm(tmp_path / "img.pfm")).sum() == 1  # read as it is
    write_flo(tmp_path / "zero.flo", np.zeros((8, 8, 2)))
    code, stdout, stderr = run_cli(
        capsys,
        "warp",
        "--image", str(tmp_path / "img.pfm"),
        "--flow", str(tmp_path / "zero.flo"),
        "--output", str(tmp_path / "out.pfm"),
        "--valid-mask", str(tmp_path / "out.pgm"),
    )
    assert code == 1
    assert stderr == "error: target must be finite\n"
    assert stdout == ""
    assert not any(tmp_path.glob("out.*"))


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


LOSS_INPUTS = {
    "--image-t": "image_t.pfm",
    "--image-t1": "image_t1.pfm",
    "--depth-t": "depth_t.pfm",
    "--depth-t1": "depth_t1.pfm",
    "--flow-fwd": "flow_fwd.flo",
    "--flow-bwd": "flow_bwd.flo",
    "--pose": "9,9,9,9,9,9",
    "--intrinsics": "100,100,31.5,31.5",
}


@pytest.mark.parametrize("source", ["--preset", "--scene"])
def test_loss_with_a_scene_names_the_inputs_it_would_ignore(tmp_path, capsys, source):
    # a scene gives the images, the state and the camera: each file, pose or
    # intrinsics flag beside it is named, where it was ignored with exit 0
    scene = tmp_path / "scene.cfg"
    scene.write_text("width=16\nheight=12\nfx=20\nfy=20\ncx=7.5\ncy=5.5\nplane=0,0,1,5,3\n")
    given = {"--preset": "plane", "--scene": str(scene)}[source]
    for flags in [[flag] for flag in LOSS_INPUTS] + [["--image-t", "--pose"], list(LOSS_INPUTS)]:
        argv = [item for flag in flags for item in (flag, LOSS_INPUTS[flag])]
        code, stdout, stderr = run_cli(capsys, "loss", source, given, *argv)
        assert (code, stdout) == (1, "")
        assert stderr == f"error: with --scene/--preset, no other inputs are taken (given: {', '.join(flags)})\n"
    code, stdout, _ = run_cli(capsys, "loss", source, given)
    assert code == 0 and "total=" in stdout


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


def test_loss_names_an_image_of_another_size(tmp_path, capsys):
    big = render(preset("plane"))
    small = render(preset("plane", width=32, height=32))
    write_pfm(tmp_path / "image_t.pfm", small.image_t)
    write_pfm(tmp_path / "image_t1.pfm", big.image_t1)
    write_pfm(tmp_path / "depth_t.pfm", small.depth_t)
    write_pfm(tmp_path / "depth_t1.pfm", small.depth_t1)
    write_flo(tmp_path / "flow_fwd.flo", small.flow_fwd)
    write_flo(tmp_path / "flow_bwd.flo", small.flow_bwd)
    argv = ["loss"]
    for name in ("image-t", "image-t1", "depth-t", "depth-t1"):
        argv += [f"--{name}", str(tmp_path / (name.replace("-", "_") + ".pfm"))]
    for name in ("flow-fwd", "flow-bwd"):
        argv += [f"--{name}", str(tmp_path / (name.replace("-", "_") + ".flo"))]
    argv += ["--pose", "0,0,0,0.4,0,0", "--intrinsics", "100,100,15.5,15.5"]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1
    assert stderr == "error: img_t1 is 64x64 but the state is 32x32\n"
    assert stdout == ""


def test_loss_names_a_flow_of_another_size(tmp_path, capsys):
    gt = render(preset("plane", width=4, height=4))
    for name in ("image_t", "image_t1", "depth_t", "depth_t1"):
        write_pfm(tmp_path / f"{name}.pfm", getattr(gt, name))
    write_flo(tmp_path / "flow_fwd.flo", gt.flow_fwd)
    write_flo(tmp_path / "flow_bwd.flo", np.zeros((5, 4, 2)))
    argv = ["loss"]
    for name in ("image-t", "image-t1", "depth-t", "depth-t1"):
        argv += [f"--{name}", str(tmp_path / (name.replace("-", "_") + ".pfm"))]
    for name in ("flow-fwd", "flow-bwd"):
        argv += [f"--{name}", str(tmp_path / (name.replace("-", "_") + ".flo"))]
    argv += ["--pose", "0,0,0,0.4,0,0", "--intrinsics", "100,100,1.5,1.5"]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1
    assert stderr == "error: flow_bwd has shape (5, 4, 2), expected (4, 4, 2) to match depth_t\n"
    assert stdout == ""


def test_loss_warns_of_each_empty_mask(tmp_path, capsys):
    # a forward flow of +1000 px sends every pixel out of frame t+1, so both
    # flow masks are empty at every level while the depth masks are not
    code, _, _ = run_cli(capsys, "render-scene", "--preset", "plane", "--output-dir", str(tmp_path))
    assert code == 0
    far = read_flo(tmp_path / "flow_fwd.flo") + np.array([1000.0, 0.0])
    write_flo(tmp_path / "far.flo", far)
    argv = ["loss"]
    for name in ("image-t", "image-t1", "depth-t", "depth-t1"):
        argv += [f"--{name}", str(tmp_path / (name.replace("-", "_") + ".pfm"))]
    argv += ["--flow-fwd", str(tmp_path / "far.flo"), "--flow-bwd", str(tmp_path / "flow_bwd.flo")]
    argv += ["--pose", "0,0,0,0.4,0,0", "--intrinsics", "100,100,31.5,31.5"]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 0
    assert stderr == "".join(
        f"warning: level {lvl} mask {name} is empty\n" for lvl in range(4) for name in ("flow_fwd", "flow_bwd")
    )
    # stdout is the report alone
    depths = [read_pfm(tmp_path / f"depth_{t}.pfm") for t in ("t", "t1")]
    state = SceneState(*depths, np.array([0, 0, 0, 0.4, 0, 0]), far, read_flo(tmp_path / "flow_bwd.flo"))
    images = [read_pfm(tmp_path / f"image_{t}.pfm") for t in ("t", "t1")]
    report, _, _ = evaluate(state, *images, Intrinsics(100.0, 100.0, 31.5, 31.5), want_grads=False)
    assert stdout.splitlines() == [f"{name}={value!r}" for name, value in vars(report).items()]


@pytest.mark.parametrize("noise, empty", [("0", []), ("1000", ["flow_fwd", "flow_bwd"])])
def test_refine_warns_of_each_empty_mask_of_its_final_state(capsys, noise, empty):
    # flows pushed up to 1000 px out of frame leave both flow masks of the
    # final state empty at every level; stdout is the report and metrics alone
    argv = ["refine", "--preset", "plane", "--set", "iterations=2", "--flow-noise", noise]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 0
    assert stderr == "".join(f"warning: level {lvl} mask {name} is empty\n" for lvl in range(4) for name in empty)
    assert "total" in kv_lines(stdout) and "epe" in kv_lines(stdout)


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


def test_refined_outputs_feed_back_into_loss(tmp_path, capsys):
    """render-scene -> refine --output-dir -> loss: the refined pose file
    parses back to the refined float64 pose bit for bit, and `loss` on the
    rendered images, camera.txt's intrinsics and the refined files gives the
    trace's last total up to the float32 rounding of the .pfm and .flo files."""
    scene, out = tmp_path / "scene", tmp_path / "refined"
    assert run_cli(capsys, "render-scene", "--preset", "mover", "--output-dir", str(scene))[0] == 0
    refine_args = ["--preset", "mover", "--seed", "5", "--set", "iterations=12"]
    code, _, _ = run_cli(
        capsys, "refine", *refine_args, "--trace", str(tmp_path / "trace.csv"), "--output-dir", str(out)
    )
    assert code == 0
    pose_text = (out / "pose.txt").read_text().strip()
    gt = render(preset("mover"))
    init = make_initial_state(gt, np.random.default_rng(5), depth_noise=0.2)
    cfg = optimizer_config_from(parse_overrides(["iterations=12"]))
    final, _ = refine(gt.image_t, gt.image_t1, gt.intrinsics, init, cfg)
    parsed = np.array([float(v) for v in pose_text.split(",")])
    assert parsed.tobytes() == final.pose_params.tobytes()
    camera = kv_lines((scene / "camera.txt").read_text())
    argv = ["loss", "--pose", pose_text, "--intrinsics", camera["intrinsics"]]
    argv += ["--image-t", str(scene / "image_t.pfm"), "--image-t1", str(scene / "image_t1.pfm")]
    for name in ("depth_t.pfm", "depth_t1.pfm", "flow_fwd.flo", "flow_bwd.flo"):
        argv += ["--" + name.split(".")[0].replace("_", "-"), str(out / name)]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 0, stderr
    last_total = float((tmp_path / "trace.csv").read_text().strip().splitlines()[-1].split(",")[-1])
    # images, depths and flows pass through float32 files: a relative error
    # of 2**-24 per input value, which the loss does not amplify past 1e-4
    assert float(kv_lines(stdout)["total"]) == pytest.approx(last_total, rel=1e-4)


def test_refine_rejects_unknown_config_key(capsys):
    code, _, stderr = run_cli(
        capsys, "refine", "--preset", "plane", "--set", "bogus=1"
    )
    assert code == 1
    assert "unknown config keys: bogus" in stderr


def test_refine_names_an_override_without_a_key(capsys):
    code, stdout, stderr = run_cli(capsys, "refine", "--preset", "plane", "--set", "=3")
    assert code == 1
    assert stderr == "error: override '=3': expected key=value\n"
    assert stdout == ""


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


@pytest.mark.parametrize(
    "setting, message",
    [
        ("scales=1.5", "error: scales must be an integer, got '1.5'\n"),
        ("learning_rate=nan", "error: learning_rate must be finite, got 'nan'\n"),
        ("census_radius=0", "error: census_radius must be >= 1, got 0\n"),
    ],
)
def test_refine_names_a_config_value_it_cannot_use(capsys, setting, message):
    code, stdout, stderr = run_cli(capsys, "refine", "--preset", "plane", "--set", setting)
    assert code == 1
    assert stderr == message
    assert stdout == ""


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


@pytest.mark.parametrize(
    "pose, intrinsics, message",
    [
        (
            "np.float64(0.0054),0,0,0.4,0,0",
            "10,10,1.5,1.5",
            "error: --pose: cannot parse 'np.float64(0.0054)' as a float\n",
        ),
        ("0,0,0,0.4,0,0", "10,10,1.5,cy", "error: --intrinsics: cannot parse 'cy' as a float\n"),
        # an empty field is a field: it is counted, not dropped
        ("0,0,0,0.4,0,0", "10,,10,1.5,1.5", "error: --intrinsics needs 4 comma-separated values\n"),
        ("0,0,0,0.4,0,0", "10,10,1.5,1.5,", "error: --intrinsics needs 4 comma-separated values\n"),
        ("0,0,,0.4,0,0", "10,10,1.5,1.5", "error: --pose: cannot parse '' as a float\n"),
    ],
)
def test_an_unparsable_value_is_named_with_its_option(tmp_path, capsys, pose, intrinsics, message):
    write_pfm(tmp_path / "d.pfm", np.full((4, 4), 2.0))
    code, stdout, stderr = run_cli(
        capsys,
        "synth-flow",
        "--depth", str(tmp_path / "d.pfm"),
        "--pose", pose,
        "--intrinsics", intrinsics,
        "--output", str(tmp_path / "f.flo"),
    )
    assert code == 1
    assert stderr == message
    assert stdout == "" and not (tmp_path / "f.flo").exists()


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


def test_eval_flow_names_both_sizes_of_mismatched_flows(tmp_path, capsys):
    write_flo(tmp_path / "est.flo", np.zeros((4, 4, 2)))
    write_flo(tmp_path / "gt.flo", np.zeros((5, 4, 2)))
    code, _, stderr = run_cli(
        capsys, "eval-flow", "--est", str(tmp_path / "est.flo"), "--gt", str(tmp_path / "gt.flo")
    )
    assert code == 1
    assert stderr == "error: est is 4x4 but gt is 5x4\n"


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
