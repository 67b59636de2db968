import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidflow.camera import rigid_flow
from rigidflow.losses import CensusParams
from rigidflow.masks import fb_check
from rigidflow.sampling import inverse_warp
from rigidflow.scenes import (
    PRESETS,
    PatchSpec,
    PlaneSpec,
    SceneSpec,
    TextureParams,
    load_scene_spec,
    preset,
    render,
    value_noise,
)

from conftest import census_terms


# ---------------------------------------------------------------------------
# value noise


def test_value_noise_deterministic():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5.0, 5.0, (40, 3))
    params = TextureParams()
    a = value_noise(pts, params, seed=7)
    b = value_noise(pts, params, seed=7)
    assert np.array_equal(a, b)
    c = value_noise(pts, params, seed=8)
    assert not np.array_equal(a, c)


def test_value_noise_range_and_smoothness():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-20.0, 20.0, (500, 3))
    v = value_noise(pts, TextureParams(contrast=0.9), seed=3)
    assert v.min() >= 0.0 and v.max() <= 1.0
    # nearby points give nearby values
    eps = value_noise(pts + 1e-4, TextureParams(contrast=0.9), seed=3)
    assert np.abs(v - eps).max() < 1e-2


def test_texture_params_validation():
    with pytest.raises(ValueError):
        TextureParams(octaves=0)
    with pytest.raises(ValueError):
        TextureParams(contrast=1.5)
    with pytest.raises(ValueError):
        TextureParams(base_scale=0.0)


# ---------------------------------------------------------------------------
# plane preset: everything closed-form


def test_plane_flow_is_constant_shift(plane_gt):
    assert np.abs(plane_gt.flow_fwd[..., 0] - 8.0).max() < 1e-9
    assert np.abs(plane_gt.flow_fwd[..., 1]).max() < 1e-9
    assert np.abs(plane_gt.flow_bwd[..., 0] + 8.0).max() < 1e-9


def test_plane_depth_is_exact_constant(plane_gt):
    assert np.array_equal(plane_gt.depth_t, np.full((64, 64), 5.0))
    assert np.array_equal(plane_gt.depth_t1, np.full((64, 64), 5.0))


def test_plane_occlusion_is_the_exit_band(plane_gt):
    # pixels shifted past the right edge: x + 8 > 63, eight full columns
    assert int(plane_gt.occlusion.sum()) == 8 * 64
    assert plane_gt.occlusion[:, 56:].all()
    assert not plane_gt.occlusion[:, :56].any()


def test_plane_has_no_movers(plane_gt):
    assert not plane_gt.mover_mask.any()


def test_plane_images_match_under_exact_shift(plane_gt):
    # integer displacement: frame t+1 is frame t moved 8 px right
    assert np.abs(plane_gt.image_t1[:, 8:, 0] - plane_gt.image_t[:, :-8, 0]).max() < 1e-12


def test_plane_gt_photometric_near_zero(plane_gt):
    warped, _ = inverse_warp(plane_gt.image_t1, plane_gt.flow_fwd)
    # the census core on the one channel of the rendered images
    ((loss, _),) = census_terms(plane_gt.image_t[..., 0], [(warped[..., 0], ~plane_gt.occlusion)], CensusParams())
    assert loss < 1e-6


def test_plane_fb_check_matches_occlusion(plane_gt):
    valid = fb_check(plane_gt.flow_fwd, plane_gt.flow_bwd)
    assert np.array_equal(valid, ~plane_gt.occlusion)


def test_render_is_deterministic():
    a = render(preset("plane"))
    b = render(preset("plane"))
    assert np.array_equal(a.image_t, b.image_t)
    assert np.array_equal(a.image_t1, b.image_t1)


def test_images_are_single_channel_unit_range(plane_gt):
    assert plane_gt.image_t.shape == (64, 64, 1)
    assert plane_gt.image_t.min() >= 0.0 and plane_gt.image_t.max() <= 1.0


# ---------------------------------------------------------------------------
# depth edge preset


def test_depth_edge_two_layer_flow(depth_edge_gt):
    flow = depth_edge_gt.flow_fwd
    on_patch = np.zeros((64, 64), bool)
    on_patch[20:36, 24:40] = True
    assert np.abs(flow[on_patch][:, 0] - 8.0).max() < 1e-9
    assert np.abs(flow[~on_patch][:, 0] - 4.0).max() < 1e-9
    assert np.abs(flow[..., 1]).max() < 1e-9
    assert np.array_equal(depth_edge_gt.depth_t[on_patch], np.full(256, 3.0))
    assert np.array_equal(depth_edge_gt.depth_t[~on_patch], np.full(64 * 64 - 256, 6.0))


def test_depth_edge_occlusion_count(depth_edge_gt):
    # 4 columns of background leave the frame (256 px) and a 4x16 band of
    # background is covered by the faster-moving near patch (64 px)
    occ = depth_edge_gt.occlusion
    assert int(occ.sum()) == 320
    assert occ[:, 60:].all()
    assert occ[20:36, 40:44].all()


def test_depth_edge_gt_photometric_near_zero(depth_edge_gt):
    warped, _ = inverse_warp(depth_edge_gt.image_t1, depth_edge_gt.flow_fwd)
    # the census core on the one channel of the rendered images
    ((loss, _),) = census_terms(depth_edge_gt.image_t[..., 0], [(warped[..., 0], ~depth_edge_gt.occlusion)], CensusParams())
    assert loss < 1e-6


# ---------------------------------------------------------------------------
# mover preset


def test_mover_mask_covers_the_patch(mover_gt):
    mask = np.zeros((64, 64), bool)
    mask[22:34, 30:42] = True
    assert np.array_equal(mover_gt.mover_mask, mask)
    assert int(mask.sum()) == 144


def test_mover_flow_departs_from_rigid(mover_gt):
    rigid, _ = rigid_flow(mover_gt.depth_t, mover_gt.intrinsics, mover_gt.pose)
    gap = np.linalg.norm(mover_gt.flow_fwd - rigid, axis=2)
    assert (gap[mover_gt.mover_mask] > 1.0).mean() >= 0.95
    static = ~mover_gt.mover_mask & ~mover_gt.occlusion
    assert np.abs(gap[static]).max() < 1e-9


def test_mover_flow_values(mover_gt):
    on = mover_gt.mover_mask
    assert np.abs(mover_gt.flow_fwd[on] - np.array([-6.0, 3.0])).max() < 1e-12
    off = ~on
    assert np.abs(mover_gt.flow_fwd[off][:, 0] - 5.0).max() < 1e-9


def test_mover_background_occluded_where_patch_lands(mover_gt):
    # patch box moves to x in [23.5, 35.5), y in [24.5, 36.5) at t+1; a
    # background pixel flowing (5, 0) into that box loses its counterpart
    assert mover_gt.occlusion[30, 20]
    assert not mover_gt.occlusion[30, 5]
    assert not mover_gt.occlusion[mover_gt.mover_mask].any()


def test_mover_gt_photometric_near_zero(mover_gt):
    warped, _ = inverse_warp(mover_gt.image_t1, mover_gt.flow_fwd)
    # the census core on the one channel of the rendered images
    ((loss, _),) = census_terms(mover_gt.image_t[..., 0], [(warped[..., 0], ~mover_gt.occlusion)], CensusParams())
    assert loss < 1e-6


# ---------------------------------------------------------------------------
# slanted and lowtex presets


def test_slanted_flows_match_rigid_geometry(slanted_gt):
    rigid, valid = rigid_flow(slanted_gt.depth_t, slanted_gt.intrinsics, slanted_gt.pose)
    assert valid.all()
    assert np.array_equal(slanted_gt.flow_fwd, rigid)
    assert slanted_gt.depth_t.std() > 0.01  # genuinely non-constant depth


def test_slanted_forward_backward_cycle_closes(slanted_gt):
    valid = fb_check(slanted_gt.flow_fwd, slanted_gt.flow_bwd)
    interior = ~slanted_gt.occlusion
    assert valid[interior].mean() > 0.9


@pytest.mark.parametrize("kwargs", [{}, {"width": 33, "height": 20, "seed": 5}])
def test_lowtex_is_the_plane_preset_with_low_contrast(kwargs):
    # the plane's pose and planes, on a centred camera, every other field
    # at its default but the texture's contrast
    width, height = kwargs.get("width", 64), kwargs.get("height", 64)
    plane = preset("plane", width=width, height=height, seed=kwargs.get("seed", 43))
    want = SceneSpec(
        width=width,
        height=height,
        fx=100.0,
        fy=100.0,
        cx=(width - 1) / 2.0,
        cy=(height - 1) / 2.0,
        pose_params=plane.pose_params,
        planes=plane.planes,
        texture=TextureParams(contrast=0.002),
    )
    assert preset("lowtex", **kwargs) == want


def test_lowtex_has_nearly_flat_images():
    gt = render(preset("lowtex"))
    assert gt.image_t.std() < 0.002
    assert np.abs(gt.flow_fwd[..., 0] - 8.0).max() < 1e-9


# ---------------------------------------------------------------------------
# spec validation and file loading


def test_preset_unknown_name():
    with pytest.raises(ValueError, match="unknown preset"):
        preset("nonesuch")


def test_scene_spec_validation():
    with pytest.raises(ValueError, match="at least 2x2"):
        SceneSpec(1, 64, 100.0, 100.0, 0.0, 0.0, (0.0,) * 6, (PlaneSpec((0, 0, 1), 5.0, 0),))
    with pytest.raises(ValueError, match="at least one plane"):
        SceneSpec(64, 64, 100.0, 100.0, 0.0, 0.0, (0.0,) * 6, ())
    with pytest.raises(ValueError, match="6 entries"):
        SceneSpec(64, 64, 100.0, 100.0, 0.0, 0.0, (0.0,) * 5, (PlaneSpec((0, 0, 1), 5.0, 0),))
    with pytest.raises(ValueError, match=r"^fy must be positive, got 0\.0$"):
        SceneSpec(64, 64, 100.0, 0.0, 0.0, 0.0, (0.0,) * 6, (PlaneSpec((0, 0, 1), 5.0, 0),))
    with pytest.raises(ValueError, match=r"^normal must be nonzero, got \(0, 0, 0\)$"):
        PlaneSpec((0, 0, 0), 5.0, 0)


@pytest.mark.parametrize("scale", [1e-200, 5e-324, 1e200, 1e308])
def test_plane_normal_of_any_magnitude_is_judged_and_normalised(scale, tmp_path):
    """The normal is judged nonzero and normalised without its norm under-
    or overflowing."""
    n = PlaneSpec((scale, 0.0, scale), 5.0, 0).unit_normal()
    assert np.allclose(n, [np.sqrt(0.5), 0.0, np.sqrt(0.5)], rtol=1e-15, atol=0.0)
    assert PlaneSpec((0.0, -scale, 0.0), 5.0, 0).unit_normal().tolist() == [0.0, -1.0, 0.0]
    path = tmp_path / "scene.cfg"
    write_scene(path, "plane", f"{scale!r}, 0, {scale!r}, 6.0, 11")
    gt = render(load_scene_spec(path))
    assert np.all(np.isfinite(gt.depth_t)) and np.all(gt.depth_t > 0.0)


def test_preset_unit_normals_are_the_plain_quotient():
    for name in PRESETS:
        for plane in preset(name).planes:
            n = np.asarray(plane.normal, dtype=float)
            assert plane.unit_normal().tobytes() == (n / np.linalg.norm(n)).tobytes(), name


def test_patch_spec_validation():
    with pytest.raises(ValueError, match="depth"):
        PatchSpec(0.0, 0.0, 4.0, 4.0, -1.0, None, 0)
    with pytest.raises(ValueError, match="size"):
        PatchSpec(0.0, 0.0, 0.0, 4.0, 2.0, None, 0)


def test_static_patch_rejects_rotating_camera():
    spec = SceneSpec(
        width=32,
        height=32,
        fx=100.0,
        fy=100.0,
        cx=15.5,
        cy=15.5,
        pose_params=(0.0, 0.0, 0.1, 0.1, 0.0, 0.0),
        planes=(PlaneSpec((0.0, 0.0, 1.0), 5.0, 1),),
        patches=(PatchSpec(10.0, 10.0, 8.0, 8.0, 2.0, None, 2),),
    )
    with pytest.raises(ValueError, match="in-plane"):
        render(spec)


def test_plane_behind_camera_rejected():
    spec = SceneSpec(
        width=32,
        height=32,
        fx=100.0,
        fy=100.0,
        cx=15.5,
        cy=15.5,
        pose_params=(0.0,) * 6,
        planes=(PlaneSpec((0.0, 0.0, 1.0), -5.0, 1),),
    )
    with pytest.raises(ValueError, match="front of the camera"):
        render(spec)


def test_sideways_plane_rejected():
    spec = SceneSpec(
        width=32,
        height=32,
        fx=100.0,
        fy=100.0,
        cx=15.5,
        cy=15.5,
        pose_params=(0.0,) * 6,
        planes=(PlaneSpec((1.0, 0.0, 0.0), 5.0, 1),),
    )
    with pytest.raises(ValueError, match="front of the camera"):
        render(spec)


def test_load_scene_spec_round_trip(tmp_path):
    text = "\n".join(
        [
            "# synthetic two-layer scene",
            "width = 48",
            "height = 40",
            "fx = 90",
            "fy = 90",
            "cx = 23.5",
            "cy = 19.5",
            "pose = 0, 0, 0, 0.2, 0, 0",
            "plane = 0, 0, 1, 6.0, 11",
            "static_patch = 10, 8, 12, 12, 3.0, 12",
            "patch = 28, 20, 8, 8, 2.0, -4, 2, 13",
            "texture_contrast = 0.7",
        ]
    )
    path = tmp_path / "scene.cfg"
    path.write_text(text)
    spec = load_scene_spec(path)
    assert spec.width == 48 and spec.height == 40
    assert spec.fx == 90.0 and spec.cy == 19.5
    assert spec.pose_params == (0.0, 0.0, 0.0, 0.2, 0.0, 0.0)
    assert len(spec.planes) == 1 and spec.planes[0].offset == 6.0
    assert len(spec.patches) == 2
    assert spec.patches[0].motion is None and spec.patches[0].seed == 12
    assert spec.patches[1].motion == (-4.0, 2.0)
    assert spec.texture.contrast == 0.7
    render(spec)  # loadable scene must also be renderable


def test_load_scene_spec_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("width = 32\n")
    with pytest.raises(ValueError, match="missing required scene key"):
        load_scene_spec(path)
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="key=value"):
        load_scene_spec(path)
    path.write_text("width=32\nheight=32\nfx=1\nfy=1\ncx=0\ncy=0\nplane=1,2\n")
    with pytest.raises(ValueError, match="plane needs 5 fields"):
        load_scene_spec(path)
    path.write_text(
        "width=32\nheight=32\nfx=100\nfy=100\ncx=15.5\ncy=15.5\nplane=0,0,1,5,1\nwheels=4\n"
    )
    with pytest.raises(ValueError, match="unknown scene keys: wheels"):
        load_scene_spec(path)
    path.write_text("width=32\n = 3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: expected key=value$"):
        load_scene_spec(path)


# every key of a scene file, each with a valid value, one per line in order
VALID_SCENE = {
    "width": "48",
    "height": "40",
    "fx": "90",
    "fy": "90",
    "cx": "23.5",
    "cy": "19.5",
    "pose": "0, 0, 0, 0.2, 0, 0",
    "plane": "0, 0, 1, 6.0, 11",
    "static_patch": "10, 8, 12, 12, 3.0, 12",
    "patch": "28, 20, 8, 8, 2.0, -4, 2, 13",
    "texture_octaves": "3",
    "texture_base_scale": "2.0",
    "texture_contrast": "0.7",
    "texture_patch_scale": "12",
}


def write_scene(path, key, value):
    """The valid scene with `value` for `key`; returns the key's line number."""
    path.write_text("".join(f"{k} = {value if k == key else v}\n" for k, v in VALID_SCENE.items()), "utf-8")
    return list(VALID_SCENE).index(key) + 1


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("plane", "0,0,1,x,3", "plane must be 5 finite numbers, the last an integer, got '0,0,1,x,3'"),
        ("plane", "0,0,1,5,nan", "plane must be 5 finite numbers, the last an integer, got '0,0,1,5,nan'"),
        ("patch", "28, 20, 8, 8, 2.0, -4, 2, 1.5", "patch must be 8 finite numbers, the last an integer, "
         "got '28, 20, 8, 8, 2.0, -4, 2, 1.5'"),
        ("width", "abc", "width must be an integer, got 'abc'"),
        ("fx", "inf", "fx must be a finite number, got 'inf'"),
        ("width", "1", "width must be at least 2 (a scene is at least 2x2), got 1"),
        ("width", "100001", "width must be at most 100000, got 100001"),
        ("texture_octaves", "0", "texture_octaves must be >= 1, got 0"),
        ("static_patch", "10, 8, 12, 12, -3.0, 12", "static_patch depth must be positive, got -3.0"),
        ("fx", "0", "fx must be positive, got 0.0"),
        ("fy", "-90", "fy must be positive, got -90.0"),
        ("plane", "0,0,0,5,3", "plane normal must be nonzero, got (0.0, 0.0, 0.0)"),
    ],
)
def test_load_scene_spec_names_the_file_line_and_key(tmp_path, key, value, message):
    path = tmp_path / "scene.cfg"
    lineno = write_scene(path, key, value)
    with pytest.raises(ValueError) as err:
        load_scene_spec(path)
    assert str(err.value) == f"{path}:{lineno}: {message}"


_VALUE_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n")),
    st.integers().map(str),
    st.floats().map(repr),
    st.lists(st.floats(), min_size=1, max_size=9).map(lambda xs: ",".join(map(repr, xs))),
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(VALID_SCENE)), value=_VALUE_TEXT)
def test_load_scene_spec_of_any_value_builds_or_names_the_key(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.cfg"
        lineno = write_scene(path, key, value)
        try:
            spec = load_scene_spec(path)
        except ValueError as err:
            assert str(err).startswith(f"{path}:{lineno}: {key} "), str(err)
        else:
            assert isinstance(spec, SceneSpec)
