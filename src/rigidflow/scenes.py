"""Analytic synthetic scenes with exact ground truth.

Geometry is a set of infinite textured planes plus optional bounded
fronto-parallel patches. Patches either ride with the static world or carry
their own image-space motion (movers). Everything — images, depths, flows,
occlusion — is evaluated analytically per pixel, so ground truth carries no
resampling error; presets additionally pick camera motions whose pixel
displacements are integers, which makes bilinear lookups at ground-truth
correspondences exact gathers.

Texture is multi-octave value noise over frame-t world coordinates (hashed
integer lattice, quintic interpolation), so corresponding pixels in the two
frames see the same material value by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._checks import MAX_SIDE, FieldError, check_fields
from .camera import Intrinsics, PoseSE3, invert, pose_from_params, rigid_flow

__all__ = [
    "TextureParams",
    "PlaneSpec",
    "PatchSpec",
    "SceneSpec",
    "GroundTruth",
    "value_noise",
    "render",
    "load_scene_spec",
    "preset",
    "PRESETS",
]


@dataclass(frozen=True)
class TextureParams:
    octaves: int = 3
    base_scale: float = 2.0  # wavelength of the coarsest octave, world units
    contrast: float = 0.9
    patch_scale: float = 12.0  # patch-texture wavelength, pixels

    def __post_init__(self):
        check_fields(self, ("octaves",), lambda v: v >= 1, ">= 1")
        check_fields(self, ("base_scale", "patch_scale"), lambda v: v > 0.0, "positive")
        check_fields(self, ("contrast",), lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


@dataclass(frozen=True)
class PlaneSpec:
    """Infinite plane {X : normal . X = offset} (normal need not be unit)."""

    normal: tuple
    offset: float
    seed: int

    def __post_init__(self):
        check_fields(self, ("normal",), lambda v: np.max(np.abs(np.asarray(v, dtype=float))) > 0.0, "nonzero")

    def unit_normal(self) -> np.ndarray:
        n = np.asarray(self.normal, dtype=float)
        # a power-of-two scale is exact, and keeps the norm from under- or overflowing
        n = np.ldexp(n, -np.frexp(np.max(np.abs(n)))[1])
        return n / np.linalg.norm(n)


@dataclass(frozen=True)
class PatchSpec:
    """Bounded fronto-parallel rectangle at fixed depth.

    The box covers pixel centers [x0, x0+width) x [y0, y0+height) in frame t.
    motion is the patch's own image-space displacement; None means the patch
    is static world geometry and moves with the camera.
    """

    x0: float
    y0: float
    width: float
    height: float
    depth: float
    motion: tuple | None
    seed: int

    def __post_init__(self):
        check_fields(self, ("depth",), lambda v: v > 0.0, "positive")
        check_fields(self, ("width", "height"), lambda v: v > 0.0, "a positive size")


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    pose_params: tuple
    planes: tuple
    patches: tuple = ()
    texture: TextureParams = TextureParams()

    def __post_init__(self):
        check_fields(self, ("width", "height"), lambda v: v >= 2, "at least 2 (a scene is at least 2x2)")
        check_fields(self, ("width", "height"), lambda v: v <= MAX_SIDE, f"at most {MAX_SIDE}")
        check_fields(self, ("fx", "fy"), lambda v: v > 0.0, "positive")
        if len(self.planes) == 0:
            raise ValueError("scene needs at least one plane")
        if len(tuple(self.pose_params)) != 6:
            raise ValueError("pose_params must have 6 entries")

    def intrinsics(self) -> Intrinsics:
        return Intrinsics(self.fx, self.fy, self.cx, self.cy)

    def pose(self) -> PoseSE3:
        return pose_from_params(np.asarray(self.pose_params, dtype=float))


@dataclass
class GroundTruth:
    """Exact per-pixel ground truth of a rendered scene pair."""

    image_t: np.ndarray
    image_t1: np.ndarray
    depth_t: np.ndarray
    depth_t1: np.ndarray
    flow_fwd: np.ndarray
    flow_bwd: np.ndarray
    occlusion: np.ndarray  # frame-t pixels without a visible counterpart
    mover_mask: np.ndarray  # frame-t pixels on independently moving patches
    pose: PoseSE3
    intrinsics: Intrinsics


# ---------------------------------------------------------------------------
# value noise


def _mix64(h: np.ndarray) -> np.ndarray:
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _lattice01(ix, iy, iz, seed: int) -> np.ndarray:
    """Deterministic pseudo-random value in [0, 1) per integer lattice point."""
    seed_term = np.uint64((seed * 0xD6E8FEB86659FD93) & 0xFFFFFFFFFFFFFFFF)
    h = (
        ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ^ iy.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
        ^ iz.astype(np.uint64) * np.uint64(0x165667B19E3779F9)
        ^ seed_term
    )
    return _mix64(h).astype(np.float64) / float(2**64)


def _fade(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)


def value_noise(points: np.ndarray, params: TextureParams, seed: int) -> np.ndarray:
    """Multi-octave 3-D value noise in [0, 1], smooth in the points.

    points has shape (..., 3) in world units; octave o halves the wavelength
    and the amplitude of octave o-1.
    """
    points = np.asarray(points, dtype=float)
    acc = np.zeros(points.shape[:-1])
    amp = 1.0
    norm = 0.0
    freq = 1.0 / params.base_scale
    for octave in range(params.octaves):
        p = points * freq
        i0 = np.floor(p)
        f = p - i0
        i0 = i0.astype(np.int64)
        ix, iy, iz = i0[..., 0], i0[..., 1], i0[..., 2]
        oseed = seed * 1000003 + octave
        c000 = _lattice01(ix, iy, iz, oseed)
        c100 = _lattice01(ix + 1, iy, iz, oseed)
        c010 = _lattice01(ix, iy + 1, iz, oseed)
        c110 = _lattice01(ix + 1, iy + 1, iz, oseed)
        c001 = _lattice01(ix, iy, iz + 1, oseed)
        c101 = _lattice01(ix + 1, iy, iz + 1, oseed)
        c011 = _lattice01(ix, iy + 1, iz + 1, oseed)
        c111 = _lattice01(ix + 1, iy + 1, iz + 1, oseed)
        ux, uy, uz = _fade(f[..., 0]), _fade(f[..., 1]), _fade(f[..., 2])
        x00 = c000 + ux * (c100 - c000)
        x10 = c010 + ux * (c110 - c010)
        x01 = c001 + ux * (c101 - c001)
        x11 = c011 + ux * (c111 - c011)
        y0 = x00 + uy * (x10 - x00)
        y1 = x01 + uy * (x11 - x01)
        acc += amp * ((y0 + uz * (y1 - y0)) - 0.5)
        norm += amp
        amp *= 0.5
        freq *= 2.0
    return 0.5 + params.contrast * (acc / norm)


# ---------------------------------------------------------------------------
# rendering


def _plane_depths(spec: SceneSpec, rays: np.ndarray, pose: PoseSE3 | None):
    """Depth of each plane along each pixel ray, (P, H, W).

    pose=None keeps the planes in frame t; otherwise they are mapped into
    frame t+1 (normal rotates, offset shifts by the translation component).
    """
    depths = []
    for plane in spec.planes:
        n = plane.unit_normal()
        off = float(plane.offset)
        if pose is not None:
            n = pose.rotation @ n
            off = off + float(n @ pose.translation)
        denom = rays @ n
        if np.any(denom <= 1e-9):
            raise ValueError("plane is not in front of the camera across the image")
        d = off / denom
        if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
            raise ValueError("plane is not in front of the camera across the image")
        depths.append(d)
    return np.stack(depths, axis=0)


def _patch_shifts(spec: SceneSpec):
    """Image-space (dx, dy) shift of each patch from frame t to frame t+1."""
    pose = spec.pose()
    shifts = []
    for patch in spec.patches:
        if patch.motion is None:
            r = pose.rotation
            t = pose.translation
            if np.abs(r - np.eye(3)).max() > 1e-12 or abs(t[2]) > 1e-12:
                raise ValueError(
                    "static patches need a pure in-plane camera translation"
                )
            shift = (spec.fx * t[0] / patch.depth, spec.fy * t[1] / patch.depth)
        else:
            shift = (float(patch.motion[0]), float(patch.motion[1]))
        shifts.append(shift)
    return shifts


def _in_box(xs, ys, x0, y0, w, h):
    # pixel-extent box: covers [x0-0.5, x0+w-0.5) so integer coordinates in
    # [x0, x0+w) are members
    return (
        (xs >= x0 - 0.5)
        & (xs < x0 + w - 0.5)
        & (ys >= y0 - 0.5)
        & (ys < y0 + h - 0.5)
    )


def _surface_and_depth(spec: SceneSpec, xs, ys, rays, frame_t1: bool, shifts):
    """Visible surface id and depth at continuous image points.

    Surface ids: 0..P-1 planes, P+j for patch j. Patches win wherever their
    box contains the point and their depth beats the nearest plane.
    """
    pose = spec.pose() if frame_t1 else None
    depths = _plane_depths(spec, rays, pose)
    surf = np.argmin(depths, axis=0)
    depth = np.take_along_axis(depths, surf[None], axis=0)[0]
    nplanes = len(spec.planes)
    for j, patch in enumerate(spec.patches):
        dx, dy = shifts[j] if frame_t1 else (0.0, 0.0)
        inside = _in_box(xs, ys, patch.x0 + dx, patch.y0 + dy, patch.width, patch.height)
        wins = inside & (patch.depth < depth)
        surf = np.where(wins, nplanes + j, surf)
        depth = np.where(wins, patch.depth, depth)
    return surf, depth


def _shade(spec: SceneSpec, xs, ys, rays, surf, depth, frame_t1: bool, shifts):
    """Texture lookup for every pixel given its visible surface."""
    img = np.zeros(xs.shape)
    pose = spec.pose()
    for i, plane in enumerate(spec.planes):
        sel = surf == i
        if not np.any(sel):
            continue
        pts = rays[sel] * depth[sel][:, None]
        if frame_t1:
            # map back to frame-t world coordinates for a consistent texture
            pts = (pts - pose.translation) @ pose.rotation
        img[sel] = value_noise(pts, spec.texture, plane.seed)
    nplanes = len(spec.planes)
    for j, patch in enumerate(spec.patches):
        sel = surf == nplanes + j
        if not np.any(sel):
            continue
        dx, dy = shifts[j] if frame_t1 else (0.0, 0.0)
        local_x = (xs[sel] - (patch.x0 + dx)) / spec.texture.patch_scale
        local_y = (ys[sel] - (patch.y0 + dy)) / spec.texture.patch_scale
        pts = np.stack([local_x, local_y, np.full_like(local_x, 0.25)], axis=-1)
        img[sel] = value_noise(pts, spec.texture, patch.seed)
    return img


def render(spec: SceneSpec) -> GroundTruth:
    """Render the scene pair with exact ground truth."""
    k = spec.intrinsics()
    pose = spec.pose()
    h, w = spec.height, spec.width
    xs, ys = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))  # (H, W) each
    rays = np.stack([(xs - k.cx) / k.fx, (ys - k.cy) / k.fy, np.ones_like(xs)], axis=-1)
    shifts = _patch_shifts(spec)
    surf_t, depth_t = _surface_and_depth(spec, xs, ys, rays, False, shifts)
    surf_t1, depth_t1 = _surface_and_depth(spec, xs, ys, rays, True, shifts)
    image_t = _shade(spec, xs, ys, rays, surf_t, depth_t, False, shifts)[..., None]
    image_t1 = _shade(spec, xs, ys, rays, surf_t1, depth_t1, True, shifts)[..., None]

    flow_fwd, valid_f = rigid_flow(depth_t, k, pose)
    flow_bwd, valid_b = rigid_flow(depth_t1, k, invert(pose))
    if not (np.all(valid_f) and np.all(valid_b)):
        raise ValueError("scene geometry lands behind the camera")
    nplanes = len(spec.planes)
    mover_t = np.zeros((h, w), dtype=bool)
    for j, patch in enumerate(spec.patches):
        if patch.motion is None:
            continue
        on_patch_t = surf_t == nplanes + j
        on_patch_t1 = surf_t1 == nplanes + j
        mover_t |= on_patch_t
        mx, my = float(patch.motion[0]), float(patch.motion[1])
        flow_fwd[..., 0] = np.where(on_patch_t, mx, flow_fwd[..., 0])
        flow_fwd[..., 1] = np.where(on_patch_t, my, flow_fwd[..., 1])
        flow_bwd[..., 0] = np.where(on_patch_t1, -mx, flow_bwd[..., 0])
        flow_bwd[..., 1] = np.where(on_patch_t1, -my, flow_bwd[..., 1])

    # occlusion: follow the true flow and ask which surface is visible there
    qx = xs + flow_fwd[..., 0]
    qy = ys + flow_fwd[..., 1]
    out = (qx < 0.0) | (qx > w - 1.0) | (qy < 0.0) | (qy > h - 1.0)
    ray_q = np.stack([(qx - k.cx) / k.fx, (qy - k.cy) / k.fy, np.ones_like(qx)], axis=-1)
    surf_q, _ = _surface_and_depth(spec, qx, qy, ray_q, True, shifts)
    occlusion = out | (surf_q != surf_t)

    return GroundTruth(
        image_t=image_t,
        image_t1=image_t1,
        depth_t=depth_t,
        depth_t1=depth_t1,
        flow_fwd=flow_fwd,
        flow_bwd=flow_bwd,
        occlusion=occlusion,
        mover_mask=mover_t,
        pose=pose,
        intrinsics=k,
    )


# ---------------------------------------------------------------------------
# presets and config files


def _centered(width: int, height: int, fx: float = 100.0):
    return dict(
        width=width,
        height=height,
        fx=fx,
        fy=fx,
        cx=(width - 1) / 2.0,
        cy=(height - 1) / 2.0,
    )


def preset_plane(width: int = 64, height: int = 64, depth: float = 5.0, shift_px: float = 8.0, seed: int = 7) -> SceneSpec:
    """Fronto-parallel plane under x-translation.

    The translation is chosen so the ground-truth flow is exactly
    (shift_px, 0) everywhere. The default shift of 8 px stays an integer
    through three rounds of 2x downsampling, so the scene pair is an exact
    pixel shift of itself at every level of a 4-scale pyramid.
    """
    base = _centered(width, height)
    tx = shift_px * depth / base["fx"]
    return SceneSpec(
        pose_params=(0.0, 0.0, 0.0, tx, 0.0, 0.0),
        planes=(PlaneSpec((0.0, 0.0, 1.0), depth, seed),),
        **base,
    )


def preset_depth_edge(width: int = 64, height: int = 64, seed: int = 19) -> SceneSpec:
    """Background plane at 6 with a static patch at 3 under x-translation.

    Shifts are 4 px (background) and 8 px (patch), both integers, so the
    occlusion band at the depth edge is exactly resolvable.
    """
    base = _centered(width, height)
    tx = 0.24  # 100 * 0.24 / 6 = 4 px, / 3 = 8 px
    return SceneSpec(
        pose_params=(0.0, 0.0, 0.0, tx, 0.0, 0.0),
        planes=(PlaneSpec((0.0, 0.0, 1.0), 6.0, seed),),
        patches=(PatchSpec(24.0, 20.0, 16.0, 16.0, 3.0, None, seed + 1),),
        **base,
    )


def preset_mover(width: int = 64, height: int = 64, seed: int = 29) -> SceneSpec:
    """Background plane at 5 plus an independently moving patch at 2.

    Camera translation gives the background a 5 px shift; the patch moves
    (-6, 3) on its own, far from the 12.5 px rigid displacement its depth
    would imply, so rigid-flow forward-backward checks must reject it.
    """
    base = _centered(width, height)
    tx = 0.25
    return SceneSpec(
        pose_params=(0.0, 0.0, 0.0, tx, 0.0, 0.0),
        planes=(PlaneSpec((0.0, 0.0, 1.0), 5.0, seed),),
        patches=(PatchSpec(30.0, 22.0, 12.0, 12.0, 2.0, (-6.0, 3.0), seed + 1),),
        **base,
    )


def preset_slanted(width: int = 64, height: int = 64, seed: int = 37) -> SceneSpec:
    """Two crossing slanted planes under a small rotation plus translation.

    Nothing is integer here; this is the general-position fixture.
    """
    base = _centered(width, height)
    return SceneSpec(
        pose_params=(0.002, -0.004, 0.001, 0.06, -0.02, 0.03),
        planes=(
            PlaneSpec((0.08, 0.0, 1.0), 6.0, seed),
            PlaneSpec((-0.06, 0.04, 1.0), 5.2, seed + 1),
        ),
        **base,
    )


def preset_lowtex(width: int = 64, height: int = 64, seed: int = 43) -> SceneSpec:
    """Nearly textureless plane; photometric gradients carry almost nothing."""
    return replace(preset_plane(width, height, seed=seed), texture=TextureParams(contrast=0.002))


PRESETS = {
    "plane": preset_plane,
    "depth_edge": preset_depth_edge,
    "mover": preset_mover,
    "slanted": preset_slanted,
    "lowtex": preset_lowtex,
}


def preset(name: str, **kwargs) -> SceneSpec:
    if name not in PRESETS:
        raise ValueError(f"unknown preset '{name}' (have: {', '.join(sorted(PRESETS))})")
    return PRESETS[name](**kwargs)


# the keys whose value is a list: its length and its integer fields (seeds)
_SCENE_LISTS = {"plane": (5, (4,)), "patch": (8, (7,)), "static_patch": (6, (5,)), "pose": (6, ())}
_SCENE_INTS = ("width", "height", "texture_octaves")
_SCENE_FLOATS = ("fx", "fy", "cx", "cy", "texture_base_scale", "texture_contrast", "texture_patch_scale")


def _scene_value(where: str, key: str, value: str):
    """The numbers of one scene-file value, a tuple for a list key. ValueError
    naming the key unless every field is finite and every integer field whole."""
    n, ints = _SCENE_LISTS.get(key, (1, (0,) if key in _SCENE_INTS else ()))
    parts = value.split(",")
    if n > 1 and len(parts) != n:
        raise ValueError(f"{where}: {key} needs {n} fields")
    try:
        nums = [float(part) for part in parts]
        if len(nums) != n or not all(map(math.isfinite, nums)) or any(nums[i] % 1 for i in ints):
            raise ValueError
    except ValueError:
        what = f"{n} finite numbers" + (", the last an integer" if ints else "")
        what = what if n > 1 else "an integer" if ints else "a finite number"
        raise ValueError(f"{where}: {key} must be {what}, got {value!r}") from None
    nums = [int(v) if i in ints else v for i, v in enumerate(nums)]
    return tuple(nums) if n > 1 else nums[0]


def load_scene_spec(path) -> SceneSpec:
    """Read a scene from a flat key=value file.

    Repeatable keys:
        plane=nx,ny,nz,offset,seed
        patch=x0,y0,w,h,depth,mx,my,seed
        static_patch=x0,y0,w,h,depth,seed
    Scalar keys: width height fx fy cx cy pose (6 comma floats) and the
    texture_* settings. Lines starting with '#' are comments. A bad value
    raises ValueError naming the file, the line and the key.
    """
    vals, lines = {}, {}  # key -> its last value, and that value's "path:line"
    planes, patches, unknown = [], [], set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not (sep and key):
                raise ValueError(f"{path}:{lineno}: expected key=value")
            where = lines[key] = f"{path}:{lineno}"
            if key not in {*_SCENE_LISTS, *_SCENE_INTS, *_SCENE_FLOATS}:
                unknown.add(key)
                continue
            f = vals[key] = _scene_value(where, key, value)
            try:
                if key == "plane":
                    planes.append(PlaneSpec(f[:3], f[3], f[4]))
                elif key in ("patch", "static_patch"):
                    patches.append(PatchSpec(*f[:5], f[5:7] if key == "patch" else None, f[-1]))
            except FieldError as exc:
                raise ValueError(f"{where}: {key} {exc}") from None
    if unknown:
        raise ValueError(f"{path}: unknown scene keys: {', '.join(sorted(unknown))}")
    missing = {"width", "height", "fx", "fy", "cx", "cy"} - set(vals)
    if missing:
        raise ValueError(f"{path}: missing required scene keys: {', '.join(sorted(missing))}")
    scalars = {key: vals[key] for key in ("width", "height", "fx", "fy", "cx", "cy")}
    texture = {key[len("texture_") :]: v for key, v in vals.items() if key.startswith("texture_")}
    pose = vals.get("pose", (0.0,) * 6)
    try:
        texture = TextureParams(**texture)
        return SceneSpec(**scalars, pose_params=pose, planes=tuple(planes), patches=tuple(patches), texture=texture)
    except FieldError as exc:  # a field of SceneSpec, or of TextureParams behind texture_
        prefix = "" if exc.name in scalars else "texture_"
        raise ValueError(f"{lines[prefix + exc.name]}: {prefix}{exc}") from None
