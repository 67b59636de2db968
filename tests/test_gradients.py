"""Spot finite-difference checks of every analytic gradient block.

The exhaustive sweep (100 coordinates per block, three scenes) lives in the
acceptance suite; here each (term, wrt) block gets a dozen coordinates per
scene so failures localize quickly during development. The coordinates are
drawn from a seed fixed per block, so a failure reruns as it failed.
"""

from dataclasses import replace

import numpy as np
import pytest

from rigidflow import losses
from rigidflow.optimize import evaluate

from gradcheck import SUITE_CENSUS, TERMS, WRTS, check_block, random_scene, suite_cfg

SEEDS = (11, 12, 13)


@pytest.fixture(
    scope="module",
    params=[(seed, kind) for kind in ("small", "odd") for seed in SEEDS] + [(SEEDS[1], "large")],
    ids=lambda p: str(p[0]) if p[1] == "small" else f"{p[1]}-{p[0]}",
)
def case(request):
    """(scene, config, finite-difference step, whether to run one side at a
    time) of one gradient check.

    The odd case runs 45x37 through three edge-replicating levels with a
    radius-2 census; at that size a pose step of 1e-4 carries samples
    across bilinear lattice kinks, so its stencil is 1e-5. The large case
    runs a 64x66 level with `losses.STACKED_PIXELS` at 0, so its terms take
    the one-side path that every level of the other cases skips; its pose
    and census residuals need the same smaller stencil.
    """
    seed, kind = request.param
    if kind == "odd":
        cfg = replace(suite_cfg(), scales=3, census=replace(SUITE_CENSUS, radius=2))
        return random_scene(seed, h=37, w=45), cfg, 1e-5, False
    if kind == "large":
        return random_scene(seed, h=64, w=66), suite_cfg(), 1e-5, True
    return random_scene(seed), suite_cfg(), 1e-4, False


# blocks whose loss term never reads the perturbed variable; their gradients
# must come back exactly zero rather than small
STRUCTURAL_ZEROS = {("smooth", "pose"), ("fb_flow", "depth"), ("fb_flow", "pose"), ("fb_depth", "flow")}


@pytest.mark.parametrize("wrt", WRTS)
@pytest.mark.parametrize("term", TERMS)
def test_block_matches_central_differences(case, term, wrt, monkeypatch):
    scene, cfg, step, one_side = case
    if one_side:
        monkeypatch.setattr(losses, "STACKED_PIXELS", 0)
    rng = np.random.default_rng(len(WRTS) * TERMS.index(term) + WRTS.index(wrt))
    worst, largest = check_block(scene, cfg, term, wrt, n_coords=12, rng=rng, h=step)
    assert worst < 1e-3, (term, wrt, worst)
    if (term, wrt) not in STRUCTURAL_ZEROS:
        assert largest > 0.0, (term, wrt, "block degenerated to zero gradients")


def test_structurally_independent_blocks_are_zero():
    scene = random_scene(SEEDS[0])
    args = (scene.img_t, scene.img_t1, scene.k)
    cfg = suite_cfg()
    _, g_smooth, _ = evaluate(scene.state, *args, cfg, terms=frozenset({"smooth"}))
    assert np.all(g_smooth.pose_params == 0.0)
    _, g_fbf, _ = evaluate(scene.state, *args, cfg, terms=frozenset({"fb_flow"}))
    assert np.all(g_fbf.pose_params == 0.0)
    assert np.all(g_fbf.depth_t == 0.0)
    assert np.all(g_fbf.depth_t1 == 0.0)
    _, g_fbd, _ = evaluate(scene.state, *args, cfg, terms=frozenset({"fb_depth"}))
    assert np.all(g_fbd.flow_fwd == 0.0)
    assert np.all(g_fbd.flow_bwd == 0.0)


def test_full_objective_gradient_is_sum_of_term_gradients():
    scene = random_scene(SEEDS[1])
    args = (scene.img_t, scene.img_t1, scene.k)
    cfg = suite_cfg()
    _, g_all, masks = evaluate(scene.state, *args, cfg)
    total = None
    for term in TERMS:
        _, g, _ = evaluate(scene.state, *args, cfg, masks=masks, terms=frozenset({term}))
        if total is None:
            total = g
        else:
            total.depth_t += g.depth_t
            total.depth_t1 += g.depth_t1
            total.pose_params += g.pose_params
            total.flow_fwd += g.flow_fwd
            total.flow_bwd += g.flow_bwd
    for name in ("depth_t", "depth_t1", "pose_params", "flow_fwd", "flow_bwd"):
        np.testing.assert_allclose(
            getattr(total, name), getattr(g_all, name), rtol=0, atol=1e-12
        )
