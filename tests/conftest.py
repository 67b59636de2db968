import numpy as np
import pytest

from rigidflow.camera import params_from_pose
from rigidflow.losses import _census_reference, _census_terms, _fb_depth_terms, _fb_flow_terms, _inverse_counts
from rigidflow.optimize import SceneState
from rigidflow.sampling import Workspace
from rigidflow.scenes import preset, render


@pytest.fixture(scope="session")
def plane_gt():
    return render(preset("plane"))


@pytest.fixture(scope="session")
def depth_edge_gt():
    return render(preset("depth_edge"))


@pytest.fixture(scope="session")
def mover_gt():
    return render(preset("mover"))


@pytest.fixture(scope="session")
def slanted_gt():
    return render(preset("slanted"))


def planar(a):
    """The planar (C, H, W) view of a channel-last (H, W, C) array, as the
    objective and the sampler hold multi-channel fields; (H, W) as it is."""
    return np.moveaxis(a, -1, 0) if np.ndim(a) == 3 else a


def channel_last(a):
    """The channel-last view of a planar (C, H, W) array; (H, W) as it is."""
    return np.moveaxis(a, 0, -1) if np.ndim(a) == 3 else a


def state_from_gt(gt) -> SceneState:
    return SceneState(
        depth_t=gt.depth_t.copy(),
        depth_t1=gt.depth_t1.copy(),
        pose_params=params_from_pose(gt.pose),
        flow_fwd=gt.flow_fwd.copy(),
        flow_bwd=gt.flow_bwd.copy(),
    )


def scatter(plan, g):
    """plan.scatter of g into a new array: the plan's grid, with g's channel axis if any."""
    return plan.scatter(g, np.empty(np.shape(g)[: np.ndim(g) - plan.i00.ndim] + plan.shape))


def census_terms(ref, branches, params, grads=True):
    """The census core on ref's reference descriptors, against (warped,
    mask) branches, each mask with its counts, as the level objective calls it."""
    branches = [(warped, mask, _inverse_counts(mask)) for warped, mask in branches]
    return _census_terms(_census_reference(ref, params), branches, params, grads, Workspace())


def fb_flow_terms(fwd, plan, cycle, mask):
    """The fb flow core over mask, with its counts."""
    return _fb_flow_terms(fwd, plan, cycle, mask, _inverse_counts(mask), True, Workspace())


def fb_depth_terms(depth_t, depth_t1, plan, mask):
    """The fb depth core over mask, with its counts."""
    return _fb_depth_terms(depth_t, depth_t1, plan, mask, _inverse_counts(mask), True, Workspace())


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
