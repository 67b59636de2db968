"""rigidflow: joint depth, pose, and optical-flow refinement on frame pairs.

A geometric-consistency engine: rigid flow synthesized from depth and
camera motion, differentiable warping, a census-based photometric loss with
edge-aware smoothness, forward-backward and cross-task consistency terms,
hand-written analytic gradients, and a direct Adam refinement harness, plus
synthetic scenes with exact ground truth, evaluation metrics, and file I/O.
"""

from .camera import (
    Intrinsics,
    PoseSE3,
    compose,
    invert,
    params_from_pose,
    pose_from_params,
    project_pixel,
    rigid_flow,
)
from .losses import (
    CensusParams,
    LossReport,
    LossWeights,
    NonFiniteLossError,
    cross_task_loss,
    fb_depth_loss,
    fb_flow_loss,
    photometric_loss,
    smoothness_loss,
)
from .masks import FBCheckParams, fb_check, intersect
from .metrics import DepthMetrics, FlowMetrics, depth_metrics, flow_metrics
from .optimize import (
    AdamMoments,
    DivergenceError,
    OptimizerConfig,
    SceneState,
    StateGrad,
    evaluate,
    make_initial_state,
    refine,
    step,
)
from .sampling import bilinear_sample, inverse_warp
from .scenes import GroundTruth, SceneSpec, preset, render
from .flowio import read_flo, read_pfm, write_flo, write_pfm

__version__ = "0.1.0"
