"""Perception-control coupled visual servoing.

An SE(3) error-state EKF tracks a known object's pose from noisy 2D
keypoints and a motion prior; a probabilistic PBVS law turns the belief
into a camera twist with covariance and entropy, which feeds back as the
next frame's motion prior. A deterministic closed-loop simulator plus
metrics and a CLI make the whole loop reproducible end to end.
"""

from .camera import Intrinsics
from .control import (
    ControlConfig,
    apply_policy,
    clamp_twist,
    entropy,
    pbvs_law,
    relative_pose,
    velocity_covariance,
    velocity_jacobian,
)
from .ekf import (
    FilterState,
    NoiseParams,
    SingularInnovation,
    UpdateResult,
    initialize,
    measurement_jacobian,
    propagate,
    update,
)
from .keypoints import (
    KeypointSet,
    Measurement,
    ObjectModel,
    SensingProfile,
    TooFewPoints,
    fps_select,
    load_object_points,
    measure,
    predict_keypoints,
)
from .lie import (
    Pose,
    exp_se3,
    exp_so3,
    hat,
    log_so3,
    orthonormalize,
    pose_boxminus,
    pose_boxplus,
    right_jacobian,
    right_jacobian_inv,
)
from .metrics import (
    Summary,
    add_metric,
    length_ratio,
    nees,
    success,
    summarize,
    te_re,
    trajectory_length,
    uncertainty_correlation,
)
from .simulator import (
    BatchResult,
    EpisodeRecord,
    InfeasibleScenario,
    PoseSampler,
    Scenario,
    geodesic_reference,
    run_batch,
    run_episode,
    run_episodes,
    sample_poses,
    step_dynamics,
)

__version__ = "0.1.0"
