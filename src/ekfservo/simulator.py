"""Closed-loop servoing episodes: ground-truth kinematics, synthetic
sensing, pose estimation, control, and actuation noise.

The object frame doubles as the world frame (the object is static), so the
camera pose is simply the inverse of the tracked object-in-camera pose.
Per frame the loop runs: propagate the belief with the previous command,
measure, gate + update, compute the control twist, then move the camera by
the commanded twist corrupted with actuation noise. The filter always
propagates with the *commanded* twist; the executed one is unobserved,
which is what makes actuation noise a filter disturbance.

Episodes are pure functions of (scenario, seed); batches give each trial
seed = base seed + trial index, so results are identical at any
parallelism level.
"""
from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .camera import DEFAULT_Z_MIN, Intrinsics, in_image, project_points
from .control import (
    ControlConfig,
    Twist,
    TwistWithUncertainty,
    apply_policy,
    clamp_twist,
    entropy,
    pbvs_law,
    relative_pose,
    velocity_covariance,
    velocity_jacobian,
)
from .ekf import (
    NoiseParams,
    SingularInnovation,
    initialize,
    predict_keypoints,
    propagate,
    update,
)
from .keypoints import (
    KeypointSet,
    ObjectModel,
    SensingProfile,
    fps_select,
    measure,
)
from .lie import Pose, exp_se3, exp_so3, orthonormalize, pose_boxplus
from .pnp import refine_pose

logger = logging.getLogger(__name__)

VARIANTS = ("coupled-ekf", "pbvs-perframe", "none")

# Canonical "looking down" camera: object axes expressed in the camera
# frame when the camera hovers above the object with its optical axis
# pointing at it.
LOOK_DOWN = np.diag([1.0, -1.0, -1.0])


class InfeasibleScenario(RuntimeError):
    """Pose sampling could not produce a fully observable initial view."""


@dataclass(frozen=True)
class PoseSampler:
    """Camera placement distribution: `height` meters above the object,
    uniform +/- translation_var per axis, and a rotation of the object
    orientation about its own center by a uniform-axis, uniform-angle
    perturbation up to rotation_max_deg."""

    height: float
    translation_var: float = 0.0
    rotation_max_deg: float = 0.0

    def sample(self, rng: np.random.Generator) -> Pose:
        offset = rng.uniform(-self.translation_var, self.translation_var, size=3)
        axis = rng.standard_normal(3)
        axis /= max(np.linalg.norm(axis), 1e-12)
        angle = rng.uniform(-1.0, 1.0) * np.deg2rad(self.rotation_max_deg)
        c = exp_so3(axis * angle) @ LOOK_DOWN
        return Pose(c, np.array([0.0, 0.0, self.height]) + offset)


@dataclass(frozen=True)
class Scenario:
    intrinsics: Intrinsics
    model: ObjectModel
    sensing: SensingProfile
    filter_noise: NoiseParams
    control: ControlConfig
    initial_pose: PoseSampler
    desired_pose: PoseSampler
    n_keypoints: int = 8
    dt: float = 1.0 / 30.0
    max_frames: int = 450
    actuation_sigma_v: float = 0.0
    actuation_sigma_w: float = 0.0
    init_sigma_t: float = 0.0
    init_sigma_phi: float = 0.0
    v_eps: float = 1e-3
    k_hold: int = 10
    gate_level: float = 0.999
    # During acquisition the init error can exceed the linearized update's
    # validity, leaving residuals the gate would reject forever; the first
    # few updates therefore accept everything.
    gate_warmup_frames: int = 10
    z_min: float = DEFAULT_Z_MIN
    propagation_variant: str = "left"
    uncertainty_policy: bool = True
    variant: str = "coupled-ekf"
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.max_frames < 1:
            raise ValueError("max_frames must be >= 1")
        if self.n_keypoints < 4:
            raise ValueError("n_keypoints must be >= 4")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


@dataclass
class EpisodeRecord:
    """Full per-frame log of one servoing trial."""

    seed: int
    variant: str
    desired: Pose
    initial_gt: Pose
    control: ControlConfig
    dt: float
    v_eps: float
    k_hold: int
    max_frames: int
    converged: bool = False
    failure: str | None = None
    # per-frame arrays, filled by run_episode
    gt_C: np.ndarray = field(default=None)
    gt_t: np.ndarray = field(default=None)
    est_C: np.ndarray = field(default=None)
    est_t: np.ndarray = field(default=None)
    P: np.ndarray = field(default=None)
    cmd: np.ndarray = field(default=None)
    raw: np.ndarray = field(default=None)
    twist_cov: np.ndarray = field(default=None)
    entropy: np.ndarray = field(default=None)
    resid_rms: np.ndarray = field(default=None)
    n_visible: np.ndarray = field(default=None)
    n_used: np.ndarray = field(default=None)
    final_gt: Pose = None

    @property
    def frames(self) -> int:
        return 0 if self.gt_t is None else self.gt_t.shape[0]

    def camera_positions(self) -> np.ndarray:
        """World-frame camera positions per frame plus the terminal pose."""
        pos = [-(self.gt_C[k].T @ self.gt_t[k]) for k in range(self.frames)]
        pos.append(-(self.final_gt.C.T @ self.final_gt.t))
        return np.array(pos)


def sample_poses(scenario: Scenario, kps: KeypointSet,
                 rng: np.random.Generator,
                 max_tries: int = 100) -> tuple[Pose, Pose]:
    """Draw (initial, desired) object poses; the initial pose is resampled
    until every keypoint is observable, up to max_tries."""
    desired = scenario.desired_pose.sample(rng)
    for _ in range(max_tries):
        initial = scenario.initial_pose.sample(rng)
        pts_c = initial.apply(kps.points3d)
        uv, in_front = project_points(pts_c, scenario.intrinsics, scenario.z_min)
        if bool(np.all(in_front & in_image(uv, scenario.intrinsics))):
            return initial, desired
    raise InfeasibleScenario(
        f"no fully observable initial pose in {max_tries} draws")


def step_dynamics(gt_co: Pose, cmd: Twist, sigma_v: float, sigma_w: float,
                  dt: float, rng: np.random.Generator) -> Pose:
    """Execute a commanded twist corrupted by Gaussian actuation noise.

    The camera world pose integrates the executed body twist exactly on
    SE(3); the object stays fixed in the world.
    """
    noise = np.concatenate([sigma_v * rng.standard_normal(3),
                            sigma_w * rng.standard_normal(3)])
    return Pose(*_advance(gt_co.C, gt_co.t, cmd.vector() + noise, dt))


def _advance(c_co: np.ndarray, t_co: np.ndarray, xi: np.ndarray,
             dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The object-in-camera pose (c_co, t_co) after the camera executes the
    body twist xi for dt: the camera's world pose (the inverse) composed
    with exp(xi * dt), inverted back and re-orthonormalized."""
    c_wc = c_co.T
    d_c, d_t = exp_se3(xi, dt)
    c_new = c_wc @ d_c
    t_new = c_wc @ d_t + -(c_wc @ t_co)
    c_oc = c_new.T
    return orthonormalize(c_oc), -(c_oc @ t_new)


def run_episode(scenario: Scenario, seed: int | None = None) -> EpisodeRecord:
    """Run one closed-loop trial; deterministic given (scenario, seed)."""
    seed = scenario.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    kps = fps_select(scenario.model, scenario.n_keypoints)
    initial, desired = sample_poses(scenario, kps, rng)

    record = EpisodeRecord(seed=seed, variant=scenario.variant,
                           desired=desired, initial_gt=initial,
                           control=scenario.control, dt=scenario.dt,
                           v_eps=scenario.v_eps, k_hold=scenario.k_hold,
                           max_frames=scenario.max_frames)

    init_delta = np.concatenate([
        scenario.init_sigma_t * rng.standard_normal(3),
        scenario.init_sigma_phi * rng.standard_normal(3)])
    prior = pose_boxplus(initial, init_delta)

    use_ekf = scenario.variant in ("coupled-ekf", "none")
    servo = scenario.variant != "none"
    state = initialize(prior, scenario.init_sigma_t, scenario.init_sigma_phi)
    pnp_pose = prior

    gt = initial
    prev_cmd = np.zeros(6)
    hold = 0
    rows = _FrameRows(scenario.max_frames)

    for k in range(scenario.max_frames):
        if use_ekf and k > 0:
            state = propagate(state, prev_cmd, scenario.dt,
                              scenario.filter_noise,
                              scenario.propagation_variant)
        meas = measure(gt, kps, scenario.intrinsics, scenario.sensing, rng,
                       frame=k, z_min=scenario.z_min)

        if use_ekf:
            level = (1.0 if k < scenario.gate_warmup_frames
                     else scenario.gate_level)
            try:
                res = update(state, meas, kps, scenario.intrinsics,
                             level, z_min=scenario.z_min)
            except SingularInnovation as exc:
                record.failure = f"frame {k}: {exc}"
                break
            state = res.state
            est, p_est = state.mean, state.P
            n_vis, n_used = res.n_visible, int(res.used.sum())
            rms = res.residual_rms
        else:
            refined = refine_pose(pnp_pose, meas, kps, scenario.intrinsics,
                                  z_min=scenario.z_min)
            n_vis = int(meas.visible.sum())
            if refined is not None:
                pnp_pose = refined
                n_used = n_vis
                uv, ok = predict_keypoints(pnp_pose, kps, scenario.intrinsics,
                                           scenario.z_min)
                usable = meas.visible & ok
                rms = (float(np.sqrt(np.mean(
                    (meas.uv[usable] - uv[usable]).ravel()**2)))
                    if np.any(usable) else float("nan"))
            else:
                n_used = 0
                rms = float("nan")
            est, p_est = pnp_pose, np.full((6, 6), np.nan)

        if servo:
            rel = relative_pose(desired, est)
            raw_tw = pbvs_law(rel, scenario.control.lam)
            if use_ekf:
                jac = velocity_jacobian(rel, est, scenario.control)
                vcov = velocity_covariance(jac, state.P)
                ent = entropy(vcov)
                tw = TwistWithUncertainty(
                    clamp_twist(raw_tw, scenario.control), vcov, ent)
                cmd_tw = (apply_policy(tw, scenario.control)
                          if scenario.uncertainty_policy else tw.mean)
            else:
                vcov = np.full((6, 6), np.nan)
                ent = float("nan")
                cmd_tw = clamp_twist(raw_tw, scenario.control)
        else:
            raw_tw = cmd_tw = Twist.zero()
            vcov = np.full((6, 6), np.nan)
            ent = float("nan")

        cmd_vec = cmd_tw.vector()
        if not (np.all(np.isfinite(est.t)) and np.all(np.isfinite(cmd_vec))):
            record.failure = f"frame {k}: non-finite estimate or command"
            break

        rows.append(gt, est, p_est, cmd_vec, raw_tw.vector(), vcov, ent,
                    rms, n_vis, n_used)

        if servo:
            hold = hold + 1 if np.linalg.norm(cmd_vec) < scenario.v_eps else 0
            if hold >= scenario.k_hold:
                record.converged = True
                break
        prev_cmd = cmd_vec
        gt = step_dynamics(gt, cmd_tw, scenario.actuation_sigma_v,
                           scenario.actuation_sigma_w, scenario.dt, rng)

    record.final_gt = gt
    rows.store(record)
    if record.failure:
        logger.debug("episode seed=%d failed: %s", seed, record.failure)
    return record


def geodesic_reference(initial: Pose, desired: Pose, cfg: ControlConfig,
                       dt: float, v_eps: float, k_hold: int,
                       max_frames: int) -> np.ndarray:
    """Camera positions of the noise-free, perfect-information servo
    rollout between the same poses: the shortest-path reference."""
    gt = initial
    positions = []
    hold = 0
    for _ in range(max_frames):
        positions.append(-(gt.C.T @ gt.t))
        cmd = clamp_twist(pbvs_law(relative_pose(desired, gt), cfg.lam),
                          cfg).vector()
        hold = hold + 1 if math.sqrt(cmd.dot(cmd)) < v_eps else 0
        if hold >= k_hold:
            break
        gt = Pose(*_advance(gt.C, gt.t, cmd, dt))
    positions.append(-(gt.C.T @ gt.t))
    return np.array(positions)


def geodesic_reference_for(record: EpisodeRecord) -> np.ndarray:
    return geodesic_reference(record.initial_gt, record.desired,
                              record.control, record.dt, record.v_eps,
                              record.k_hold, record.max_frames)


@dataclass
class BatchResult:
    records: list
    summary: "object"  # metrics.Summary; typed loosely to avoid a cycle


def run_batch(scenario: Scenario, trials: int,
              parallelism: int = 1) -> BatchResult:
    """Independent trials with seeds base+0 .. base+trials-1, merged in
    trial order; the result is identical at any parallelism level."""
    from .metrics import summarize  # local import: metrics depends on us

    seeds = [scenario.seed + i for i in range(trials)]
    if parallelism <= 1 or trials <= 1:
        records = [run_episode(scenario, s) for s in seeds]
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            records = list(pool.map(_episode_task,
                                    [(scenario, s) for s in seeds]))
    return BatchResult(records, summarize(records, scenario.model))


def _episode_task(args) -> EpisodeRecord:
    scenario, seed = args
    return run_episode(scenario, seed)


class _FrameRows:
    """Per-frame quantities, written into arrays preallocated to max_frames
    and cut to the recorded frames when stored."""

    def __init__(self, max_frames: int):
        self.k = 0
        self.gt_C = np.empty((max_frames, 3, 3))
        self.gt_t = np.empty((max_frames, 3))
        self.est_C = np.empty((max_frames, 3, 3))
        self.est_t = np.empty((max_frames, 3))
        self.P = np.empty((max_frames, 6, 6))
        self.cmd = np.empty((max_frames, 6))
        self.raw = np.empty((max_frames, 6))
        self.twist_cov = np.empty((max_frames, 6, 6))
        self.entropy = np.empty(max_frames)
        self.resid_rms = np.empty(max_frames)
        self.n_visible = np.empty(max_frames, dtype=int)
        self.n_used = np.empty(max_frames, dtype=int)

    def append(self, gt, est, p, cmd, raw, vcov, ent, rms, n_vis, n_used):
        k = self.k
        self.gt_C[k] = gt.C
        self.gt_t[k] = gt.t
        self.est_C[k] = est.C
        self.est_t[k] = est.t
        self.P[k] = p
        self.cmd[k] = cmd
        self.raw[k] = raw
        self.twist_cov[k] = vcov
        self.entropy[k] = ent
        self.resid_rms[k] = rms
        self.n_visible[k] = n_vis
        self.n_used[k] = n_used
        self.k = k + 1

    def store(self, record: EpisodeRecord):
        for name in ("gt_C", "gt_t", "est_C", "est_t", "P", "cmd", "raw",
                     "twist_cov", "entropy", "resid_rms", "n_visible",
                     "n_used"):
            setattr(record, name, getattr(self, name)[:self.k].copy())
