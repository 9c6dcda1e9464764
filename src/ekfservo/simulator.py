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
seed = base seed + trial index. An `EpisodeRecord` holds what its trial
did; the settings it ran under are the `Scenario`'s, passed beside it.

One engine, `run_episodes`, runs any number of trials in lockstep, frame
k of every active trial together (README's "Engine" paragraph): one
`propagate`, `measure`, `update` and `step_dynamics` call per frame for
all of them, the commands the [v, w] rows of one (N, 6) array, and one
`velocity_jacobian`, `velocity_covariance`, `entropy` and `apply_policy`
call for the trials that have not failed; the relative pose, servo law,
clamp and PnP refinement run per trial, and the Jacobian reads the stacked
servo errors that the per-trial law returned. A trial leaves when it
converges or fails: `update` and `step_dynamics` take stacks only (one
trial is a stack of one) and return each row's numerical failure in their
`errors`.
Each trial draws from its own Generator in a lone run's order, and the
stacked kernels give it its lone run's bits, so a record does not depend
on the batch width or on `--parallelism`. `run_batch` imports and starts
its worker pool only when it runs more than one worker.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .camera import Intrinsics, in_image
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
    initialize,
    propagate,
    require_finite_square,
    update,
)
from .keypoints import (
    KeypointSet,
    Measurement,
    ObjectModel,
    SensingProfile,
    fps_select,
    measure,
    predict_keypoints,
)
from .lie import Pose, exp_se3, exp_so3, orthonormalize, pose_boxplus
from .pnp import refine_pose

logger = logging.getLogger(__name__)

VARIANTS = ("coupled-ekf", "pbvs-perframe", "none")

# Canonical "looking down" camera: object axes expressed in the camera
# frame when the camera hovers above the object with its optical axis
# pointing at it.
LOOK_DOWN = np.diag([1.0, -1.0, -1.0])

# During acquisition the init error can exceed the linearized update's
# validity, leaving residuals the gate would reject forever; the first
# updates of an episode therefore accept every keypoint.
GATE_WARMUP_FRAMES = 10
# initial poses drawn per episode before the scenario counts as infeasible
MAX_POSE_TRIES = 100


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

    def __post_init__(self):
        if self.height <= 0:
            raise ValueError("height must be positive")
        if self.translation_var < 0:
            raise ValueError("translation_var must be >= 0")
        if not 0 <= self.rotation_max_deg <= 180:  # beyond, angles only wrap
            raise ValueError("rotation_max_deg must lie in [0, 180]")

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
    variant: str = "coupled-ekf"
    seed: int = 0

    def __post_init__(self):
        # each message starts with the field's name
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.max_frames < 1:
            raise ValueError("max_frames must be >= 1")
        n_points = self.model.points.shape[0]
        if not 4 <= self.n_keypoints <= n_points:
            raise ValueError(f"n_keypoints must lie in [4, {n_points}], the "
                             "model's point count")
        if not 0.0 < self.gate_level <= 1.0:
            raise ValueError("gate_level must lie in (0, 1]")
        if self.k_hold < 1:
            raise ValueError("k_hold must be >= 1")
        if self.v_eps <= 0:
            raise ValueError("v_eps must be positive")
        # the config keys of actuation.sigma_v/w and init_prior.sigma_t/phi
        for key, value in (("sigma_v", self.actuation_sigma_v),
                           ("sigma_w", self.actuation_sigma_w),
                           ("sigma_t", self.init_sigma_t),
                           ("sigma_phi", self.init_sigma_phi)):
            if value < 0:
                raise ValueError(f"{key} must be >= 0")
        require_finite_square("sigma_t", self.init_sigma_t)
        require_finite_square("sigma_phi", self.init_sigma_phi)
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.seed < 0:  # numpy seeds only from non-negative integers
            raise ValueError("seed must be >= 0")


@dataclass
class EpisodeRecord:
    """Full per-frame log of one servoing trial, without its settings."""

    seed: int
    desired: Pose
    initial_gt: Pose
    converged: bool = False
    failure: str | None = None
    # per-frame arrays, filled by the episode engine
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
        c = np.concatenate([self.gt_C, self.final_gt.C[None]])
        t = np.concatenate([self.gt_t, self.final_gt.t[None]])
        return -_matvec(c.swapaxes(-1, -2), t)


def sample_poses(scenario: Scenario, kps: KeypointSet,
                 rng: np.random.Generator) -> tuple[Pose, Pose]:
    """Draw (initial, desired) object poses; the initial pose is resampled
    until every keypoint is observable, up to MAX_POSE_TRIES times."""
    desired = scenario.desired_pose.sample(rng)
    for _ in range(MAX_POSE_TRIES):
        initial = scenario.initial_pose.sample(rng)
        uv, in_front, _ = predict_keypoints(initial, kps, scenario.intrinsics)
        if bool(np.all(in_front & in_image(uv, scenario.intrinsics))):
            return initial, desired
    raise InfeasibleScenario(
        f"no fully observable initial pose in {MAX_POSE_TRIES} draws")


def step_dynamics(gt_co: Pose, cmd, sigma_v: float, sigma_w: float,
                  dt: float, rng) -> tuple[Pose, list]:
    """Execute commanded twists corrupted by Gaussian actuation noise, for
    a stack of N poses, an (N, 6) array of commands [v, w] and N
    Generators, pose i drawing from rng[i] alone.

    The camera world pose integrates the executed body twist exactly on
    SE(3); the object stays fixed in the world. Returns the stepped poses
    and `errors`, per pose None or the LinAlgError or FloatingPointError
    that failed its step, as `UpdateResult.errors` does; a failed pose is
    returned unmoved. A stack that raises is redone one pose at a time
    with the noise already drawn, so only the poses that raise alone fail.
    """
    noise = np.empty((len(rng), 6))
    for i, gen in enumerate(rng):
        gen.standard_normal(out=noise[i])
    noise[:, :3] *= sigma_v
    noise[:, 3:] *= sigma_w
    xi = cmd + noise
    errors = [None] * len(rng)
    try:
        return Pose(*_advance(gt_co.C, gt_co.t, xi, dt)), errors
    except (np.linalg.LinAlgError, FloatingPointError):
        c, t = gt_co.C.copy(), gt_co.t.copy()
    for i in range(len(rng)):
        one = slice(i, i + 1)
        try:
            c[one], t[one] = _advance(gt_co.C[one], gt_co.t[one], xi[one], dt)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            errors[i] = exc
    return Pose(c, t), errors


def _advance(c_co: np.ndarray, t_co: np.ndarray, xi: np.ndarray,
             dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The object-in-camera pose (c_co, t_co) after the camera executes the
    body twist xi for dt: the camera's world pose (the inverse) composed
    with exp(xi * dt), inverted back and re-orthonormalized. One pose, or a
    stack of N with xi (N, 6)."""
    c_wc = c_co.swapaxes(-1, -2)
    d_c, d_t = exp_se3(xi, dt)
    c_new = c_wc @ d_c
    t_new = _matvec(c_wc, d_t) + -_matvec(c_wc, t_co)
    c_oc = c_new.swapaxes(-1, -2)
    return orthonormalize(c_oc), -_matvec(c_oc, t_new)


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for one matrix, or per slice of a stack."""
    return a @ x if a.ndim == 2 else (a @ x[:, :, None])[:, :, 0]


def run_episode(scenario: Scenario, seed: int | None = None) -> EpisodeRecord:
    """Run one closed-loop trial; deterministic given (scenario, seed)."""
    seed = scenario.seed if seed is None else seed
    return run_episodes(scenario, [seed])[0]


def run_episodes(scenario: Scenario, seeds) -> list:
    """Run one trial per seed in lockstep; record i is the record that
    `seeds[i]` gives alone, bit for bit."""
    kps = fps_select(scenario.model, scenario.n_keypoints)
    records, rngs, deltas = [], [], []
    with _quiet():  # an overflowing pose ends in a label or is infeasible
        for seed in seeds:
            rng = np.random.default_rng(seed)
            initial, desired = sample_poses(scenario, kps, rng)
            records.append(EpisodeRecord(seed=seed, desired=desired,
                                         initial_gt=initial))
            deltas.append(np.concatenate([  # the prior's offset from initial
                scenario.init_sigma_t * rng.standard_normal(3),
                scenario.init_sigma_phi * rng.standard_normal(3)]))
            rngs.append(rng)
        if records:
            _Lockstep(scenario, kps, records, rngs, deltas).run()
    for record in records:
        if record.failure:
            logger.debug("episode seed=%d failed: %s", record.seed,
                         record.failure)
    return records


class _Lockstep:
    """The active trials of `run_episodes` as stacked arrays, row j being
    trial `ids[j]`; rows are dropped as their trials end. `state.mean`
    holds each trial's estimate, the filter's or the PnP baseline's."""

    def __init__(self, scenario, kps, records, rngs, deltas):
        self.sc, self.kps, self.records = scenario, kps, records
        n = len(records)
        self.ids = np.arange(n)
        self.rngs = rngs
        self.use_ekf = scenario.variant in ("coupled-ekf", "none")
        self.servo = scenario.variant != "none"
        self.gt = Pose(np.array([rec.initial_gt.C for rec in records]),
                       np.array([rec.initial_gt.t for rec in records]))
        prior = initialize(pose_boxplus(self.gt, np.array(deltas)),
                           scenario.init_sigma_t, scenario.init_sigma_phi)
        self.state = FilterState(prior.mean, np.repeat(prior.P[None], n, 0))
        self.prev_cmd = np.zeros((n, 6))
        self.hold = np.zeros(n, dtype=int)  # frames in a row below v_eps
        self.rows = _FrameRows(scenario.max_frames, n)

    def run(self) -> None:
        sc = self.sc
        for k in range(sc.max_frames):
            if self.use_ekf and k > 0:
                self.state = propagate(self.state, self.prev_cmd, sc.dt,
                                       sc.filter_noise)
            meas = measure(self.gt, self.kps, sc.intrinsics, sc.sensing,
                           self.rngs, frame=k)
            failures = {}  # row -> failure text
            if self.use_ekf:
                est, p_est, n_vis, n_used, rms = self._update(k, meas,
                                                              failures)
            else:
                est, p_est, n_vis, n_used, rms = self._refine(meas)
            live = None  # the rows to servo: none without control, else
            if self.servo:  # every row whose update has not failed
                live = np.ones(self.ids.size, dtype=bool)
                live[list(failures)] = False
            cmd, raw, vcov, ent, converged = self._control(est, p_est, live)
            finite = (np.isfinite(est.t).all(axis=1)
                      & np.isfinite(cmd).all(axis=1))
            # a belief that no update touched (no usable keypoint) can
            # carry a non-finite P that no innovation test has seen
            belief_ok = True
            if self.use_ekf:
                belief_ok = np.isfinite(p_est).all(axis=(1, 2))
                if self.servo:
                    belief_ok &= np.isfinite(ent)
            for j in np.flatnonzero(~(finite & belief_ok)).tolist():
                failures.setdefault(
                    j, f"frame {k}: non-finite estimate or command"
                    if not finite[j]
                    else f"frame {k}: non-finite covariance or entropy")
            if failures:
                at = np.ones(self.ids.size, dtype=bool)
                at[list(failures)] = False
            else:
                at = slice(None)
            self.rows.append(k, self.ids[at], self.gt.C[at], self.gt.t[at],
                             est.C[at], est.t[at], p_est[at], cmd[at],
                             raw[at], vcov[at], ent[at], rms[at], n_vis[at],
                             n_used[at])
            converged = [j for j in converged if j not in failures]
            for j in converged:
                self.records[self.ids[j]].converged = True
            self.prev_cmd = cmd
            if (failures or converged) and not self._drop(failures, converged):
                break
            self.gt, errors = step_dynamics(self.gt, self.prev_cmd,
                                            sc.actuation_sigma_v,
                                            sc.actuation_sigma_w, sc.dt,
                                            self.rngs)
            failures = _failures(k, errors)
            if failures and not self._drop(failures):
                break
        else:
            self._drop({}, range(self.ids.size))
        self.rows.store(self.records)

    def _update(self, k, meas, failures):
        sc = self.sc
        level = 1.0 if k < GATE_WARMUP_FRAMES else sc.gate_level
        res = update(self.state, meas, self.kps, sc.intrinsics, level)
        failures.update(_failures(k, res.errors))
        self.state = res.state
        return (res.state.mean, res.state.P, res.n_visible,
                res.used.sum(axis=1), res.residual_rms)

    def _refine(self, meas):
        """The PnP baseline, one refine_pose call per active trial, then one
        stacked projection of the refined poses for their residual RMS."""
        sc, kps, mean = self.sc, self.kps, self.state.mean
        n = self.ids.size
        n_vis = meas.visible.sum(axis=1)
        n_used = np.zeros(n, dtype=int)
        rms = np.full(n, np.nan)
        refined = []
        for j in range(n):
            one = Measurement(meas.uv[j], meas.cov[j], meas.visible[j])
            pose = refine_pose(mean[j], one, kps, sc.intrinsics)
            if pose is not None:
                mean.C[j], mean.t[j] = pose.C, pose.t
                refined.append(j)
        if refined:
            n_used[refined] = n_vis[refined]
            uv, ok, _ = predict_keypoints(mean[refined], kps, sc.intrinsics)
            diff = meas.uv[refined] - uv
            usable = meas.visible[refined] & ok
            for j, d, use in zip(refined, diff, usable):
                if use.any():
                    rms[j] = float(np.sqrt(np.mean(d[use].ravel()**2)))
        return mean, np.full((n, 6, 6), np.nan), n_vis, n_used, rms

    def _control(self, est, p_est, live):
        """Commanded and raw twists, twist covariance and entropy per
        active trial, and the rows whose hold test is met: the servo step
        per row of the bool mask `live` (None without servoing), the rest
        of the control chain once for those rows, via this module's names."""
        sc, cfg = self.sc, self.sc.control
        n = self.ids.size
        cmd, raw = np.zeros((n, 6)), np.zeros((n, 6))
        vcov, ent = np.full((n, 6, 6), np.nan), np.full(n, np.nan)
        if live is None:
            return cmd, raw, vcov, ent, []
        errors = np.empty((n, 6))  # the servo errors, set in live rows
        for j in np.flatnonzero(live).tolist():
            errors[j], raw[j], cmd[j], self.hold[j] = _servo_step(
                self.records[self.ids[j]].desired, est[j], cfg, sc.v_eps,
                self.hold[j])
        if self.use_ekf and live.any():
            jac = velocity_jacobian(errors[live], est[live], cfg)
            vcov[live] = cov = velocity_covariance(jac, p_est[live])
            ent[live] = h = entropy(cov)
            cmd[live] = apply_policy(cmd[live], h, cfg)
        converged = np.flatnonzero(live & (self.hold >= sc.k_hold))
        return cmd, raw, vcov, ent, converged.tolist()

    def _drop(self, failures: dict, ended=()) -> bool:
        """End the trials in rows `ended` and in rows `failures` (row ->
        failure text), each with its final ground truth the pose of its
        last frame, before any step; False when no trial is left."""
        done = np.zeros(self.ids.size, dtype=bool)
        done[[*failures, *ended]] = True
        for j in np.flatnonzero(done).tolist():
            record = self.records[self.ids[j]]
            record.failure = failures.get(j)
            record.final_gt = Pose(self.gt.C[j].copy(), self.gt.t[j].copy())
        rows = np.flatnonzero(~done)
        self.rngs = [self.rngs[j] for j in rows.tolist()]
        self.ids, self.state, self.gt, self.prev_cmd, self.hold = (
            self.ids[rows], self.state[rows], self.gt[rows],
            self.prev_cmd[rows], self.hold[rows])
        return bool(rows.size)


def _failures(k: int, errors: list) -> dict:
    """Row -> failure text at frame k, for each row of a kernel's `errors`
    that holds an exception."""
    return {j: f"frame {k}: {exc}" if isinstance(exc, SingularInnovation)
            else f"frame {k}: {type(exc).__name__}: {exc}"
            for j, exc in enumerate(errors) if exc is not None}


def _quiet():
    """np.errstate silencing overflow and invalid-value warnings where each
    ends in a labelled failure (a finiteness test or a numpy exception);
    a setting other than "warn", such as "raise", is kept."""
    return np.errstate(**{key: "ignore" for key, how in np.geterr().items()
                          if key in ("over", "invalid") and how == "warn"})


def _servo_step(desired: Pose, current: Pose, cfg: ControlConfig,
                v_eps: float, hold: int) -> tuple:
    """The servo error, raw law and clamped command for one pose, and
    the hold count after it: the frames in a row whose clamped command
    stayed below v_eps. The entropy policy scales only the command sent,
    so a reduced command never holds a trial that is still moving."""
    raw, error = pbvs_law(relative_pose(desired, current), cfg.lam)
    cmd = clamp_twist(raw, cfg)
    return error, raw, cmd, hold + 1 if math.sqrt(cmd.dot(cmd)) < v_eps else 0


def geodesic_reference(initial: Pose, desired: Pose,
                       scenario: Scenario) -> np.ndarray:
    """Camera positions of the noise-free, perfect-information servo
    rollout between the same poses, under the scenario's control gains,
    period, hold rule and frame budget: the shortest-path reference."""
    gt, positions, hold = initial, [], 0
    with _quiet():
        for _ in range(scenario.max_frames):
            positions.append(-(gt.C.T @ gt.t))
            _, _, cmd, hold = _servo_step(desired, gt, scenario.control,
                                          scenario.v_eps, hold)
            if hold >= scenario.k_hold:
                break
            gt = Pose(*_advance(gt.C, gt.t, cmd, scenario.dt))
        positions.append(-(gt.C.T @ gt.t))
    return np.array(positions)


def geodesic_reference_for(record: EpisodeRecord,
                           scenario: Scenario) -> np.ndarray:
    """The geodesic reference of a record that `scenario` produced."""
    return geodesic_reference(record.initial_gt, record.desired, scenario)


@dataclass
class BatchResult:
    records: list
    summary: "object"  # metrics.Summary; typed loosely to avoid a cycle
    # episode 0's geodesic rollout, when the summary computed it (episode 0
    # succeeded); the series writer reuses it
    reference: np.ndarray | None = None


def run_batch(scenario: Scenario, trials: int,
              parallelism: int = 1) -> BatchResult:
    """Independent trials with seeds base+0 .. base+trials-1, merged in
    trial order and run in lockstep; with parallelism > 1, each worker
    process runs one contiguous chunk of the seeds. The result is identical
    at any parallelism level."""
    from .metrics import summarize  # local import: metrics depends on us

    seeds = [scenario.seed + i for i in range(trials)]
    workers = min(parallelism, trials)
    if workers <= 1:
        records = run_episodes(scenario, seeds)
    else:
        bounds = [trials * w // workers for w in range(workers + 1)]
        chunks = [seeds[a:b] for a, b in zip(bounds, bounds[1:])]
        # local import: only a pool needs multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(run_episodes, itertools.repeat(scenario), chunks)
            records = [rec for part in parts for rec in part]
    rollouts = {}
    with _quiet():  # a trial driven out to overflow gives nan metrics
        summary = summarize(records, scenario, rollouts)
    return BatchResult(records, summary, rollouts.get(0))


class _FrameRows:
    """Per-frame quantities of N trials, written at (trial, frame) into
    arrays preallocated to max_frames. A trial's recorded frames are the
    leading rows of its slice, which its record keeps as views: the pages
    behind frames no trial reached are never touched."""

    _FIELDS = (("gt_C", (3, 3), float), ("gt_t", (3,), float),
               ("est_C", (3, 3), float), ("est_t", (3,), float),
               ("P", (6, 6), float), ("cmd", (6,), float),
               ("raw", (6,), float), ("twist_cov", (6, 6), float),
               ("entropy", (), float), ("resid_rms", (), float),
               ("n_visible", (), int), ("n_used", (), int))

    def __init__(self, max_frames: int, trials: int):
        self.frames = np.zeros(trials, dtype=int)
        try:
            self.arrays = [np.empty((trials, max_frames) + shape, dtype=dtype)
                           for _, shape, dtype in self._FIELDS]
        except ValueError as exc:  # a shape past numpy's largest array
            raise MemoryError(str(exc)) from exc

    def append(self, k: int, ids: np.ndarray, *values) -> None:
        """Frame k of the trials `ids`, one value stack per field."""
        if ids.size == self.frames.size:  # every trial: a cheaper slice
            ids = slice(None)
        for array, value in zip(self.arrays, values):
            array[ids, k] = value
        self.frames[ids] = k + 1

    def store(self, records: list) -> None:
        for i, record in enumerate(records):
            n = self.frames[i]
            for (name, _, _), array in zip(self._FIELDS, self.arrays):
                setattr(record, name, array[i, :n])
