"""Error-state EKF over the object-in-camera pose.

The belief is a Pose mean plus a 6x6 covariance over the tangent error
[dt, dphi]. A single error convention is used throughout: the left
perturbation

    t_true = t + dt,    C_true = exp(hat(dphi)) @ C.

Propagation follows the discrete constant-velocity model driven by the
commanded camera twist:

    t' = exp(-hat(w) dt) t - v dt,    C' = exp(-hat(w) dt) C,

whose error transition under the left convention is block-diagonal with
both blocks equal to exp(-hat(w) dt).

Covariance propagation adds R * dt with R = diag(sigma_vp^2 I, sigma_vw^2 I)
and an identity noise Jacobian, i.e. the velocity-noise stds are treated as
a continuous-time intensity.

The update gates each keypoint by its 2x2 Mahalanobis distance against the
chi-square(2) quantile, whose closed form is -2 log(1 - level); the gate
reads its blocks off the same innovation S = H P H^T that the gain uses.
S counts as singular when it is non-finite or when its condition number,
the ratio of the largest to the smallest eigenvalue magnitude of the
symmetric S, exceeds INNOVATION_COND_LIMIT.

`propagate` and `update` take one belief (mean a Pose, P 6x6) or a stack
of N beliefs (mean a Pose of (N, 3, 3) and (N, 3) arrays, P (N, 6, 6))
with an (N, 6) twist or a stacked Measurement; the single form is the
N = 1 case of the stacked one, and slice i of a stacked result has the
same bits as the single call on slice i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .camera import DEFAULT_Z_MIN, Intrinsics, projection_jacobians, project_points
from .keypoints import KeypointSet, Measurement
from .lie import Pose, clamp_psd, exp_so3, symmetrize

INNOVATION_COND_LIMIT = 1e12
_EYE6 = np.eye(6)
_EYE6.setflags(write=False)


class SingularInnovation(RuntimeError):
    """Innovation matrix is numerically singular (degenerate geometry)."""


@dataclass(frozen=True)
class NoiseParams:
    """Velocity-noise standard deviations of the motion prior."""

    sigma_vp: float
    sigma_vw: float

    def __post_init__(self):
        if self.sigma_vp <= 0 or self.sigma_vw <= 0:
            raise ValueError("velocity noise stds must be positive")

    @cached_property
    def rate_covariance(self) -> np.ndarray:
        r = np.zeros((6, 6))
        r[:3, :3] = self.sigma_vp**2 * np.eye(3)
        r[3:, 3:] = self.sigma_vw**2 * np.eye(3)
        r.flags.writeable = False  # shared by every propagate call
        return r


@dataclass
class FilterState:
    mean: Pose
    P: np.ndarray

    def copy(self) -> "FilterState":
        return FilterState(self.mean, self.P.copy())


def initialize(prior: Pose, init_sigma_t: float, init_sigma_phi: float) -> FilterState:
    """Belief from a pose prior with isotropic translation/rotation stds."""
    p = np.zeros((6, 6))
    p[:3, :3] = init_sigma_t**2 * np.eye(3)
    p[3:, 3:] = init_sigma_phi**2 * np.eye(3)
    return FilterState(prior, p)


def propagate(state: FilterState, twist, dt: float,
              noise: NoiseParams) -> FilterState:
    """Constant-velocity prediction with the commanded camera twist: one
    belief and a twist (a Twist or 6-vector), or a stack of N beliefs and
    an (N, 6) array of twists."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if state.P.ndim == 2:
        out = propagate(_stack_one(state), _twist_vector(twist)[None], dt,
                        noise)
        return _unstack_one(out)
    twist = np.asarray(twist, dtype=float)
    r = exp_so3(-twist[:, 3:] * dt)
    t_new = (r @ state.mean.t[:, :, None])[:, :, 0] - twist[:, :3] * dt
    c_new = r @ state.mean.C

    f = np.zeros((r.shape[0], 6, 6))
    f[:, :3, :3] = r
    f[:, 3:, 3:] = r
    p_new = f @ state.P @ f.swapaxes(1, 2) + noise.rate_covariance * dt
    return FilterState(Pose(c_new, t_new), symmetrize(p_new))


def _stack_one(state: FilterState) -> FilterState:
    return FilterState(Pose(state.mean.C[None], state.mean.t[None]),
                       state.P[None])


def _unstack_one(state: FilterState) -> FilterState:
    return FilterState(Pose(state.mean.C[0], state.mean.t[0]), state.P[0])


def predict_keypoints(pose: Pose, kps: KeypointSet, intr: Intrinsics,
                      z_min: float = DEFAULT_Z_MIN) -> tuple[np.ndarray, np.ndarray]:
    """Predicted pixel locations of the model keypoints under a pose.

    Returns (uv, ok); keypoints behind the camera have ok == False and NaN
    rows, and are excluded from updates.
    """
    return project_points(pose.apply(kps.points3d), intr, z_min)


def measurement_jacobian(pose: Pose, kps: KeypointSet, intr: Intrinsics,
                         z_min: float = DEFAULT_Z_MIN) -> tuple[np.ndarray, np.ndarray]:
    """Per-keypoint residual Jacobians d(measured - predicted)/d[dt, dphi].

    With the left perturbation, the camera-frame point moves as
    I * dt - hat(dphi) acting on C @ X, so each 2x6 block is
    [-J_proj, J_proj @ hat(C @ X)]. Returns (H blocks (N, 2, 6), ok mask).
    """
    rotated = kps.points3d @ pose.C.T  # C @ X per keypoint
    pts_c = rotated + pose.t
    ok = pts_c[:, 2] > z_min
    blocks = np.zeros((len(kps), 2, 6))
    if np.any(ok):
        blocks[ok] = _jacobian_blocks(rotated[ok], pts_c[ok], intr)
    return blocks, ok


def _jacobian_blocks(rotated, pts_c, intr: Intrinsics) -> np.ndarray:
    """(M, 2, 6) residual Jacobian blocks of points in front of the camera,
    given C @ X and C @ X + t per point.

    Shared on purpose by `update` and `pnp.refine_pose`, which already hold
    C @ X and build blocks for their usable keypoints only;
    `measurement_jacobian` is the public form over a whole keypoint set.
    """
    jp = projection_jacobians(pts_c, intr)
    hats = np.zeros((rotated.shape[0], 3, 3))
    hats[:, 0, 1] = -rotated[:, 2]
    hats[:, 0, 2] = rotated[:, 1]
    hats[:, 1, 0] = rotated[:, 2]
    hats[:, 1, 2] = -rotated[:, 0]
    hats[:, 2, 0] = -rotated[:, 1]
    hats[:, 2, 1] = rotated[:, 0]
    return np.concatenate([-jp, np.einsum("nij,njk->nik", jp, hats)], axis=2)


def _gate_threshold(level: float) -> float:
    """chi-square(2) quantile at `level`; infinite at level >= 1."""
    if level >= 1.0:
        return math.inf
    return -2.0 * math.log1p(-level)


def _mahalanobis_keep(residuals, s_blocks, thresh: float) -> np.ndarray:
    """r^T S^-1 r <= thresh per keypoint, with S^-1 = adj(S) / det(S) for
    each 2x2 block; a keypoint with det(S) == 0 or a NaN distance fails.
    residuals (..., 2) and s_blocks (..., 2, 2) share their leading axes."""
    a, b = s_blocks[..., 0, 0], s_blocks[..., 0, 1]
    c, d = s_blocks[..., 1, 0], s_blocks[..., 1, 1]
    r0, r1 = residuals[..., 0], residuals[..., 1]
    det = a * d - b * c
    with np.errstate(divide="ignore", invalid="ignore"):
        m2 = (d * r0 * r0 - (b + c) * r0 * r1 + a * r1 * r1) / det
    return (det != 0.0) & (m2 <= thresh)


def gate(residuals, h_blocks, p_prior, covs, level: float = 0.999) -> np.ndarray:
    """Per-keypoint Mahalanobis gate against the chi-square(2) quantile.

    residuals (M, 2), h_blocks (M, 2, 6), covs (M, 2, 2). A level of 1.0
    accepts every keypoint with a regular, finite innovation block.
    """
    residuals = np.asarray(residuals, dtype=float).reshape(-1, 2)
    h = np.asarray(h_blocks, dtype=float).reshape(-1, 2, 6)
    s_blocks = h @ p_prior @ h.transpose(0, 2, 1) + covs
    return _mahalanobis_keep(residuals, s_blocks, _gate_threshold(level))


@dataclass
class UpdateResult:
    """One update's outcome; for a stack of N beliefs every per-keypoint
    or per-frame field gains a leading axis of N."""

    state: FilterState
    used: np.ndarray          # per-keypoint flag: entered the update
    n_visible: int            # measured-visible keypoints this frame
    residual_rms: float       # RMS of used residual components, NaN if none
    all_rejected: bool        # visible keypoints existed but all were gated
    # stacked updates only: per belief, None or the exception that failed
    # it (its row of `state` then holds the prior)
    errors: list | None = None


def update(state: FilterState, meas: Measurement, kps: KeypointSet,
           intr: Intrinsics, gate_level: float = 0.999,
           z_min: float = DEFAULT_Z_MIN) -> UpdateResult:
    """Keypoint update with on-manifold injection.

    K = P H^T (H P H^T + Q)^-1 with H the *residual* Jacobian; since
    eps ~ -H * (true error), the injected correction is dx = -K eps,
    then t += dt and C <- exp(hat(dphi)) C. The covariance update
    (I - K H) P is insensitive to that sign choice. Only
    measured-visible, predictable, gated keypoints enter; with none, the
    prediction is returned unchanged. A non-finite or ill-conditioned
    innovation raises SingularInnovation.

    A stack of N beliefs with a stacked measurement raises nothing for
    one belief's numerical trouble: that belief's entry of `errors` holds
    the exception the single update would have raised (SingularInnovation,
    or a LinAlgError or FloatingPointError from numpy), and the others are
    unaffected. The beliefs are grouped by their count of usable
    keypoints, and each group by its count after gating, so that every
    group runs as one stacked product, solve and eigvalsh.
    """
    if state.P.ndim == 2:
        res = update(_stack_one(state),
                     Measurement(meas.uv[None], meas.cov[None],
                                 meas.visible[None]),
                     kps, intr, gate_level, z_min)
        if res.errors[0] is not None:
            raise res.errors[0]
        return UpdateResult(_unstack_one(res.state), res.used[0],
                            int(res.n_visible[0]), float(res.residual_rms[0]),
                            bool(res.all_rejected[0]))

    n_beliefs, n = meas.visible.shape
    rotated = kps.points3d @ state.mean.C.swapaxes(1, 2)  # C @ X per keypoint
    pts_c = rotated + state.mean.t[:, None, :]
    uv_pred, ok = project_points(pts_c, intr, z_min)
    usable = meas.visible & ok.reshape(n_beliefs, n)
    out = _StackedUpdate(state, meas, rotated, pts_c, uv_pred, usable, intr,
                         _gate_threshold(gate_level))
    counts = usable.sum(axis=1)
    for m in sorted(set(counts.tolist()) - {0}):
        out.run(np.flatnonzero(counts == m))
    return UpdateResult(FilterState(Pose(out.c, out.t), out.p), out.used,
                        meas.visible.sum(axis=1), out.rms, out.all_rejected,
                        out.errors)


class _StackedUpdate:
    """One stacked update in progress: the inputs, with keypoint rows
    flattened over (belief, keypoint); the outputs, initialised to the
    prior (the outcome of a belief with no usable keypoint); and the
    computation of one group of beliefs."""

    def __init__(self, state, meas, rotated, pts_c, uv_pred, usable, intr,
                 thresh):
        self.prior, self.usable, self.intr, self.thresh = (state, usable,
                                                           intr, thresh)
        self.rotated = rotated.reshape(-1, 3)
        self.pts_c = pts_c.reshape(-1, 3)
        self.uv_pred = uv_pred
        self.uv = meas.uv.reshape(-1, 2)
        self.cov = meas.cov.reshape(-1, 2, 2)
        n_beliefs = usable.shape[0]
        self.c = state.mean.C.copy()
        self.t = state.mean.t.copy()
        self.p = state.P.copy()
        self.used = np.zeros(usable.shape, dtype=bool)
        self.rms = np.full(n_beliefs, np.nan)
        self.all_rejected = np.zeros(n_beliefs, dtype=bool)
        self.errors = [None] * n_beliefs

    def run(self, group: np.ndarray) -> None:
        """Update the beliefs in `group`, which share their count of usable
        keypoints; when numpy raises for the stack, redo it one belief at a
        time, so that only the belief that raises fails."""
        try:
            self._usable_group(group)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            if group.size == 1:
                self.errors[group[0]] = exc
            else:
                for i in range(group.size):
                    self.run(group[i:i + 1])

    def _usable_group(self, g: np.ndarray) -> None:
        # flat (belief, keypoint) rows of each belief's usable keypoints
        if g.size == self.rms.size:
            rows = np.flatnonzero(self.usable).reshape(g.size, -1)
        else:
            rows = (g[:, None] * self.usable.shape[1]
                    + np.nonzero(self.usable[g])[1].reshape(g.size, -1))
        m = rows.shape[1]
        h = _jacobian_blocks(self.rotated[rows.ravel()],
                             self.pts_c[rows.ravel()],
                             self.intr).reshape(g.size, 2 * m, 6)
        hp = h @ self.prior.P[self._at(g)]
        s = hp @ h.swapaxes(1, 2)
        if not np.isfinite(s).all():
            finite = np.isfinite(s).all(axis=(1, 2))
            for i in g[~finite].tolist():
                self.errors[i] = SingularInnovation("non-finite innovation")
            if not finite.any():
                return
            g, rows, h, hp, s = (g[finite], rows[finite], h[finite],
                                 hp[finite], s[finite])
        residuals = self.uv[rows] - self.uv_pred[rows]
        covs = self.cov[rows]
        # each keypoint's 2x2 block of S, as (belief, keypoint, 2, 2)
        s_blocks = s.reshape(-1, m, 2, m, 2).diagonal(axis1=1, axis2=3)
        keep = _mahalanobis_keep(residuals,
                                 s_blocks.transpose(0, 3, 1, 2) + covs,
                                 self.thresh)
        if keep.all():
            self._gated_group(g, rows, h, hp, s, residuals, covs)
            return
        kept = keep.sum(axis=1)
        self.all_rejected[g[kept == 0]] = True
        for m_kept in sorted(set(kept.tolist()) - {0}):
            sub = np.flatnonzero(kept == m_kept)
            if m_kept == m:
                self._gated_group(g[sub], rows[sub], h[sub], hp[sub], s[sub],
                                  residuals[sub], covs[sub])
                continue
            pos = np.nonzero(keep[sub])[1].reshape(sub.size, m_kept)
            r2 = (2 * pos[:, :, None] + (0, 1)).reshape(sub.size, 2 * m_kept)
            at = sub[:, None]
            self._gated_group(g[sub], rows[at, pos], h[at, r2], hp[at, r2],
                              s[sub[:, None, None], r2[:, :, None],
                                r2[:, None, :]],
                              residuals[at, pos], covs[at, pos])

    def _gated_group(self, g, rows, h, hp, s, residuals, covs) -> None:
        """Gain, correction and covariance of beliefs that keep the same
        count of keypoints after gating."""
        n_g, m = rows.shape
        eps = residuals.reshape(n_g, 2 * m)
        q = np.zeros((n_g, m, 2, m, 2))
        diag = np.arange(m)
        q[:, diag, :, diag, :] = covs.swapaxes(0, 1)
        s = s + q.reshape(n_g, 2 * m, 2 * m)
        eig = np.abs(np.linalg.eigvalsh(s))
        bad = eig.max(axis=1) > INNOVATION_COND_LIMIT * eig.min(axis=1)
        if bad.any():
            for i in g[bad].tolist():
                self.errors[i] = SingularInnovation(
                    "innovation condition number exceeds "
                    f"{INNOVATION_COND_LIMIT:.0e}")
            if bad.all():
                return
            good = ~bad
            g, rows, h, hp, s, eps = (g[good], rows[good], h[good],
                                      hp[good], s[good], eps[good])
        k = np.linalg.solve(s, hp).swapaxes(1, 2)  # P H^T S^-1, P symmetric
        delta = -(k @ eps[:, :, None])[:, :, 0]
        at = self._at(g)
        self.p[at] = clamp_psd((_EYE6 - k @ h) @ self.prior.P[at])
        self.c[at] = exp_so3(delta[:, 3:]) @ self.prior.mean.C[at]
        self.t[at] = self.prior.mean.t[at] + delta[:, :3]
        self.used.reshape(-1)[rows] = True
        # the mean of eps**2 per belief, as np.mean computes it
        self.rms[at] = np.sqrt((eps**2).sum(axis=1) / (2 * m))

    def _at(self, g: np.ndarray):
        """Index of the sorted beliefs g: a slice when g holds them all."""
        return slice(None) if g.size == self.rms.size else g


def _twist_vector(twist) -> np.ndarray:
    if hasattr(twist, "vector"):
        twist = twist.vector()
    return np.asarray(twist, dtype=float).reshape(6)
