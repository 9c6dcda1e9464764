"""Error-state EKF over the object-in-camera pose.

The belief is a Pose mean plus a 6x6 covariance over the tangent error
[dt, dphi]. A single error convention is used throughout: the left
perturbation

    t_true = t + dt,    C_true = exp(hat(dphi)) @ C.

Propagation follows the discrete constant-velocity model driven by the
commanded camera twist:

    t' = exp(-hat(w) dt) t - v dt,    C' = exp(-hat(w) dt) C,

whose error transition under the left convention is block-diagonal with
both blocks equal to exp(-hat(w) dt). An alternative rotation block,
J_r^{-1}(log(exp(-hat(w) dt) C)), is kept behind `variant="mixed-jr"` for
comparison; it mixes error conventions and fails the finite-difference
cross-check, which is exactly why it is not the default.

Covariance propagation adds R * dt with R = diag(sigma_vp^2 I, sigma_vw^2 I)
and an identity noise Jacobian, i.e. the velocity-noise stds are treated as
a continuous-time intensity.

The update gates each keypoint by its 2x2 Mahalanobis distance against the
chi-square(2) quantile, whose closed form is -2 log(1 - level); the gate
reads its blocks off the same innovation S = H P H^T that the gain uses.
S counts as singular when it is non-finite or when its condition number,
the ratio of the largest to the smallest eigenvalue magnitude of the
symmetric S, exceeds INNOVATION_COND_LIMIT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .camera import DEFAULT_Z_MIN, Intrinsics, projection_jacobians, project_points
from .keypoints import KeypointSet, Measurement
from .lie import (
    Pose,
    clamp_psd,
    exp_so3,
    log_so3,
    pose_boxplus,
    right_jacobian_inv,
    symmetrize,
)

PROPAGATION_VARIANTS = ("left", "mixed-jr")
INNOVATION_COND_LIMIT = 1e12


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


def propagate(state: FilterState, twist, dt: float, noise: NoiseParams,
              variant: str = "left") -> FilterState:
    """Constant-velocity prediction with the commanded camera twist."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if variant not in PROPAGATION_VARIANTS:
        raise ValueError(f"variant must be one of {PROPAGATION_VARIANTS}")
    v, w = _twist_parts(twist)
    r = exp_so3(-w * dt)
    t_new = r @ state.mean.t - v * dt
    c_new = r @ state.mean.C

    f = np.zeros((6, 6))
    f[:3, :3] = r
    if variant == "left":
        f[3:, 3:] = r
    else:
        f[3:, 3:] = right_jacobian_inv(log_so3(c_new))
    p_new = f @ state.P @ f.T + noise.rate_covariance * dt
    return FilterState(Pose(c_new, t_new), symmetrize(p_new))


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
    each 2x2 block; a keypoint with det(S) == 0 or a NaN distance fails."""
    a, b = s_blocks[:, 0, 0], s_blocks[:, 0, 1]
    c, d = s_blocks[:, 1, 0], s_blocks[:, 1, 1]
    r0, r1 = residuals[:, 0], residuals[:, 1]
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
    state: FilterState
    used: np.ndarray          # per-keypoint flag: entered the update
    n_visible: int            # measured-visible keypoints this frame
    residual_rms: float       # RMS of used residual components, NaN if none
    all_rejected: bool        # visible keypoints existed but all were gated


def update(state: FilterState, meas: Measurement, kps: KeypointSet,
           intr: Intrinsics, gate_level: float = 0.999,
           joseph: bool = False, z_min: float = DEFAULT_Z_MIN) -> UpdateResult:
    """Keypoint update with on-manifold injection.

    K = P H^T (H P H^T + Q)^-1 with H the *residual* Jacobian; since
    eps ~ -H * (true error), the injected correction is dx = -K eps,
    then t += dt and C <- exp(hat(dphi)) C. The covariance update
    (I - K H) P is insensitive to that sign choice. Only
    measured-visible, predictable, gated keypoints enter; with none, the
    prediction is returned unchanged. A non-finite or ill-conditioned
    innovation raises SingularInnovation.
    """
    n = len(kps)
    n_visible = int(meas.visible.sum())
    rotated = kps.points3d @ state.mean.C.T  # C @ X per keypoint
    pts_c = rotated + state.mean.t
    uv_pred, ok = project_points(pts_c, intr, z_min)
    idx = np.flatnonzero(meas.visible & ok)
    if idx.size == 0:
        return UpdateResult(state.copy(), np.zeros(n, dtype=bool),
                            n_visible, float("nan"), False)

    m = idx.size
    h = _jacobian_blocks(rotated[idx], pts_c[idx], intr).reshape(2 * m, 6)
    hp = h @ state.P
    s = hp @ h.T
    if not np.isfinite(s).all():
        raise SingularInnovation("non-finite innovation")
    residuals = meas.uv[idx] - uv_pred[idx]
    covs = meas.cov[idx]
    diag = np.arange(m)
    s_blocks = s.reshape(m, 2, m, 2)[diag, :, diag, :] + covs  # per keypoint
    keep = _mahalanobis_keep(residuals, s_blocks, _gate_threshold(gate_level))
    if not keep.any():
        return UpdateResult(state.copy(), np.zeros(n, dtype=bool),
                            n_visible, float("nan"), True)
    if not keep.all():
        rows = np.flatnonzero(np.repeat(keep, 2))
        h, hp, s = h[rows], hp[rows], s[np.ix_(rows, rows)]
        idx, residuals, covs = idx[keep], residuals[keep], covs[keep]
        m = idx.size
        diag = np.arange(m)

    eps = residuals.reshape(2 * m)
    q = np.zeros((2 * m, 2 * m))
    q.reshape(m, 2, m, 2)[diag, :, diag, :] = covs
    s = s + q
    eig = np.abs(np.linalg.eigvalsh(s))
    if eig.max() > INNOVATION_COND_LIMIT * eig.min():
        raise SingularInnovation(
            f"innovation condition number exceeds {INNOVATION_COND_LIMIT:.0e}")
    k = np.linalg.solve(s, hp).T  # P H^T S^-1, using P symmetric
    delta = -(k @ eps)
    ikh = np.eye(6) - k @ h
    if joseph:
        p_new = ikh @ state.P @ ikh.T + k @ q @ k.T
    else:
        p_new = ikh @ state.P
    p_new = clamp_psd(p_new)

    mean = pose_boxplus(state.mean, delta)
    used = np.zeros(n, dtype=bool)
    used[idx] = True
    rms = float(np.sqrt(np.mean(eps**2)))
    return UpdateResult(FilterState(mean, p_new), used, n_visible, rms, False)


def _twist_parts(twist) -> tuple[np.ndarray, np.ndarray]:
    if hasattr(twist, "vector"):
        twist = twist.vector()
    vec = np.asarray(twist, dtype=float).reshape(6)
    return vec[:3], vec[3:]
