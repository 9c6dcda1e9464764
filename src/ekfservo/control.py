"""Probabilistic pose-based visual servoing.

The control law maps the relative transform between desired and current
camera frames to a camera twist,

    v = -lambda * [C_rel^T t_rel, theta*u],

and the filter covariance is pushed through its linearization to obtain a
twist covariance and a scalar differential entropy. An entropy threshold
gates a velocity reduction; the magnitude clamp is applied after the
policy so safety reductions cannot be undone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ekf import FilterState
from .lie import (
    _EYE3,
    Pose,
    _log_so3_stacked,
    hat,
    log_so3,
    orthonormalize,
    right_jacobian_inv,
    symmetrize,
)

_TWO_PI_E = 2.0 * math.pi * math.e


@dataclass(frozen=True)
class Twist:
    """Camera velocity: translational v_p (m/s) and angular w (rad/s),
    both in the camera frame."""

    v_p: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v_p", np.asarray(self.v_p, dtype=float).reshape(3))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float).reshape(3))

    @staticmethod
    def zero() -> "Twist":
        return Twist(np.zeros(3), np.zeros(3))

    @staticmethod
    def from_vector(vec) -> "Twist":
        vec = np.asarray(vec, dtype=float).reshape(6)
        return Twist(vec[:3], vec[3:])

    def vector(self) -> np.ndarray:
        return np.concatenate([self.v_p, self.w])

    def scaled(self, s: float) -> "Twist":
        return Twist(self.v_p * s, self.w * s)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector()))


@dataclass(frozen=True)
class TwistWithUncertainty:
    mean: Twist
    cov: np.ndarray
    entropy: float


@dataclass(frozen=True)
class ControlConfig:
    lam: float = 0.5                    # control gain, 1/s
    entropy_threshold: float = math.inf  # nats; inf disables the policy
    reduced_scale: float = 0.1           # velocity factor above threshold
    v_max: float = 0.25                  # m/s
    w_max: float = 0.5                   # rad/s

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("control gain must be positive")
        if not 0.0 <= self.reduced_scale <= 1.0:
            raise ValueError("reduced_scale must lie in [0, 1]")
        if self.v_max <= 0 or self.w_max <= 0:
            raise ValueError("velocity limits must be positive")


def relative_pose(desired: Pose, current: Pose) -> Pose:
    """Transform from the current to the desired camera frame:
    desired-object pose composed with the inverse current-object pose."""
    c_inv = current.C.T
    c = desired.C @ c_inv
    t = desired.C @ -(c_inv @ current.t) + desired.t
    drift = (c @ c.T - _EYE3).ravel()
    if math.sqrt(drift.dot(drift)) > 1e-9:
        c = orthonormalize(c)
    return Pose(c, t)


def pbvs_law(rel: Pose, lam: float) -> Twist:
    """The raw (unclamped) servo law; requires the rotation angle < pi."""
    v_p = -lam * (rel.C.T @ rel.t)
    w = -lam * log_so3(rel.C)
    return Twist(v_p, w)


def relative_pose_stacked(desired: Pose, current: Pose) -> Pose:
    """relative_pose for a stack of current poses, C (N, 3, 3) and t (N, 3),
    against one desired pose; slice i has the bits of the single call. The
    metrics use it, the servo loop the single form."""
    c_inv = current.C.swapaxes(-1, -2)
    c = desired.C @ c_inv
    t = (desired.C @ -(c_inv @ current.t[:, :, None]))[:, :, 0] + desired.t
    drift = (c @ c.swapaxes(-1, -2) - _EYE3).reshape(-1, 9)
    redo = np.sqrt(np.vecdot(drift, drift)) > 1e-9
    if redo.any():
        c[redo] = orthonormalize(c[redo])
    return Pose(c, t)


def pbvs_law_stacked(rel: Pose, lam: float) -> np.ndarray:
    """pbvs_law for a stack of relative poses: the raw twists as (N, 6)
    rows [v_p, w], row i with the bits of pbvs_law(rel_i, lam).vector()."""
    v_p = -lam * (rel.C.swapaxes(-1, -2) @ rel.t[:, :, None])[:, :, 0]
    return np.concatenate([v_p, -lam * _log_so3_stacked(rel.C)], axis=1)


def clamp_twist(twist: Twist, cfg: ControlConfig) -> Twist:
    """Uniformly scale the twist so every component respects the limits;
    direction is preserved."""
    s = 1.0
    mv = _max_abs(twist.v_p)
    mw = _max_abs(twist.w)
    if mv > cfg.v_max:
        s = min(s, cfg.v_max / mv)
    if mw > cfg.w_max:
        s = min(s, cfg.w_max / mw)
    return twist if s >= 1.0 else twist.scaled(s)


def _max_abs(v) -> float:
    """Largest magnitude of a 3-vector; NaN if any entry is NaN, as np.max."""
    x, y, z = v.tolist()
    if x != x or y != y or z != z:
        return math.nan
    return max(abs(x), abs(y), abs(z))


def pbvs_velocity(rel: Pose, cfg: ControlConfig) -> Twist:
    """Servo law followed by the magnitude clamp."""
    return clamp_twist(pbvs_law(rel, cfg.lam), cfg)


def velocity_jacobian(rel: Pose, current: Pose,
                      cfg: ControlConfig) -> np.ndarray:
    """Derivative of the raw servo law with respect to the filter error
    state [dt, dphi] (left perturbation on the current object pose), at
    rel = relative_pose(desired, current).

    Perturbing the object pose perturbs the relative rotation on the right
    by -dphi, so the angular rows pick up lam * J_r^{-1}(theta*u); the
    translational rows follow from e_t = C_rel^T t_rel:

        d v_p / d dt   = lam * I
        d v_p / d dphi = lam * (hat(t_obj) + hat(e_t))
    """
    e_t = rel.C.T @ rel.t
    theta_u = log_so3(rel.C)
    jac = np.zeros((6, 6))
    jac[:3, :3] = cfg.lam * _EYE3
    jac[:3, 3:] = cfg.lam * (hat(current.t.tolist()) + hat(e_t.tolist()))
    jac[3:, 3:] = cfg.lam * right_jacobian_inv(theta_u)
    return jac


def velocity_covariance(jac, p) -> np.ndarray:
    """Forward propagation of the pose covariance through the control law."""
    return symmetrize(np.asarray(jac) @ np.asarray(p) @ np.asarray(jac).T)


def entropy(cov) -> float:
    """Differential entropy of a 6D Gaussian in nats:
    0.5 * ln((2 pi e)^6 |cov|); regularized with +1e-12 I when the
    determinant is not positive."""
    cov = symmetrize(cov)
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or not np.isfinite(logdet):
        sign, logdet = np.linalg.slogdet(cov + 1e-12 * np.eye(6))
    return 0.5 * (6.0 * math.log(_TWO_PI_E) + logdet)


def twist_with_uncertainty(desired: Pose, state: FilterState,
                           cfg: ControlConfig) -> TwistWithUncertainty:
    """Clamped servo twist plus its covariance and entropy."""
    rel = relative_pose(desired, state.mean)
    jac = velocity_jacobian(rel, state.mean, cfg)
    cov = velocity_covariance(jac, state.P)
    return TwistWithUncertainty(mean=clamp_twist(pbvs_law(rel, cfg.lam), cfg),
                                cov=cov, entropy=entropy(cov))


def apply_policy(tw: TwistWithUncertainty, cfg: ControlConfig) -> Twist:
    """Reduce the twist when the entropy exceeds the threshold, then clamp."""
    mean = tw.mean
    if math.isfinite(tw.entropy) and tw.entropy > cfg.entropy_threshold:
        mean = mean.scaled(cfg.reduced_scale)
    return clamp_twist(mean, cfg)
