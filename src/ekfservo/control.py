"""Probabilistic pose-based visual servoing.

The control law maps the relative transform between desired and current
camera frames to a camera twist,

    v = -lambda * e,   e = [C_rel^T t_rel, theta*u],

and the filter covariance is pushed through its linearization to obtain a
twist covariance and a scalar differential entropy. An entropy threshold
gates a velocity reduction of the clamped command. The law returns the
servo error e with the twist, and the linearization reads that e rather
than forming it again.

A twist is a plain float array [v_p, w]: translational velocity v_p (m/s)
and angular velocity w (rad/s), both in the camera frame; shape (6,), or
(N, 6) for a stack, as is a servo error. `relative_pose`, `pbvs_law`,
`velocity_jacobian`, `velocity_covariance`, `entropy` and `apply_policy`
take one pose, error, matrix or twist, or a stack of N (a Pose of
(N, 3, 3) and (N, 3) arrays, (N, 6) errors, or (N, 6, 6) matrices), row i
of a stacked result with the bits of the call on row i alone; the clamp
takes one twist. The stacked twist covariance rests, like the stacked EKF
update, on numpy's matrix product giving each slice of a stack the bits
of the same product on that slice alone, which the oracle tests establish
only on the numpy and BLAS build they run on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lie import (
    _EYE3,
    Pose,
    _hat_stacked,
    log_so3,
    orthonormalize,
    right_jacobian_inv,
    symmetrize,
)

_TWO_PI_E = 2.0 * math.pi * math.e


@dataclass(frozen=True)
class ControlConfig:
    lam: float = 0.5                    # control gain, 1/s
    entropy_threshold: float = math.inf  # nats; inf disables the policy
    reduced_scale: float = 0.1           # velocity factor above threshold
    v_max: float = 0.25                  # m/s
    w_max: float = 0.5                   # rad/s

    def __post_init__(self):
        # each message starts with the field's name in the config file
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if not 0.0 <= self.reduced_scale <= 1.0:
            raise ValueError("reduced_scale must lie in [0, 1]")
        for name in ("v_max", "w_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def relative_pose(desired: Pose, current: Pose) -> Pose:
    """Transform from the current to the desired camera frame:
    desired-object pose composed with the inverse current-object pose.
    current is one pose or a stack of N, against one desired pose."""
    if current.C.ndim == 3:
        c_inv = current.C.swapaxes(-1, -2)
        c = desired.C @ c_inv
        t = (desired.C @ -(c_inv @ current.t[:, :, None]))[:, :, 0] + desired.t
        drift = (c @ c.swapaxes(-1, -2) - _EYE3).reshape(-1, 9)
        redo = np.sqrt(np.vecdot(drift, drift)) > 1e-9
        if redo.any():
            c[redo] = orthonormalize(c[redo])
        return Pose(c, t)
    # one pose: the same arithmetic on 3x3 and 3-vector operands, without
    # the stack's reshapes, which cost more than the products here
    c_inv = current.C.T
    c = desired.C @ c_inv
    t = desired.C @ -(c_inv @ current.t) + desired.t
    drift = (c @ c.T - _EYE3).ravel()
    if math.sqrt(drift.dot(drift)) > 1e-9:
        c = orthonormalize(c)
    return Pose(c, t)


def pbvs_law(rel: Pose, lam: float) -> tuple:
    """The raw (unclamped) servo law -lam * e and the servo error e =
    [C_rel^T t_rel, theta*u] it scales, which `velocity_jacobian` reads;
    requires the rotation angle < pi. rel is one relative pose, giving
    two (6,) arrays, or a stack of N, giving two (N, 6)."""
    c_t = rel.C.swapaxes(-1, -2)
    e_t = c_t @ rel.t if c_t.ndim == 2 else (c_t @ rel.t[:, :, None])[:, :, 0]
    e = np.concatenate([e_t, log_so3(rel.C)], axis=-1)
    return -lam * e, e


def clamp_twist(twist: np.ndarray, cfg: ControlConfig) -> np.ndarray:
    """Uniformly scale the twist down to the limits, preserving direction;
    the scale rounds, so a component can end one ulp above a limit that is
    no power of two. A twist within the limits is returned as is."""
    vx, vy, vz, wx, wy, wz = twist.tolist()
    s = 1.0
    mv = _max_abs(vx, vy, vz)
    mw = _max_abs(wx, wy, wz)
    if mv > cfg.v_max:
        s = min(s, cfg.v_max / mv)
    if mw > cfg.w_max:
        s = min(s, cfg.w_max / mw)
    return twist if s >= 1.0 else twist * s


def _max_abs(x: float, y: float, z: float) -> float:
    """Largest magnitude of three floats; NaN if any is NaN, as np.max."""
    if x != x or y != y or z != z:
        return math.nan
    return max(abs(x), abs(y), abs(z))


def velocity_jacobian(error: np.ndarray, current: Pose,
                      cfg: ControlConfig) -> np.ndarray:
    """Derivative of the raw servo law with respect to the filter error
    state [dt, dphi] (left perturbation on the current object pose), at
    the servo error e = [e_t, theta*u] that `pbvs_law` returned for the
    relative pose of `current`. One error (6,) and pose give (6, 6), a
    stack of N errors (N, 6) and poses (N, 6, 6).

    Perturbing the object pose perturbs the relative rotation on the right
    by -dphi, so the angular rows pick up lam * J_r^{-1}(theta*u); the
    translational rows follow from e_t = C_rel^T t_rel:

        d v_p / d dt   = lam * I
        d v_p / d dphi = lam * (hat(t_obj) + hat(e_t))
    """
    jac = np.zeros(error.shape[:-1] + (6, 6))
    jac[..., :3, :3] = cfg.lam * _EYE3
    jac[..., :3, 3:] = cfg.lam * (_hat_stacked(current.t)
                                  + _hat_stacked(error[..., :3]))
    jac[..., 3:, 3:] = cfg.lam * right_jacobian_inv(error[..., 3:])
    return jac


def velocity_covariance(jac, p) -> np.ndarray:
    """Forward propagation of the pose covariance through the control law:
    one (6, 6) pair, or (N, 6, 6) stacks, propagated slice by slice."""
    jac = np.asarray(jac)
    return symmetrize(jac @ np.asarray(p) @ jac.swapaxes(-1, -2))


def entropy(cov):
    """Differential entropy of a 6D Gaussian in nats:
    0.5 * ln((2 pi e)^6 |cov|); regularized with +1e-12 I when the
    determinant is not positive. One covariance gives a float, an
    (N, 6, 6) stack an (N,) array, each slice regularized on its own."""
    cov = symmetrize(cov)
    sign, logdet = np.linalg.slogdet(cov)
    redo = (sign <= 0) | ~np.isfinite(logdet)
    if np.count_nonzero(redo):
        logdet = np.array(logdet)
        logdet[redo] = np.linalg.slogdet(cov[redo] + 1e-12 * np.eye(6))[1]
    return 0.5 * (6.0 * math.log(_TWO_PI_E) + logdet)


def apply_policy(twist: np.ndarray, entropy, cfg: ControlConfig) -> np.ndarray:
    """The twist, (6,) with a float entropy or (N, 6) with (N,), times
    reduced_scale where the entropy is finite and above the threshold, else
    as is. No clamp: a factor in [0, 1] enlarges no clamped component."""
    entropy = np.asarray(entropy)
    fired = np.isfinite(entropy) & (entropy > cfg.entropy_threshold)
    return np.where(fired[..., None], twist * cfg.reduced_scale, twist)
