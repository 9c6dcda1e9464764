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

The update predicts the keypoints by `keypoints.predict_keypoints` and
builds its Jacobian blocks by `camera.masked_blocks`. It gates each
keypoint by its 2x2 Mahalanobis distance against the chi-square(2)
quantile, whose closed form is -2 log(1 - level); the gate reads its
blocks off the same innovation S = H P H^T that the gain uses.
S counts as singular when it is non-finite or when its condition number,
the ratio of the largest to the smallest eigenvalue magnitude of the
symmetric S, exceeds INNOVATION_COND_LIMIT. A Cholesky factorization of a
shifted S (`lie.cholesky_certifies`) certifies most innovations well
conditioned; eigvalsh decides only the rest, with the same verdict.

`update` takes a stack of N beliefs (mean a Pose of (N, 3, 3) and (N, 3)
arrays, P (N, 6, 6)) and a stacked Measurement, one belief being a stack
of one, and reports each belief's numerical failure in its row of
`UpdateResult.errors`; slice i of its result has the bits of the update
of belief i alone, and `update` lists its three stages. `propagate`
takes such a stack with an (N, 6) array of twists, or one belief (mean
a Pose, P 6x6) with one twist, which it runs as a stack of one. A stack
of beliefs, like a stack of poses, selects its rows as `x[rows]`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .camera import Intrinsics, masked_blocks
from .keypoints import KeypointSet, Measurement, predict_keypoints
from .lie import (Pose, cholesky_certifies, clamp_psd, exp_so3, pose_boxplus,
                  symmetrize)

INNOVATION_COND_LIMIT = 1e12
# the certificate's margin: it passes condition numbers up to about
# INNOVATION_COND_LIMIT / 10, which eigvalsh passes too
_COND_MARGIN = 10.0 / INNOVATION_COND_LIMIT
_EYE6 = np.eye(6)
_EYE6.setflags(write=False)


class SingularInnovation(RuntimeError):
    """Innovation matrix is numerically singular (degenerate geometry)."""


def require_finite_square(name: str, std) -> None:
    """Raise a ValueError whose message starts with name unless std**2,
    which the covariances built from a std take, is a finite float."""
    if not math.isfinite(float(std) * std):  # a float's ** would raise
        raise ValueError(f"{name} must be at most about 1.34e154, so that "
                         "its square is finite")


@dataclass(frozen=True)
class NoiseParams:
    """Velocity-noise standard deviations of the motion prior."""

    sigma_vp: float
    sigma_vw: float

    def __post_init__(self):
        for name in ("sigma_vp", "sigma_vw"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive")
            require_finite_square(name, value)

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

    def __getitem__(self, rows) -> "FilterState":
        """FilterState(mean[rows], P[rows]); an integer gives one belief."""
        return FilterState(self.mean[rows], self.P[rows])


def initialize(prior: Pose, init_sigma_t: float, init_sigma_phi: float) -> FilterState:
    """Belief from a pose prior with isotropic translation/rotation stds."""
    p = np.zeros((6, 6))
    p[:3, :3] = init_sigma_t**2 * np.eye(3)
    p[3:, 3:] = init_sigma_phi**2 * np.eye(3)
    return FilterState(prior, p)


def propagate(state: FilterState, twist, dt: float,
              noise: NoiseParams) -> FilterState:
    """Constant-velocity prediction with the commanded camera twist
    [v, w]: one belief and a 6-vector, or a stack of N beliefs and an
    (N, 6) array of twists."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    twist = np.asarray(twist, dtype=float)
    if state.P.ndim == 2:
        return propagate(state[None], twist[None], dt, noise)[0]
    r = exp_so3(-twist[:, 3:] * dt)
    t_new = (r @ state.mean.t[:, :, None])[:, :, 0] - twist[:, :3] * dt
    c_new = r @ state.mean.C

    f = np.zeros((r.shape[0], 6, 6))
    f[:, :3, :3] = r
    f[:, 3:, 3:] = r
    p_new = f @ state.P @ f.swapaxes(1, 2) + noise.rate_covariance * dt
    return FilterState(Pose(c_new, t_new), symmetrize(p_new))


def measurement_jacobian(pose: Pose, kps: KeypointSet,
                         intr: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Per-keypoint residual Jacobians d(measured - predicted)/d[dt, dphi].

    With the left perturbation, the camera-frame point moves as
    I * dt - hat(dphi) acting on C @ X, so each 2x6 block is
    [-J_proj, J_proj @ hat(C @ X)] (`camera.jacobian_blocks`). Returns
    (H blocks (n, 2, 6), ok mask); a keypoint not beyond the Z_MIN plane
    has ok False and a zero block.
    """
    _, ok, rotated = predict_keypoints(pose, kps, intr)
    return masked_blocks(rotated, rotated + pose.t, ok, intr), ok


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


@dataclass
class UpdateResult:
    """A stacked update's outcome, one row per belief."""

    state: FilterState
    used: np.ndarray          # (N, n) flags: the keypoint entered the update
    n_visible: np.ndarray     # measured-visible keypoints this frame
    residual_rms: np.ndarray  # RMS of used residual components, NaN if none
    # per belief, None or the exception that failed it (its row of `state`
    # then holds the prior)
    errors: list = field(default_factory=list)


def update(state: FilterState, meas: Measurement, kps: KeypointSet,
           intr: Intrinsics, gate_level: float = 0.999) -> UpdateResult:
    """Keypoint update with on-manifold injection.

    K = P H^T (H P H^T + Q)^-1 with H the *residual* Jacobian; since
    eps ~ -H * (true error), the injected correction is dx = -K eps,
    then t += dt and C <- exp(hat(dphi)) C. The covariance update
    (I - K H) P is insensitive to that sign choice. Only
    measured-visible, predictable, gated keypoints enter; with none, the
    prediction is returned unchanged.

    One belief's numerical trouble raises nothing: its entry of `errors`
    holds the exception (SingularInnovation for a non-finite or
    ill-conditioned innovation, or a LinAlgError or FloatingPointError
    from numpy), its row keeps the prior, and the other beliefs are
    unaffected. The stack runs in three stages:

    1. once for every belief with a usable keypoint: projection, the
       Jacobian blocks over all n keypoints (unusable ones as zero
       rows), one H P, one S = H P H^T and S + Q, the finiteness test and
       the 2x2 gate;
    2. once per count of kept keypoints: the kept rows of H, H P and
       S + Q, then the condition test (a Cholesky certificate of the
       shifted S + Q, with eigvalsh only where it fails; see
       `_ill_conditioned`), the solve, K eps and I - K H;
    3. once for every updated belief: clamp_psd and the mean injection,
       `pose_boxplus`.

    Stage 1 multiplies over all n keypoint rows, one belief alone
    included, where the update needs only its m usable ones; its kept rows
    have the bits of a product over those m rows only because numpy's
    matmul gives each element the same bits whatever the rest of its
    operands, which the oracle tests pin on the numpy and BLAS build they
    run on (a BLAS that picks its kernel by shape would break it). When
    numpy raises inside the stack, the update is redone one belief at a
    time, so that only the belief that raises fails.
    """
    try:
        return _update_stack(state, meas, kps, intr,
                             _gate_threshold(gate_level))
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        if state.P.shape[0] == 1:
            return _unchanged(state, meas, [exc])
    out = _unchanged(state, meas, [])
    for i in range(state.P.shape[0]):
        one = slice(i, i + 1)
        res = update(state[one], Measurement(meas.uv[one], meas.cov[one],
                                             meas.visible[one]),
                     kps, intr, gate_level)
        out.state.mean.C[one], out.state.mean.t[one] = (res.state.mean.C,
                                                        res.state.mean.t)
        out.state.P[one], out.used[one] = res.state.P, res.used
        out.residual_rms[one] = res.residual_rms
        out.errors += res.errors
    return out


def _unchanged(state: FilterState, meas: Measurement,
               errors: list) -> UpdateResult:
    """The outcome of a stack in which no belief is updated."""
    n_beliefs, n = meas.visible.shape
    return UpdateResult(
        FilterState(Pose(state.mean.C.copy(), state.mean.t.copy()),
                    state.P.copy()),
        np.zeros((n_beliefs, n), dtype=bool), meas.visible.sum(axis=1),
        np.full(n_beliefs, np.nan), errors)


def _update_stack(state, meas, kps, intr, thresh) -> UpdateResult:
    """The stacked update's three stages; numpy's exceptions propagate."""
    n_beliefs, n = meas.visible.shape
    errors = [None] * n_beliefs
    uv_pred, ok, rotated = predict_keypoints(state.mean, kps, intr)
    usable = meas.visible & ok
    counts = usable.sum(axis=1)
    if counts.all():  # every belief takes part: slices, not gathers
        ids, act = np.arange(n_beliefs), slice(None)
    elif counts.any():
        ids = act = np.flatnonzero(counts)
    else:
        return _unchanged(state, meas, errors)

    # stage 1, over all n keypoint rows of the beliefs that take part,
    # unusable ones as zero rows
    n_act = ids.size
    mask = usable[act]
    rotated = rotated[act]
    h = masked_blocks(rotated.reshape(-1, 3),
                      (rotated + state.mean.t[act][:, None, :]).reshape(-1, 3),
                      mask.reshape(-1), intr)
    residuals = meas.uv[act] - uv_pred[act]
    h = h.reshape(n_act, 2 * n, 6)
    hp = h @ state.P[act]
    s = hp @ h.swapaxes(1, 2)
    # S + Q, Q holding each keypoint's 2x2 covariance on the block diagonal
    q = np.zeros((n_act, n, 2, n, 2))
    diag = np.arange(n)
    q[:, diag, :, diag, :] = meas.cov[act].swapaxes(0, 1)
    sq = s + q.reshape(n_act, 2 * n, 2 * n)
    # each keypoint's 2x2 block of S + Q, as (belief, keypoint, 2, 2)
    blocks = sq.reshape(n_act, n, 2, n, 2).diagonal(axis1=1, axis2=3)
    keep = _mahalanobis_keep(residuals, blocks.transpose(0, 3, 1, 2), thresh)
    keep &= mask
    if not np.isfinite(s).all():
        finite = np.isfinite(s).all(axis=(1, 2))
        for i in ids[~finite].tolist():
            errors[i] = SingularInnovation("non-finite innovation")
        keep[~finite] = False
    kept = keep.sum(axis=1)

    # stage 2, per count of kept keypoints
    if keep.all():
        groups = [(slice(None), h, hp, sq, residuals)]
    else:
        groups = []
        for m in sorted(set(kept.tolist()) - {0}):
            sub = np.flatnonzero(kept == m)
            pos = np.nonzero(keep[sub])[1].reshape(sub.size, m)
            r2 = (2 * pos[:, :, None] + (0, 1)).reshape(sub.size, 2 * m)
            at = sub[:, None]
            groups.append((sub, h[at, r2], hp[at, r2],
                           sq[sub[:, None, None], r2[:, :, None],
                              r2[:, None, :]],
                           residuals[at, pos]))
    # gains, corrections and RMS, set in the rows of updated beliefs
    updated = np.zeros(n_act, dtype=bool)
    ikh = np.empty((n_act, 6, 6))
    delta = np.empty((n_act, 6))
    rms = np.empty(n_act)
    for sub, *args in groups:
        ill, *gain = _gain(*args)
        if ill is not None:
            sub = np.arange(n_act)[sub][~ill]
        updated[sub] = True
        ikh[sub], delta[sub], rms[sub] = gain
    if not updated.all():
        for i in ids[~updated & (kept > 0)].tolist():
            errors[i] = SingularInnovation(
                "innovation condition number exceeds "
                f"{INNOVATION_COND_LIMIT:.0e}")
        keep[~updated] = False

    # stage 3, over every updated belief
    if n_act == n_beliefs and updated.all():
        return UpdateResult(
            FilterState(pose_boxplus(state.mean, delta),
                        clamp_psd(ikh @ state.P)),
            keep, meas.visible.sum(axis=1), rms, errors)
    out = _unchanged(state, meas, errors)
    out.used[ids] = keep
    at = ids[updated]
    if at.size:
        mean = pose_boxplus(state.mean[at], delta[updated])
        out.state.mean.C[at], out.state.mean.t[at] = mean.C, mean.t
        out.state.P[at] = clamp_psd(ikh[updated] @ state.P[at])
        out.residual_rms[at] = rms[updated]
    return out


def _gain(h, hp, s, residuals):
    """Stage 2 of `update` for beliefs that keep the same count m of
    keypoints, given the kept rows of H, H P and S + Q: (ill, I - K H, the
    correction -K eps, the residual RMS). ill marks the beliefs whose
    innovation is ill-conditioned, or is None when there are none; the
    other three hold rows for the rest only."""
    n_g, m = residuals.shape[:2]
    eps = residuals.reshape(n_g, 2 * m)
    ill = _ill_conditioned(s)
    if not ill.any():
        ill = None
    else:
        good = ~ill
        h, hp, s, eps = h[good], hp[good], s[good], eps[good]
    k = np.linalg.solve(s, hp).swapaxes(1, 2)  # P H^T S^-1, P symmetric
    delta = -(k @ eps[:, :, None])[:, :, 0]
    # the mean of eps**2 per belief, as np.mean computes it
    return (ill, _EYE6 - k @ h, delta,
            np.sqrt((eps**2).sum(axis=1) / (2 * m)))


def _ill_conditioned(s: np.ndarray) -> np.ndarray:
    """Per slice of the (N, n, n) innovation stack s: its condition number,
    max |eigenvalue| / min |eigenvalue| by eigvalsh, exceeds
    INNOVATION_COND_LIMIT. eigvalsh runs only when `cholesky_certifies`
    fails for the stack."""
    if cholesky_certifies(s, _COND_MARGIN):
        return np.zeros(s.shape[0], dtype=bool)
    eig = np.abs(np.linalg.eigvalsh(s))
    return eig.max(axis=1) > INNOVATION_COND_LIMIT * eig.min(axis=1)

