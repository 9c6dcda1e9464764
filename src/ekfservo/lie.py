"""SO(3)/SE(3) primitives: exponential and log maps, Jacobians, pose algebra.

Rotations are plain 3x3 orthonormal matrices with determinant +1; rotation
vectors are axis * angle in radians. Twists are 6-vectors ordered
[translational, angular]. All functions are pure and allocate fresh arrays,
so they are safe to call concurrently.

`exp_so3`, `log_so3`, `right_jacobian_inv`, `exp_se3`, `orthonormalize`,
`clamp_psd` and `rotation_to_quaternion` also take a stack with a leading
axis of N (rotation vectors (N, 3), twists (N, 6), matrices (N, 3, 3) or
(N, n, n)) and then run once for all N: slice i of the result has the
same bits as the call on slice i alone, because each slice takes its own
series or closed-form branch and numpy's stacked matmul, vecdot, svd,
cholesky, sin/cos and arctan2 equal their per-slice forms;
`right_jacobian_inv` takes its closed-form coefficient from math.cos and
math.sin row by row, as a single call does. A stack of one runs the
single-slice code of `exp_so3`, `exp_se3` and `orthonormalize`, which is
cheaper for one slice (`log_so3`, `right_jacobian_inv`, `clamp_psd` and
`rotation_to_quaternion` run their stacked code on a stack of one, and
`right_jacobian_inv` runs it on a single input too, as a stack without
the leading axis). A `Pose` may likewise hold a stack, C (N, 3, 3) and
t (N, 3); its methods take single poses, and `pose_boxplus` and
`pose_boxminus` take one pose or a stack, slice i of a stacked result
having the bits of the call on slice i alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below these angles the closed forms lose digits to 0/0 cancellation, so
# low-order series (relative error < 1e-12 at the switch point) take over.
_EXP_SERIES_EPS = 1e-6
_JAC_SERIES_EPS = 1e-5
# clamp_psd's margin, relative to the trace: far above the rounding errors
# of a 6x6 Cholesky factorization and eigendecomposition (tens of eps),
# far below the smallest eigenvalue of any covariance the filter keeps.
_PSD_MARGIN = 1e3 * np.finfo(float).eps

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)
# Per branch of rotation_to_quaternion (positive trace, then c00, c11 or
# c22 largest), the columns of its terms that make (w, x, y, z).
_QUAT_SLOTS = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6],
                        [3, 5, 6, 0]])


def hat(v) -> np.ndarray:
    """Cross-product matrix: hat(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _hat_stacked(v) -> np.ndarray:
    """(..., 3) -> (..., 3, 3) cross-product matrices, as hat per row."""
    k = np.zeros(v.shape[:-1] + (3, 3))
    k[..., 0, 1] = -v[..., 2]
    k[..., 0, 2] = v[..., 1]
    k[..., 1, 0] = v[..., 2]
    k[..., 1, 2] = -v[..., 0]
    k[..., 2, 0] = -v[..., 1]
    k[..., 2, 1] = v[..., 0]
    return k


def exp_so3(phi) -> np.ndarray:
    """Rodrigues formula; second-order series below the small-angle switch.
    phi is one rotation vector or an (N, 3) stack."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 2:
        return (_exp_so3_stacked(phi) if phi.shape[0] != 1
                else exp_so3(phi[0])[None])
    k = hat(phi.tolist())
    theta = math.sqrt(phi.dot(phi))
    if theta < _EXP_SERIES_EPS:
        return _EYE3 + k + 0.5 * (k @ k)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / theta**2
    return _EYE3 + a * k + b * (k @ k)


def _exp_so3_stacked(phi) -> np.ndarray:
    k = _hat_stacked(phi)
    kk = k @ k
    theta = np.sqrt(np.vecdot(phi, phi))
    series = theta < _EXP_SERIES_EPS
    # a series slice computes on 1.0 instead of its angle and takes the
    # series coefficients 1 and 1/2, so no slice divides by zero;
    # float_power is Python's pow, as theta**2 is in exp_so3, where numpy's
    # ** rounds apart on some inputs
    th = np.where(series, 1.0, theta)
    a = np.where(series, 1.0, np.sin(th) / th)
    b = np.where(series, 0.5, (1.0 - np.cos(th)) / np.float_power(th, 2))
    return _EYE3 + a[:, None, None] * k + b[:, None, None] * kk


def log_so3(c) -> np.ndarray:
    """Rotation vector of a rotation matrix, with norm <= pi; c is one
    rotation or an (N, 3, 3) stack, which gives (N, 3).

    Near a half turn the antisymmetric part of the matrix vanishes, so the
    axis is recovered from the symmetric part instead: the squared axis
    components sit on the diagonal, and the column of the largest diagonal
    entry fixes the relative signs. The overall sign follows the
    antisymmetric part while it carries signal; at exactly pi it is pinned
    by making the first nonzero axis component positive.

    Behaviour at and near pi (Sola, Deray & Atchuthan, "A micro Lie theory
    for state estimation in robotics", arXiv:1812.01537, the SO(3)
    appendix): the logarithm is single-valued only for theta < pi. There the
    result inverts exp_so3 to rounding, with the angle taken from
    arctan2(sin, cos), which stays well conditioned up to pi. At exactly
    pi, phi and -phi give the same rotation, and the sign rule above
    picks one of them, so log_so3(exp_so3(phi)) may return -phi. Within
    1e-4 of pi the axis comes from the symmetric part, which still gives
    exp_so3(log_so3(C)) == C to rounding.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 3:
        return _log_so3_stacked(c)
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = c.tolist()
    w = np.array([c21 - c12, c02 - c20, c10 - c01])  # 2 sin(theta) * axis
    w_norm = math.sqrt(w.dot(w))
    sin_t = 0.5 * w_norm
    # the trace summed as np.trace sums it: (c00 + c11) + c22
    cos_t = min(max(0.5 * (c00 + c11 + c22 - 1.0), -1.0), 1.0)
    # np.arctan2, not math.atan2: the two round differently on some inputs
    theta = float(np.arctan2(sin_t, cos_t))  # well conditioned at 0 and pi
    if theta < 1e-7:
        return 0.5 * w
    if theta < np.pi - 1e-4:
        return (0.5 * theta / sin_t) * w
    # theta close to pi: (C + C^T)/2 = cos(theta) I + (1 - cos(theta)) a a^T
    aat = (0.5 * (c + c.T) - cos_t * np.eye(3)) / (1.0 - cos_t)
    k = int(np.argmax(np.diag(aat)))
    axis = aat[:, k] / np.sqrt(max(aat[k, k], 1e-16))
    axis = axis / math.sqrt(axis.dot(axis))
    if w_norm > 1e-12:
        if float(np.dot(w, axis)) < 0.0:
            axis = -axis
    else:
        for comp in axis:
            if abs(comp) > 1e-12:
                if comp < 0.0:
                    axis = -axis
                break
    return theta * axis


def _log_so3_stacked(c) -> np.ndarray:
    """log_so3 of a stack: the small-angle and general branches as masks,
    and the slices within 1e-4 of pi, rare in a servo loop, one by one."""
    f = c.reshape(-1, 9)
    w = f[:, [7, 2, 3]] - f[:, [5, 6, 1]]  # 2 sin(theta) * axis
    sin_t = 0.5 * np.sqrt(np.vecdot(w, w))
    cos_t = np.clip(0.5 * (f[:, 0] + f[:, 4] + f[:, 8] - 1.0), -1.0, 1.0)
    theta = np.arctan2(sin_t, cos_t)
    small = theta < 1e-7
    general = ~small & (theta < np.pi - 1e-4)
    # only a general slice divides by its sine; the others take 0.5
    scale = np.where(general, 0.5 * theta / np.where(general, sin_t, 1.0),
                     0.5)
    out = scale[:, None] * w
    for i in np.flatnonzero(~(small | general)).tolist():
        out[i] = log_so3(c[i])
    return out


def right_jacobian(phi) -> np.ndarray:
    """Right Jacobian of SO(3): exp(phi + d) ~ exp(phi) exp(J_r(phi) d)."""
    phi = np.asarray(phi, dtype=float)
    k = hat(phi)
    theta = float(np.linalg.norm(phi))
    if theta < _JAC_SERIES_EPS:
        return np.eye(3) - 0.5 * k + (k @ k) / 6.0
    b = (1.0 - np.cos(theta)) / theta**2
    cc = (theta - np.sin(theta)) / theta**3
    return np.eye(3) - b * k + cc * (k @ k)


def right_jacobian_inv(phi) -> np.ndarray:
    """Inverse right Jacobian; requires ||phi|| < pi. phi is one rotation
    vector or an (N, 3) stack, which gives (N, 3, 3).

    Behaviour at and near pi (Sola, Deray & Atchuthan, arXiv:1812.01537,
    the SO(3) appendix): the closed-form coefficient
    1/theta^2 - (1 + cos theta) / (2 theta sin theta) divides by sin theta,
    but 1 + cos theta vanishes twice as fast, so the coefficient tends to
    1/pi^2 and the result stays finite up to and at pi (at exactly pi the
    floating-point 1 + cos theta is 0). Rounding in 1 + cos theta leaves
    an absolute error of at most about eps / (pi - theta) in that
    coefficient. The true inverse is singular only at 2 pi; callers pass
    principal rotation vectors, whose norm log_so3 keeps <= pi.
    """
    phi = np.asarray(phi, dtype=float)
    k = _hat_stacked(phi)
    kk = k @ k
    theta = np.sqrt(np.vecdot(phi, phi))
    # the closed-form coefficient row by row with math.cos and math.sin,
    # whose bits numpy's vectorized cos and sin need not give
    d = np.array([0.0 if th < _JAC_SERIES_EPS else 1.0 / th**2
                  - (1.0 + math.cos(th)) / (2.0 * th * math.sin(th))
                  for th in np.ravel(theta).tolist()]).reshape(theta.shape)
    out = _EYE3 + 0.5 * k + d[..., None, None] * kk
    series = theta < _JAC_SERIES_EPS
    if np.count_nonzero(series):
        out[series] = _EYE3 + 0.5 * k[series] + kk[series] / 12.0
    return out


def exp_se3(xi, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """SE(3) exponential of the scaled twist xi * dt.

    xi is ordered [v, w], one twist or an (N, 6) stack; returns (rotation,
    translation) of the resulting rigid transform: exp_so3(phi) and the
    left Jacobian of phi times rho, which share hat, the angle, its sine
    and cosine, and hat squared.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 2:
        if xi.shape[0] != 1:
            return _exp_se3_stacked(xi, dt)
        c, t = exp_se3(xi[0], dt)
        return c[None], t[None]
    rho = xi[:3] * dt
    phi = xi[3:] * dt
    k = hat(phi.tolist())
    kk = k @ k
    theta = math.sqrt(phi.dot(phi))
    if theta < _EXP_SERIES_EPS:
        return _EYE3 + k + 0.5 * kk, (_EYE3 + 0.5 * k + kk / 6.0) @ rho
    sin_t = np.sin(theta)
    b = (1.0 - np.cos(theta)) / theta**2
    c = _EYE3 + (sin_t / theta) * k + b * kk
    if theta < _JAC_SERIES_EPS:
        jac = _EYE3 + 0.5 * k + kk / 6.0
    else:
        jac = _EYE3 + b * k + ((theta - sin_t) / theta**3) * kk
    return c, jac @ rho


def _exp_se3_stacked(xi, dt: float) -> tuple[np.ndarray, np.ndarray]:
    rho = xi[:, :3] * dt
    phi = xi[:, 3:] * dt
    k = _hat_stacked(phi)
    kk = k @ k
    theta = np.sqrt(np.vecdot(phi, phi))
    series_exp = theta < _EXP_SERIES_EPS
    series_jac = theta < _JAC_SERIES_EPS
    th = np.where(series_exp, 1.0, theta)
    sin_t = np.sin(th)
    b = (1.0 - np.cos(th)) / np.float_power(th, 2)
    a = np.where(series_exp, 1.0, sin_t / th)
    b_exp = np.where(series_exp, 0.5, b)
    c = _EYE3 + a[:, None, None] * k + b_exp[:, None, None] * kk
    # the series term is kk / 6, the closed one cc * kk (divided by 1)
    b_jac = np.where(series_jac, 0.5, b)
    cc = np.where(series_jac, 1.0, (th - sin_t) / np.float_power(th, 3))
    den = np.where(series_jac, 6.0, 1.0)
    jac = (_EYE3 + b_jac[:, None, None] * k
           + (cc[:, None, None] * kk) / den[:, None, None])
    return c, (jac @ rho[:, :, None])[:, :, 0]


def orthonormalize(c) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (via SVD); c is one
    matrix or an (N, 3, 3) stack."""
    c = np.asarray(c, dtype=float)
    if c.ndim == 3 and c.shape[0] == 1:
        return orthonormalize(c[0])[None]
    u, _, vt = np.linalg.svd(c)
    r = u @ vt
    if r.ndim == 3:
        # r is orthogonal, so its determinant is +-1 and LU's sign is the
        # cofactor expansion's
        flip = np.linalg.det(r) < 0.0
        if flip.any():
            u[flip, :, -1] = -u[flip, :, -1]
            r[flip] = u[flip] @ vt[flip]
        return r
    # r is orthogonal, so its determinant is +-1 and a cofactor expansion
    # gets its sign as surely as an LU factorization
    x, y, z = r.tolist()
    if (x[0] * (y[1] * z[2] - y[2] * z[1]) - x[1] * (y[0] * z[2] - y[2] * z[0])
            + x[2] * (y[0] * z[1] - y[1] * z[0])) < 0.0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def rotation_to_quaternion(c) -> np.ndarray:
    """Unit quaternion (w, x, y, z); used for logging only. c is one
    rotation or an (N, 3, 3) stack, which gives (N, 4).

    Each slice takes the branch its trace and diagonal pick: positive
    trace, else the largest diagonal entry (the first of equal ones). In
    each branch the square root's argument is at least 1, so s >= 2.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 2:
        return rotation_to_quaternion(c[None])[0]
    f = c.reshape(-1, 9)
    c00, c01, c02, c10, c11, c12, c20, c21, c22 = f.T
    tr = c00 + c11 + c22  # summed in np.trace's order
    # branch 0: positive trace; 1, 2, 3: c00, c11 or c22 largest
    first = tr > 0.0
    second = ~first & (c00 >= c11) & (c00 >= c22)
    branch = np.where(first, 0, np.where(second, 1,
                                         np.where(c11 >= c22, 2, 3)))
    arg = np.where(first, tr + 1.0, np.where(
        second, 1.0 + c00 - c11 - c22, np.where(
            branch == 2, 1.0 + c11 - c00 - c22, 1.0 + c22 - c00 - c11)))
    s = np.sqrt(arg) * 2.0
    # the branch's 0.25 s and the six differences and sums over s, placed
    # per branch by _QUAT_SLOTS
    terms = np.stack([0.25 * s, (c21 - c12) / s, (c02 - c20) / s,
                      (c10 - c01) / s, (c01 + c10) / s, (c02 + c20) / s,
                      (c12 + c21) / s], axis=1)
    q = terms[np.arange(len(s))[:, None], _QUAT_SLOTS[branch]]
    q = np.where(q[:, :1] < 0.0, -q, q)
    return q / np.sqrt(np.vecdot(q, q))[:, None]


def symmetrize(m) -> np.ndarray:
    """0.5 (m + m^T), per slice of a stack."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.swapaxes(-1, -2))


def clamp_psd(m) -> np.ndarray:
    """Symmetrize and clamp negative eigenvalues to zero; m is one matrix
    or an (N, n, n) stack, clamped slice by slice.

    A filter covariance is almost always positive definite already, so the
    eigendecomposition is skipped when `cholesky_certifies` the stack with
    margin _PSD_MARGIN: the smallest eigenvalue of each slice is then at
    least about _PSD_MARGIN times its trace, and eigh's eigenvalues are off
    by at most a small multiple of eps ||s|| (Weyl), so eigh would have
    found none below zero and returned the slice unchanged. One matrix is
    a stack of one. When the stack fails, every slice goes to eigh.
    """
    s = symmetrize(m)
    stack = s.reshape(-1, *s.shape[-2:])  # a view: writes land in s
    if not cholesky_certifies(stack, _PSD_MARGIN):
        for i in range(stack.shape[0]):
            stack[i] = _clamp_eigh(stack[i])
    return s


def cholesky_certifies(s: np.ndarray, margin: float) -> bool:
    """A Cholesky factorization of s - delta I succeeds for every slice of
    the non-empty (N, n, n) stack s, each finite, with delta = margin
    trace(s) > 0 per slice.

    Success bounds the smallest eigenvalue of a slice below by delta minus
    the factorization's backward error, O(n^2 eps ||s||) (Higham, "Accuracy
    and Stability of Numerical Algorithms", ch. 10), and the largest above
    by its trace. With a margin far above n^2 eps, every slice is then
    positive definite with condition number at most about 1 / margin, and
    an eigensolver, whose eigenvalues are off by a small multiple of
    eps ||s||, finds the same. Cholesky reads the lower triangle of s, as
    eigh and eigvalsh do.
    """
    n = s.shape[-1]
    # delta per slice, scaled before the sum so that it cannot overflow
    delta = (s.reshape(-1, n * n)[:, ::n + 1] * margin).sum(axis=1)
    # a NaN need not stop the factorization, so only finite s qualifies
    if not (delta.min() > 0.0 and np.isfinite(s).all()):
        return False
    shifted = s.copy()
    shifted.reshape(-1, n * n)[:, ::n + 1] -= delta[:, None]
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _clamp_eigh(s: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(s)
    if w[0] >= 0.0:
        return s
    w = np.clip(w, 0.0, None)
    return symmetrize((v * w) @ v.T)


@dataclass(frozen=True)
class Pose:
    """Rigid transform mapping source-frame points: x_dst = C @ x_src + t."""

    C: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "C", np.asarray(self.C, dtype=float))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(
            self.C.shape[:-1]))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.C @ other.C, self.C @ other.t + self.t)

    def inverse(self) -> "Pose":
        return Pose(self.C.T, -(self.C.T @ self.t))

    def apply(self, points) -> np.ndarray:
        """Transform one point (3,) or a stack of points (N, 3)."""
        return np.asarray(points, dtype=float) @ self.C.T + self.t

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.C
        m[:3, 3] = self.t
        return m


def pose_boxplus(pose: Pose, delta) -> Pose:
    """Apply a tangent increment [dt, dphi] under the left convention:
    t + dt, exp(hat(dphi)) @ C; one pose and a 6-vector, or a stack of N
    poses and an (N, 6) array."""
    delta = np.asarray(delta, dtype=float)
    return Pose(exp_so3(delta[..., 3:]) @ pose.C, pose.t + delta[..., :3])


def pose_boxminus(a: Pose, b: Pose) -> np.ndarray:
    """Tangent difference of a relative to b, inverse of pose_boxplus:
    [a.t - b.t, log(a.C @ b.C^T)]; two poses give a 6-vector, two stacks
    of N an (N, 6) array."""
    return np.concatenate([a.t - b.t, log_so3(a.C @ b.C.swapaxes(-1, -2))],
                          axis=-1)
