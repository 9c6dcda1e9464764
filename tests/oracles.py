"""Independent numerical oracles shared by the tests.

These deliberately avoid the library's closed-form code paths: matrix
exponentials come from a truncated power series, derivatives from central
finite differences. The reference EKF update, keypoint measurement, PnP
refinement, SO(3)/projection kernels and servo-loop kernels are the
earlier straightforward implementations (a per-keypoint `solve` gate, a
full-SVD condition number, a stacked-rotation `einsum` noise model,
weights inverted and Jacobians filled for every keypoint on each
Gauss-Newton iteration, `np.where` projection, column-wise projection
derivatives and Jacobian blocks by `einsum` over a zero-filled hat
stack, numpy norms and reductions
with temporary Poses in the control and rollout code, an eigendecomposition
on every covariance clamp), kept verbatim so the optimised library path can
be checked bit for bit. `run_episode_reference` is the single-trial
episode loop that the lockstep engine replaced, with the single-trial
`propagate`, `measure`, `step_dynamics`, twist covariance and entropy it
called. `run_tree_reference`
and `comparison_reference` are the per-frame summaries and writers that
the stacked output path replaced.
"""
import json
import math

import numpy as np
from scipy.stats import chi2

from ekfservo.camera import Z_MIN, in_image, project_points
from ekfservo.cli import EPISODE_HEADER, SUMMARY_HEADER, _summary_row
from ekfservo.control import ControlConfig, apply_policy
from ekfservo.ekf import (
    INNOVATION_COND_LIMIT,
    FilterState,
    SingularInnovation,
    UpdateResult,
)
from ekfservo.keypoints import (
    REPORTED_SIGMA_FLOOR_PX,
    Measurement,
    fps_select,
)
from ekfservo.lie import (
    _EXP_SERIES_EPS,
    _JAC_SERIES_EPS,
    Pose,
    hat,
    pose_boxminus,
    pose_boxplus,
    symmetrize,
)
from ekfservo.metrics import Summary, length_ratio, success
from ekfservo.simulator import geodesic_reference_for

# the episode loop's gate warm-up, in frames
GATE_WARMUP_FRAMES = 10


def vee(m) -> np.ndarray:
    """Inverse of hat on antisymmetric matrices."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: unlike array_equal, 0.0 and -0.0
    differ and identical NaNs match."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def shuffled_stacks(rng, values, width=7):
    """`values` in shuffled stacks of `width` (the last may be shorter)."""
    order = rng.permutation(len(values))
    return [values[order[i:i + width]] for i in range(0, len(values), width)]


def expm_series(a, terms: int = 30) -> np.ndarray:
    """Truncated power-series matrix exponential."""
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def hat3(v) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def se3_exp_series(xi, dt: float = 1.0) -> np.ndarray:
    """4x4 homogeneous exponential of a twist via the series oracle."""
    h4 = np.zeros((4, 4))
    h4[:3, :3] = hat3(np.asarray(xi)[3:])
    h4[:3, 3] = np.asarray(xi)[:3]
    return expm_series(h4 * dt)


def fd_pose_jacobian(f, pose: Pose, out_dim: int, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of f(pose) -> R^out_dim with respect to
    the tangent perturbation [dt, dphi] (left convention)."""
    jac = np.zeros((out_dim, 6))
    for j in range(6):
        e = np.zeros(6)
        e[j] = step
        hi = f(pose_boxplus(pose, e))
        lo = f(pose_boxplus(pose, -e))
        jac[:, j] = (np.asarray(hi) - np.asarray(lo)) / (2.0 * step)
    return jac


def fd_state_transition(mean_map, pose: Pose, step: float = 1e-6) -> np.ndarray:
    """Central FD of a pose -> pose map, expressed in tangent coordinates."""
    jac = np.zeros((6, 6))
    for j in range(6):
        e = np.zeros(6)
        e[j] = step
        hi = mean_map(pose_boxplus(pose, e))
        lo = mean_map(pose_boxplus(pose, -e))
        jac[:, j] = pose_boxminus(hi, lo) / (2.0 * step)
    return jac


def rel_error(approx, exact) -> float:
    exact = np.asarray(exact, dtype=float)
    denom = max(float(np.linalg.norm(exact)), 1e-12)
    return float(np.linalg.norm(np.asarray(approx) - exact)) / denom


def random_rotvec(rng, max_angle: float) -> np.ndarray:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


def _predict_keypoints_reference(state, kps, intr):
    pts_c = state.mean.apply(kps.points3d)
    return project_points(pts_c, intr)


def _measurement_jacobian_reference(state, kps, intr, z_min):
    rotated = kps.points3d @ state.mean.C.T  # C @ X per keypoint
    pts_c = rotated + state.mean.t
    ok = pts_c[:, 2] > z_min
    n = len(kps)
    blocks = np.zeros((n, 2, 6))
    if np.any(ok):
        blocks[ok] = jacobian_blocks_reference(rotated[ok], pts_c[ok], intr)
    return blocks, ok


def projection_jacobians_reference(points_c, intr) -> np.ndarray:
    """Stacked (N, 2, 3) pinhole derivatives, one column at a time."""
    pts = np.asarray(points_c, dtype=float).reshape(-1, 3)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    jac = np.zeros((pts.shape[0], 2, 3))
    jac[:, 0, 0] = intr.fx / z
    jac[:, 0, 2] = -intr.fx * x / z**2
    jac[:, 1, 1] = intr.fy / z
    jac[:, 1, 2] = -intr.fy * y / z**2
    return jac


def jacobian_blocks_reference(rotated, pts_c, intr) -> np.ndarray:
    """[-J, J @ hat(C X)] per point, the product by einsum over a
    zero-filled hat stack."""
    jp = projection_jacobians_reference(pts_c, intr)
    hats = np.zeros((rotated.shape[0], 3, 3))
    hats[:, 0, 1] = -rotated[:, 2]
    hats[:, 0, 2] = rotated[:, 1]
    hats[:, 1, 0] = rotated[:, 2]
    hats[:, 1, 2] = -rotated[:, 0]
    hats[:, 2, 0] = -rotated[:, 1]
    hats[:, 2, 1] = rotated[:, 0]
    return np.concatenate([-jp, np.einsum("nij,njk->nik", jp, hats)], axis=2)


def gate_reference(residuals, h_blocks, p_prior, covs, level):
    """Per-keypoint Mahalanobis gate by `np.linalg.solve`, scipy's
    chi-square quantile; a singular block rejects its keypoint."""
    residuals = np.asarray(residuals, dtype=float).reshape(-1, 2)
    thresh = np.inf if level >= 1.0 else float(chi2.ppf(level, df=2))
    keep = np.zeros(residuals.shape[0], dtype=bool)
    for i in range(residuals.shape[0]):
        s = h_blocks[i] @ p_prior @ h_blocks[i].T + covs[i]
        try:
            m2 = float(residuals[i] @ np.linalg.solve(s, residuals[i]))
        except np.linalg.LinAlgError:
            continue
        keep[i] = m2 <= thresh
    return keep


def update_reference(state, meas, kps, intr, gate_level, z_min) -> UpdateResult:
    """The EKF keypoint update as first written: gate per keypoint, build
    the innovation from the gated rows, test it by its SVD condition
    number, then solve."""
    n = len(kps)
    uv_pred, ok = _predict_keypoints_reference(state, kps, intr)
    usable = meas.visible & ok
    n_visible = int(meas.visible.sum())
    if not np.any(usable):
        return UpdateResult(state.copy(), np.zeros(n, dtype=bool),
                            n_visible, float("nan"))

    blocks, _ = _measurement_jacobian_reference(state, kps, intr, z_min)
    idx = np.flatnonzero(usable)
    residuals = meas.uv[idx] - uv_pred[idx]
    keep = gate_reference(residuals, blocks[idx], state.P, meas.cov[idx],
                          gate_level)
    if not np.any(keep):
        return UpdateResult(state.copy(), np.zeros(n, dtype=bool),
                            n_visible, float("nan"))
    idx = idx[keep]
    residuals = residuals[keep]

    m = len(idx)
    h = blocks[idx].reshape(2 * m, 6)
    eps = residuals.reshape(2 * m)
    q = np.zeros((2 * m, 2 * m))
    for j, i in enumerate(idx):
        q[2 * j:2 * j + 2, 2 * j:2 * j + 2] = meas.cov[i]

    s = h @ state.P @ h.T + q
    if np.linalg.cond(s) > INNOVATION_COND_LIMIT:
        raise SingularInnovation(
            f"innovation condition number exceeds {INNOVATION_COND_LIMIT:.0e}")
    k = np.linalg.solve(s, h @ state.P).T  # P H^T S^-1, using P symmetric
    delta = -(k @ eps)
    ikh = np.eye(6) - k @ h
    p_new = clamp_psd_reference(ikh @ state.P)

    mean = pose_boxplus(state.mean, delta)
    used = np.zeros(n, dtype=bool)
    used[idx] = True
    rms = float(np.sqrt(np.mean(eps**2)))
    return UpdateResult(FilterState(mean, p_new), used, n_visible, rms)


def measure_reference(gt_pose, kps, intr, profile, rng, frame):
    """Synthetic keypoint detections with the noise and covariance built
    from a stacked (n, 2, 2) rotation and two einsums."""
    n = len(kps)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    gauss = rng.standard_normal((n, 2))
    u_drop = rng.uniform(size=n)
    u_out = rng.uniform(size=n)
    out_dir = rng.uniform(0.0, 2.0 * np.pi, size=n)

    pts_c = gt_pose.apply(kps.points3d)
    uv_true, in_front = project_points(pts_c, intr)
    geometric = in_front & in_image(uv_true, intr)

    visible = geometric & (u_drop >= profile.dropout_prob)
    if profile.blackout_frames is not None and frame is not None:
        start, stop = profile.blackout_frames
        if start <= frame < stop:
            visible = np.zeros(n, dtype=bool)

    cos_a, sin_a = np.cos(angles), np.sin(angles)
    rot = np.zeros((n, 2, 2))
    rot[:, 0, 0] = cos_a
    rot[:, 0, 1] = -sin_a
    rot[:, 1, 0] = sin_a
    rot[:, 1, 1] = cos_a
    stds = np.stack([np.full(n, profile.sigma_px),
                     np.full(n, profile.anisotropy * profile.sigma_px)], axis=1)
    noise = np.einsum("nij,nj->ni", rot, stds * gauss)
    cov_true = np.einsum("nij,nj,nkj->nik", rot, stds**2, rot)

    is_outlier = u_out < profile.outlier_prob
    outlier_vec = profile.outlier_px * np.stack([np.cos(out_dir),
                                                 np.sin(out_dir)], axis=1)
    noise = np.where(is_outlier[:, None], outlier_vec, noise)

    uv = uv_true + noise
    cov = cov_true * profile.reported_scale
    cov += REPORTED_SIGMA_FLOOR_PX**2 * np.eye(2)
    uv[~visible] = np.nan
    cov[~visible] = np.nan
    return Measurement(uv=uv, cov=cov, visible=visible)


def exp_so3_reference(phi) -> np.ndarray:
    """Rodrigues formula; second-order series below the small-angle switch."""
    phi = np.asarray(phi, dtype=float)
    k = hat(phi)
    theta = float(np.linalg.norm(phi))
    if theta < _EXP_SERIES_EPS:
        return np.eye(3) + k + 0.5 * (k @ k)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / theta**2
    return np.eye(3) + a * k + b * (k @ k)


def left_jacobian_reference(phi) -> np.ndarray:
    """Left Jacobian of SO(3); equals right_jacobian(-phi)."""
    phi = np.asarray(phi, dtype=float)
    k = hat(phi)
    theta = float(np.linalg.norm(phi))
    if theta < _JAC_SERIES_EPS:
        return np.eye(3) + 0.5 * k + (k @ k) / 6.0
    b = (1.0 - np.cos(theta)) / theta**2
    cc = (theta - np.sin(theta)) / theta**3
    return np.eye(3) + b * k + cc * (k @ k)


def right_jacobian_reference(phi) -> np.ndarray:
    """Right Jacobian of SO(3): exp(phi + d) ~ exp(phi) exp(J_r(phi) d)."""
    phi = np.asarray(phi, dtype=float)
    k = hat(phi)
    theta = float(np.linalg.norm(phi))
    if theta < _JAC_SERIES_EPS:
        return np.eye(3) - 0.5 * k + (k @ k) / 6.0
    b = (1.0 - np.cos(theta)) / theta**2
    cc = (theta - np.sin(theta)) / theta**3
    return np.eye(3) - b * k + cc * (k @ k)


def project_points_reference(points_c, intr, z_min=1e-3):
    """Vectorized projection of an (N, 3) stack.

    Returns (uv, in_front); rows with in_front == False hold NaN instead of
    raising, so callers can keep keypoint indexing aligned.
    """
    pts = np.asarray(points_c, dtype=float).reshape(-1, 3)
    z = pts[:, 2]
    in_front = z > z_min
    uv = np.full((pts.shape[0], 2), np.nan)
    zs = np.where(in_front, z, 1.0)
    uv[:, 0] = np.where(in_front, intr.fx * pts[:, 0] / zs + intr.cx, np.nan)
    uv[:, 1] = np.where(in_front, intr.fy * pts[:, 1] / zs + intr.cy, np.nan)
    return uv, in_front


def _pose_boxplus_reference(pose, delta):
    delta = np.asarray(delta, dtype=float).reshape(6)
    return Pose(exp_so3_reference(delta[3:]) @ pose.C, pose.t + delta[:3])


def refine_pose_reference(prev, meas, kps, intr, iters=10, damping=1e-9,
                          step_tol=1e-12, z_min=1e-3):
    """Weighted Gauss-Newton pose refinement as first written: weights
    inverted and Jacobian blocks filled for every keypoint on each
    iteration, the projection computed twice."""
    pose = prev
    for _ in range(iters):
        uv_pred, ok = project_points_reference(pose.apply(kps.points3d), intr,
                                               z_min)
        usable = meas.visible & ok
        if int(usable.sum()) < 4:
            return None
        blocks, _ = _measurement_jacobian_reference(FilterState(pose, None),
                                                    kps, intr, z_min)
        idx = np.flatnonzero(usable)

        res = meas.uv[idx] - uv_pred[idx]
        try:
            w = np.linalg.inv(meas.cov[idx])
        except np.linalg.LinAlgError:
            w = np.broadcast_to(np.eye(2), (len(idx), 2, 2))
        h = blocks[idx]
        a = np.einsum("mji,mjk,mkl->il", h, w, h)
        b = np.einsum("mji,mjk,mk->i", h, w, res)
        try:
            delta = -np.linalg.solve(a + damping * np.eye(6), b)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        pose = _pose_boxplus_reference(pose, delta)
        if float(np.linalg.norm(delta)) < step_tol:
            break
    return pose


# The servo loop's kernels as first written: numpy reductions and norms per
# call, a temporary Pose per group operation, the relative pose computed
# again inside the control Jacobian, and a separate SE(3) rollout in the
# geodesic reference.

def log_so3_reference(c) -> np.ndarray:
    """Rotation vector of a rotation matrix, with norm <= pi."""
    c = np.asarray(c, dtype=float)
    w = vee(c - c.T)  # 2 sin(theta) * axis
    sin_t = 0.5 * float(np.linalg.norm(w))
    cos_t = np.clip(0.5 * (np.trace(c) - 1.0), -1.0, 1.0)
    theta = float(np.arctan2(sin_t, cos_t))  # well conditioned at 0 and pi
    if theta < 1e-7:
        return 0.5 * w
    if theta < np.pi - 1e-4:
        return (0.5 * theta / sin_t) * w
    # theta close to pi: (C + C^T)/2 = cos(theta) I + (1 - cos(theta)) a a^T
    aat = (0.5 * (c + c.T) - cos_t * np.eye(3)) / (1.0 - cos_t)
    k = int(np.argmax(np.diag(aat)))
    axis = aat[:, k] / np.sqrt(max(aat[k, k], 1e-16))
    axis = axis / np.linalg.norm(axis)
    w = vee(c - c.T)  # equals 2 sin(theta) * axis
    if np.linalg.norm(w) > 1e-12:
        if float(np.dot(w, axis)) < 0.0:
            axis = -axis
    else:
        for comp in axis:
            if abs(comp) > 1e-12:
                if comp < 0.0:
                    axis = -axis
                break
    return theta * axis


def right_jacobian_inv_reference(phi) -> np.ndarray:
    """Inverse right Jacobian; requires ||phi|| < pi."""
    phi = np.asarray(phi, dtype=float)
    k = hat(phi)
    theta = float(np.linalg.norm(phi))
    if theta < _JAC_SERIES_EPS:
        return np.eye(3) + 0.5 * k + (k @ k) / 12.0
    d = 1.0 / theta**2 - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
    return np.eye(3) + 0.5 * k + d * (k @ k)


def orthonormalize_reference(c) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (via SVD)."""
    u, _, vt = np.linalg.svd(np.asarray(c, dtype=float))
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def relative_pose_reference(desired: Pose, current: Pose) -> Pose:
    """Transform from the current to the desired camera frame:
    desired-object pose composed with the inverse current-object pose."""
    rel = desired.compose(current.inverse())
    drift = np.linalg.norm(rel.C @ rel.C.T - np.eye(3))
    if drift > 1e-9:
        rel = Pose(orthonormalize_reference(rel.C), rel.t)
    return rel


def pbvs_law_reference(rel: Pose, lam: float) -> np.ndarray:
    """The raw (unclamped) servo law [v_p, w]; requires the rotation angle
    < pi."""
    v_p = -lam * (rel.C.T @ rel.t)
    w = -lam * log_so3_reference(rel.C)
    return np.concatenate([v_p, w])


def clamp_twist_reference(twist: np.ndarray,
                          cfg: ControlConfig) -> np.ndarray:
    """Uniformly scale the twist [v_p, w] so every component respects the
    limits; direction is preserved."""
    s = 1.0
    mv = float(np.max(np.abs(twist[:3])))
    mw = float(np.max(np.abs(twist[3:])))
    if mv > cfg.v_max:
        s = min(s, cfg.v_max / mv)
    if mw > cfg.w_max:
        s = min(s, cfg.w_max / mw)
    return twist if s >= 1.0 else twist * s


def velocity_jacobian_reference(desired: Pose, state: FilterState,
                                cfg: ControlConfig) -> np.ndarray:
    """Derivative of the raw servo law with respect to the filter error
    state [dt, dphi], with the relative pose computed from scratch."""
    rel = relative_pose_reference(desired, state.mean)
    e_t = rel.C.T @ rel.t
    theta_u = log_so3_reference(rel.C)
    jac = np.zeros((6, 6))
    jac[:3, :3] = cfg.lam * np.eye(3)
    jac[:3, 3:] = cfg.lam * (hat(state.mean.t) + hat(e_t))
    jac[3:, 3:] = cfg.lam * right_jacobian_inv_reference(theta_u)
    return jac


def velocity_covariance_reference(jac, p) -> np.ndarray:
    """Forward propagation of the pose covariance through the control law,
    one pair at a time."""
    return symmetrize(np.asarray(jac) @ np.asarray(p) @ np.asarray(jac).T)


def entropy_reference(cov) -> float:
    """Differential entropy of one 6D Gaussian in nats:
    0.5 * ln((2 pi e)^6 |cov|); regularized with +1e-12 I when the
    determinant is not positive."""
    cov = symmetrize(cov)
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or not np.isfinite(logdet):
        sign, logdet = np.linalg.slogdet(cov + 1e-12 * np.eye(6))
    return 0.5 * (6.0 * math.log(2.0 * math.pi * math.e) + logdet)


def step_dynamics_reference(gt_co: Pose, cmd: np.ndarray, sigma_v: float,
                            sigma_w: float, dt: float,
                            rng: np.random.Generator) -> Pose:
    """Execute a commanded twist corrupted by Gaussian actuation noise."""
    noise = np.concatenate([sigma_v * rng.standard_normal(3),
                            sigma_w * rng.standard_normal(3)])
    executed = cmd + noise
    t_wc = gt_co.inverse()
    d_c, d_t = exp_se3_reference(executed, dt)
    t_wc_new = t_wc.compose(Pose(d_c, d_t))
    gt_new = t_wc_new.inverse()
    return Pose(orthonormalize_reference(gt_new.C), gt_new.t)


def geodesic_reference_reference(initial: Pose, desired: Pose,
                                 cfg: ControlConfig, dt: float, v_eps: float,
                                 k_hold: int, max_frames: int) -> np.ndarray:
    """Camera positions of the noise-free, perfect-information servo
    rollout, with its own copy of the SE(3) step."""
    gt = initial
    positions = []
    hold = 0
    for _ in range(max_frames):
        positions.append(-(gt.C.T @ gt.t))
        cmd = clamp_twist_reference(
            pbvs_law_reference(relative_pose_reference(desired, gt), cfg.lam),
            cfg)
        hold = hold + 1 if float(np.linalg.norm(cmd)) < v_eps else 0
        if hold >= k_hold:
            break
        t_wc = gt.inverse()
        d_c, d_t = exp_se3_reference(cmd, dt)
        t_wc = t_wc.compose(Pose(d_c, d_t))
        gt = t_wc.inverse()
        gt = Pose(orthonormalize_reference(gt.C), gt.t)
    positions.append(-(gt.C.T @ gt.t))
    return np.array(positions)


def exp_se3_reference(xi, dt: float = 1.0):
    """SE(3) exponential of the scaled twist xi * dt."""
    xi = np.asarray(xi, dtype=float)
    rho = xi[:3] * dt
    phi = xi[3:] * dt
    return exp_so3_reference(phi), left_jacobian_reference(phi) @ rho


def clamp_psd_reference(m, tol: float = 1e-12) -> np.ndarray:
    """Symmetrize, then clamp negative eigenvalues to zero after a full
    eigendecomposition on every call."""
    s = symmetrize(m)
    w, v = np.linalg.eigh(s)
    if w[0] >= 0.0:
        return s
    w = np.clip(w, 0.0, None)
    return symmetrize((v * w) @ v.T)


def rotation_to_quaternion_reference(c) -> np.ndarray:
    """Unit quaternion (w, x, y, z); used for logging only."""
    c = np.asarray(c, dtype=float)
    tr = np.trace(c)
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (c[2, 1] - c[1, 2]) / s,
                      (c[0, 2] - c[2, 0]) / s,
                      (c[1, 0] - c[0, 1]) / s])
    elif c[0, 0] >= c[1, 1] and c[0, 0] >= c[2, 2]:
        s = np.sqrt(1.0 + c[0, 0] - c[1, 1] - c[2, 2]) * 2.0
        q = np.array([(c[2, 1] - c[1, 2]) / s,
                      0.25 * s,
                      (c[0, 1] + c[1, 0]) / s,
                      (c[0, 2] + c[2, 0]) / s])
    elif c[1, 1] >= c[2, 2]:
        s = np.sqrt(1.0 + c[1, 1] - c[0, 0] - c[2, 2]) * 2.0
        q = np.array([(c[0, 2] - c[2, 0]) / s,
                      (c[0, 1] + c[1, 0]) / s,
                      0.25 * s,
                      (c[1, 2] + c[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + c[2, 2] - c[0, 0] - c[1, 1]) * 2.0
        q = np.array([(c[1, 0] - c[0, 1]) / s,
                      (c[0, 2] + c[2, 0]) / s,
                      (c[1, 2] + c[2, 1]) / s,
                      0.25 * s])
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def nees_reference(records) -> tuple[float, int]:
    """Mean NEES and its sample count, with two Poses built and P tested
    for finiteness on every frame."""
    values = []
    for rec in records:
        for k in range(rec.frames):
            p = rec.P[k]
            if not np.all(np.isfinite(p)):
                continue
            gt = Pose(rec.gt_C[k], rec.gt_t[k])
            est = Pose(rec.est_C[k], rec.est_t[k])
            delta = np.concatenate([gt.t - est.t,
                                    log_so3_reference(gt.C @ est.C.T)])
            try:
                values.append(float(delta @ np.linalg.solve(p, delta)))
            except np.linalg.LinAlgError:
                continue
    if not values:
        return float("nan"), 0
    return float(np.mean(values)), len(values)


def uncertainty_correlation_reference(records, lam) -> float:
    """Pearson correlation between per-frame twist entropy and the
    commanded-twist error against the ground-truth servo law of gain lam."""
    ents, errs = [], []
    for rec in records:
        for k in range(rec.frames):
            ent = rec.entropy[k]
            if not np.isfinite(ent):
                continue
            gt = Pose(rec.gt_C[k], rec.gt_t[k])
            v_gt = pbvs_law_reference(relative_pose_reference(rec.desired, gt),
                                      lam)
            err = float(np.linalg.norm(rec.cmd[k] - v_gt))
            ents.append(float(ent))
            errs.append(err)
    if len(ents) < 2:
        return float("nan")
    ents_arr = np.array(ents)
    errs_arr = np.array(errs)
    if np.std(ents_arr) < 1e-15 or np.std(errs_arr) < 1e-15:
        return float("nan")
    return float(np.corrcoef(ents_arr, errs_arr)[0, 1])


def propagate_reference(state, twist, dt, noise):
    """Constant-velocity prediction of one belief, left variant."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    vec = np.asarray(twist, dtype=float).reshape(6)
    v, w = vec[:3], vec[3:]
    r = exp_so3_reference(-w * dt)
    t_new = r @ state.mean.t - v * dt
    c_new = r @ state.mean.C

    f = np.zeros((6, 6))
    f[:3, :3] = r
    f[3:, 3:] = r
    p_new = f @ state.P @ f.T + noise.rate_covariance * dt
    return FilterState(Pose(c_new, t_new), symmetrize(p_new))


def measure_scalar_reference(gt_pose, kps, intr, profile, rng, frame=None):
    """One pose's keypoint detections, noise and covariance built from the
    two rotation columns."""
    n = len(kps)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    gauss = rng.standard_normal((n, 2))
    u_drop = rng.uniform(size=n)
    u_out = rng.uniform(size=n)
    out_dir = rng.uniform(0.0, 2.0 * np.pi, size=n)

    pts_c = gt_pose.apply(kps.points3d)
    uv_true, in_front = project_points(pts_c, intr)
    geometric = in_front & in_image(uv_true, intr)

    visible = geometric & (u_drop >= profile.dropout_prob)
    if profile.blackout_frames is not None and frame is not None:
        start, stop = profile.blackout_frames
        if start <= frame < stop:
            visible = np.zeros(n, dtype=bool)

    cos_a, sin_a = np.cos(angles), np.sin(angles)
    s0 = profile.sigma_px
    s1 = profile.anisotropy * profile.sigma_px
    r0 = np.empty((n, 2))
    r0[:, 0], r0[:, 1] = cos_a, sin_a
    r1 = np.empty((n, 2))
    r1[:, 0], r1[:, 1] = -sin_a, cos_a
    noise = (s0 * gauss[:, :1]) * r0 + (s1 * gauss[:, 1:]) * r1
    cov_true = ((r0 * (s0 * s0))[:, :, None] * r0[:, None, :]
                + (r1 * (s1 * s1))[:, :, None] * r1[:, None, :])

    is_outlier = u_out < profile.outlier_prob
    outlier_vec = profile.outlier_px * np.stack([np.cos(out_dir),
                                                 np.sin(out_dir)], axis=1)
    noise = np.where(is_outlier[:, None], outlier_vec, noise)

    uv = uv_true + noise
    cov = cov_true * profile.reported_scale
    cov += REPORTED_SIGMA_FLOOR_PX**2 * np.eye(2)
    uv[~visible] = np.nan
    cov[~visible] = np.nan
    return Measurement(uv=uv, cov=cov, visible=visible)


def step_dynamics_scalar_reference(gt_co, cmd, sigma_v, sigma_w, dt, rng):
    """One pose's actuation step through the array-level SE(3) advance."""
    noise = np.concatenate([sigma_v * rng.standard_normal(3),
                            sigma_w * rng.standard_normal(3)])
    return Pose(*_advance_reference(gt_co.C, gt_co.t, cmd + noise, dt))


def _advance_reference(c_co, t_co, xi, dt):
    c_wc = c_co.T
    d_c, d_t = exp_se3_reference(xi, dt)
    c_new = c_wc @ d_c
    t_new = c_wc @ d_t + -(c_wc @ t_co)
    c_oc = c_new.T
    return orthonormalize_reference(c_oc), -(c_oc @ t_new)


def run_episode_reference(scenario, seed):
    """One closed-loop trial, run alone frame by frame."""
    from ekfservo.ekf import initialize
    from ekfservo.keypoints import predict_keypoints
    from ekfservo.simulator import EpisodeRecord, sample_poses

    rng = np.random.default_rng(seed)
    kps = fps_select(scenario.model, scenario.n_keypoints)
    initial, desired = sample_poses(scenario, kps, rng)

    record = EpisodeRecord(seed=seed, desired=desired, initial_gt=initial)

    init_delta = np.concatenate([
        scenario.init_sigma_t * rng.standard_normal(3),
        scenario.init_sigma_phi * rng.standard_normal(3)])
    prior = _pose_boxplus_reference(initial, init_delta)

    use_ekf = scenario.variant in ("coupled-ekf", "none")
    servo = scenario.variant != "none"
    state = initialize(prior, scenario.init_sigma_t, scenario.init_sigma_phi)
    pnp_pose = prior

    gt = initial
    prev_cmd = np.zeros(6)
    hold = 0
    rows = _FrameRowsReference(scenario.max_frames)

    for k in range(scenario.max_frames):
        if use_ekf and k > 0:
            state = propagate_reference(state, prev_cmd, scenario.dt,
                                        scenario.filter_noise)
        meas = measure_scalar_reference(gt, kps, scenario.intrinsics,
                                        scenario.sensing, rng, frame=k)

        if use_ekf:
            level = (1.0 if k < GATE_WARMUP_FRAMES
                     else scenario.gate_level)
            try:
                res = update_reference(state, meas, kps, scenario.intrinsics,
                                       level, Z_MIN)
            except SingularInnovation as exc:
                record.failure = f"frame {k}: {exc}"
                break
            state = res.state
            est, p_est = state.mean, state.P
            n_vis, n_used = res.n_visible, int(res.used.sum())
            rms = res.residual_rms
        else:
            refined = refine_pose_reference(pnp_pose, meas, kps,
                                            scenario.intrinsics,
                                            z_min=Z_MIN)
            n_vis = int(meas.visible.sum())
            if refined is not None:
                pnp_pose = refined
                n_used = n_vis
                uv, ok, _ = predict_keypoints(pnp_pose, kps,
                                              scenario.intrinsics)
                usable = meas.visible & ok
                rms = (float(np.sqrt(np.mean(
                    (meas.uv[usable] - uv[usable]).ravel()**2)))
                    if np.any(usable) else float("nan"))
            else:
                n_used = 0
                rms = float("nan")
            est, p_est = pnp_pose, np.full((6, 6), np.nan)

        if servo:
            rel = relative_pose_reference(desired, est)
            raw_tw = pbvs_law_reference(rel, scenario.control.lam)
            cmd_tw = clamped = clamp_twist_reference(raw_tw, scenario.control)
            if use_ekf:
                jac = velocity_jacobian_reference(desired, state,
                                                  scenario.control)
                vcov = velocity_covariance_reference(jac, state.P)
                ent = entropy_reference(vcov)
                cmd_tw = apply_policy(clamped, ent, scenario.control)
            else:
                vcov = np.full((6, 6), np.nan)
                ent = float("nan")
        else:
            raw_tw = cmd_tw = np.zeros(6)
            vcov = np.full((6, 6), np.nan)
            ent = float("nan")

        if not (np.all(np.isfinite(est.t)) and np.all(np.isfinite(cmd_tw))):
            record.failure = f"frame {k}: non-finite estimate or command"
            break

        rows.append(gt, est, p_est, cmd_tw, raw_tw, vcov, ent,
                    rms, n_vis, n_used)

        if servo:
            # the clamped command, before the entropy policy: a reduced
            # command does not hold a trial that is still moving
            hold = hold + 1 if np.linalg.norm(clamped) < scenario.v_eps else 0
            if hold >= scenario.k_hold:
                record.converged = True
                break
        prev_cmd = cmd_tw
        gt = step_dynamics_scalar_reference(
            gt, cmd_tw, scenario.actuation_sigma_v,
            scenario.actuation_sigma_w, scenario.dt, rng)

    record.final_gt = gt
    rows.store(record)
    return record


class _FrameRowsReference:
    """Per-frame quantities of one trial, preallocated to max_frames."""

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

    def store(self, record):
        for name in ("gt_C", "gt_t", "est_C", "est_t", "P", "cmd", "raw",
                     "twist_cov", "entropy", "resid_rms", "n_visible",
                     "n_used"):
            setattr(record, name, getattr(self, name)[:self.k].copy())


def same_record(a, b) -> bool:
    """Every field of two EpisodeRecords, arrays and poses by their bytes."""
    from dataclasses import fields

    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, Pose):
            if not (same_bits(x.C, y.C) and same_bits(x.t, y.t)):
                return False
        elif isinstance(x, np.ndarray):
            if not same_bits(x, y):
                return False
        elif x != y or type(x) is not type(y):
            return False
    return True


# The output path as written before the stacked kernels: summaries, episode
# logs and series files computed one frame at a time with the scalar
# kernels. nees_reference, uncertainty_correlation_reference and
# rotation_to_quaternion_reference above are its per-frame NEES,
# correlation and quaternion bodies.

def te_re_reference(final_gt: Pose, desired: Pose) -> tuple[float, float]:
    """Translation (mm) and rotation (deg) error of one pose."""
    rel = relative_pose_reference(desired, final_gt)
    theta_u = log_so3_reference(rel.C)
    te = math.sqrt(rel.t.dot(rel.t)) * 1000.0
    re = math.sqrt(theta_u.dot(theta_u)) * 180.0 / math.pi
    return te, re


def camera_positions_reference(rec) -> np.ndarray:
    pos = [-(rec.gt_C[k].T @ rec.gt_t[k]) for k in range(rec.frames)]
    pos.append(-(rec.final_gt.C.T @ rec.final_gt.t))
    return np.array(pos)


def summarize_reference(records, scenario) -> Summary:
    """The batch summary, every statistic from the per-frame kernels."""
    def stats(values):
        if not values:
            return None, None
        arr = np.array(values, dtype=float)
        return float(arr.mean()), float(arr.std())

    def finite_or_none(x):
        return None if not np.isfinite(x) else float(x)

    succ = [r for r in records if success(r, scenario.model)]
    te_vals, re_vals, lr_vals = [], [], []
    for r in succ:
        te, re = te_re_reference(r.final_gt, r.desired)
        te_vals.append(te)
        re_vals.append(re)
        lr = length_ratio(camera_positions_reference(r),
                          geodesic_reference_for(r, scenario))
        if np.isfinite(lr):
            lr_vals.append(lr)
    trials = len(records)
    (te_mean, te_std), (re_mean, re_std), (lr_mean, lr_std) = (
        stats(te_vals), stats(re_vals), stats(lr_vals))
    return Summary(
        variant=scenario.variant, trials=trials, successes=len(succ),
        failures=sum(1 for r in records if r.failure),
        sr_percent=(100.0 * len(succ) / trials) if trials else 0.0,
        te_mm_mean=te_mean, te_mm_std=te_std,
        re_deg_mean=re_mean, re_deg_std=re_std,
        lr_mean=lr_mean, lr_std=lr_std,
        correlation_r=finite_or_none(
            uncertainty_correlation_reference(records, scenario.control.lam)
            if records else float("nan")),
        nees_mean=finite_or_none(
            nees_reference(records)[0] if records else float("nan")))


def _fmt_reference(x) -> str:
    return repr(float(x))


def episode_csv_reference(rec) -> str:
    lines = [EPISODE_HEADER]
    rows = zip(rec.gt_t.tolist(), rec.est_t.tolist(), rec.cmd.tolist(),
               rec.entropy.tolist(), rec.resid_rms.tolist())
    for k, (gt_t, est_t, cmd, ent, rms) in enumerate(rows):
        gt_q = rotation_to_quaternion_reference(rec.gt_C[k]).tolist()
        est_q = rotation_to_quaternion_reference(rec.est_C[k]).tolist()
        values = gt_q + gt_t + est_q + est_t + cmd + [ent, rms]
        lines.append(",".join([str(k)] + [_fmt_reference(x) for x in values]))
    return "\n".join(lines) + "\n"


def series_reference(rec, scenario) -> dict:
    """The three series files of one episode of `scenario`, by file name."""
    files = {}
    lines = ["frame,te_mm,re_deg"]
    for k in range(rec.frames):
        te, re = te_re_reference(Pose(rec.gt_C[k], rec.gt_t[k]), rec.desired)
        lines.append(f"{k},{_fmt_reference(te)},{_fmt_reference(re)}")
    files["series_pose_error.csv"] = "\n".join(lines) + "\n"

    lines = ["frame,cmd_vx,cmd_vy,cmd_vz,cmd_wx,cmd_wy,cmd_wz,entropy"]
    for k, (cmd, ent) in enumerate(zip(rec.cmd.tolist(),
                                       rec.entropy.tolist())):
        vals = [_fmt_reference(x) for x in cmd] + [_fmt_reference(ent)]
        lines.append(f"{k}," + ",".join(vals))
    files["series_velocity.csv"] = "\n".join(lines) + "\n"

    lines = ["path,frame,x,y,z"]
    for path, points in (("actual", camera_positions_reference(rec)),
                         ("geodesic", geodesic_reference_for(rec, scenario))):
        for k, p in enumerate(points.tolist()):
            lines.append(f"{path},{k},{_fmt_reference(p[0])},"
                         f"{_fmt_reference(p[1])},{_fmt_reference(p[2])}")
    files["series_trajectory.csv"] = "\n".join(lines) + "\n"
    return files


def _json_reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def run_tree_reference(records, scenario, config: str, trials: int,
                       policy: bool = True):
    """The files `ekfservo run` writes for these records, by path relative
    to its output directory, and the summary; policy is False for a run
    with --no-uncertainty-policy."""
    summary = summarize_reference(records, scenario)
    files = {f"episodes/episode_{i:04d}.csv": episode_csv_reference(rec)
             for i, rec in enumerate(records)}
    files["summary.json"] = _json_reference({
        "summary": summary.to_dict(),
        "invocation": {"config": config, "trials": trials,
                       "base_seed": scenario.seed,
                       "variant": scenario.variant,
                       "uncertainty_policy": policy}})
    files["summary.csv"] = (SUMMARY_HEADER + "\n" + _summary_row(summary)
                            + "\n")
    if records:
        files.update(series_reference(records[0], scenario))
    return files, summary


def comparison_reference(summaries: dict) -> dict:
    """comparison.json and comparison.csv of `ekfservo compare`."""
    return {"comparison.json": _json_reference(
                {v: s.to_dict() for v, s in summaries.items()}),
            "comparison.csv": "\n".join(
                [SUMMARY_HEADER] + [_summary_row(s)
                                    for s in summaries.values()]) + "\n"}
