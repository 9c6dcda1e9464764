"""Per-frame pose estimation by covariance-weighted reprojection
least-squares, the memoryless baseline to compare the filter against.

Gauss-Newton on the stacked keypoint residuals, each weighted by the
inverse of its reported covariance, warm-started from the previous frame's
estimate. No temporal fusion and no outlier gating: that is the point of
the comparison.
"""
from __future__ import annotations

import numpy as np

from .camera import DEFAULT_Z_MIN, Intrinsics
from .ekf import measurement_jacobian, predict_keypoints
from .keypoints import KeypointSet, Measurement
from .lie import Pose, pose_boxplus

MIN_POINTS = 4


def refine_pose(prev: Pose, meas: Measurement, kps: KeypointSet,
                intr: Intrinsics, iters: int = 10, damping: float = 1e-9,
                step_tol: float = 1e-12,
                z_min: float = DEFAULT_Z_MIN) -> Pose | None:
    """Weighted Gauss-Newton pose refinement from the previous estimate.

    Returns None when fewer than MIN_POINTS usable keypoints are visible;
    the caller then holds its previous pose.
    """
    pose = prev
    for _ in range(iters):
        uv_pred, ok = predict_keypoints(pose, kps, intr, z_min)
        usable = meas.visible & ok
        if int(usable.sum()) < MIN_POINTS:
            return None
        blocks, _ = measurement_jacobian(pose, kps, intr, z_min)
        idx = np.flatnonzero(usable)

        res = meas.uv[idx] - uv_pred[idx]
        try:
            w = np.linalg.inv(meas.cov[idx])
        except np.linalg.LinAlgError:
            w = np.broadcast_to(np.eye(2), (len(idx), 2, 2))
        h = blocks[idx]
        a = np.einsum("mji,mjk,mkl->il", h, w, h)
        b = np.einsum("mji,mjk,mk->i", h, w, res)
        # residual model after a step d is eps + H d, so the minimizer is
        # d = -(H^T W H)^-1 H^T W eps
        try:
            delta = -np.linalg.solve(a + damping * np.eye(6), b)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        pose = pose_boxplus(pose, delta)
        if float(np.linalg.norm(delta)) < step_tol:
            break
    return pose
