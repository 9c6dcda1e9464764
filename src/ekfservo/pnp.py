"""Per-frame pose estimation by covariance-weighted reprojection
least-squares, the memoryless baseline to compare the filter against.

Gauss-Newton on the stacked keypoint residuals, each weighted by the
inverse of its reported covariance, warm-started from the previous frame's
estimate. No temporal fusion and no outlier gating: that is the point of
the comparison.
"""
from __future__ import annotations

import math

import numpy as np

from .camera import DEFAULT_Z_MIN, Intrinsics
from .ekf import _jacobian_blocks, predict_keypoints
from .keypoints import KeypointSet, Measurement
from .lie import Pose, pose_boxplus

MIN_POINTS = 4
# Gauss-Newton: at most ITERS iterations, each solving the normal
# equations with DAMPING * I added, stopping once a step's norm falls
# below STEP_TOL
ITERS = 10
DAMPING = 1e-9
STEP_TOL = 1e-12


def refine_pose(prev: Pose, meas: Measurement, kps: KeypointSet,
                intr: Intrinsics, z_min: float = DEFAULT_Z_MIN) -> Pose | None:
    """Weighted Gauss-Newton pose refinement from the previous estimate.

    The weights, the inverses of the reported covariances of the visible
    keypoints, are computed once per call; if one of them is singular,
    the whole call uses identity weights (`measure` adds a floor to every
    reported covariance, so it never hands one over). Each iteration
    makes exactly one `predict_keypoints` call, so counting those calls
    counts iterations, and builds Jacobian blocks for the usable keypoints
    only.

    Returns None when fewer than MIN_POINTS usable keypoints are visible;
    the caller then holds its previous pose.
    """
    visible = meas.visible
    try:
        w_visible = np.linalg.inv(meas.cov[visible])
    except np.linalg.LinAlgError:
        w_visible = np.broadcast_to(np.eye(2), (int(visible.sum()), 2, 2))
    reg = DAMPING * np.eye(6)
    pose = prev
    for _ in range(ITERS):
        uv_pred, ok = predict_keypoints(pose, kps, intr, z_min)
        usable = visible & ok
        idx = np.flatnonzero(usable)
        if idx.size < MIN_POINTS:
            return None
        # C @ X of the usable keypoints, taken from the product over all
        # of them so that the rows match predict_keypoints' bit for bit
        rotated = (kps.points3d @ pose.C.T)[idx]
        h = _jacobian_blocks(rotated, rotated + pose.t, intr)

        res = meas.uv[idx] - uv_pred[idx]
        w = w_visible[usable[visible]]
        a = np.einsum("mji,mjk,mkl->il", h, w, h)
        b = np.einsum("mji,mjk,mk->i", h, w, res)
        # residual model after a step d is eps + H d, so the minimizer is
        # d = -(H^T W H)^-1 H^T W eps
        try:
            delta = -np.linalg.solve(a + reg, b)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(delta).all():
            return None
        pose = pose_boxplus(pose, delta)
        if math.sqrt(delta.dot(delta)) < STEP_TOL:
            break
    return pose
