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

from .camera import Intrinsics, jacobian_blocks
from .keypoints import KeypointSet, Measurement, predict_keypoints
from .lie import Pose, pose_boxplus

MIN_POINTS = 4
# Gauss-Newton: at most ITERS iterations, each solving the normal
# equations with DAMPING * I added, stopping once a step's norm falls
# below STEP_TOL
ITERS = 10
DAMPING = 1e-9
STEP_TOL = 1e-12
_REG = DAMPING * np.eye(6)
_REG.setflags(write=False)


def refine_pose(prev: Pose, meas: Measurement, kps: KeypointSet,
                intr: Intrinsics) -> Pose | None:
    """Weighted Gauss-Newton pose refinement from the previous estimate.

    The weights, the inverses of the reported covariances of the visible
    keypoints, are computed lazily: once per call, by the first iteration
    with MIN_POINTS usable keypoints, and an iteration whose usable set
    is the visible set takes them whole. If one of them is singular, the
    whole call uses identity weights (`measure` adds a floor to every
    reported covariance, so it never hands one over). Each iteration
    makes exactly one `predict_keypoints` call, so counting those calls
    counts iterations, and builds `camera.jacobian_blocks` for the usable
    keypoints only, from the C @ X that call returns.

    Returns None when fewer than MIN_POINTS usable keypoints are visible;
    the caller then holds its previous pose.
    """
    visible = meas.visible
    visible_idx = np.flatnonzero(visible)
    w_visible = None
    pose = prev
    for _ in range(ITERS):
        uv_pred, ok, rotated = predict_keypoints(pose, kps, intr)
        # with every keypoint in front, the usable ones are the visible ones
        idx = (visible_idx if np.count_nonzero(ok) == ok.size
               else np.flatnonzero(visible & ok))
        if idx.size < MIN_POINTS:
            return None
        if w_visible is None:
            try:
                w_visible = np.linalg.inv(meas.cov[visible_idx])
            except np.linalg.LinAlgError:
                w_visible = np.broadcast_to(np.eye(2),
                                            (visible_idx.size, 2, 2))
        w = (w_visible if idx.size == visible_idx.size
             else w_visible[ok[visible_idx]])
        rotated = rotated[idx]
        h = jacobian_blocks(rotated, rotated + pose.t, intr)

        res = meas.uv[idx] - uv_pred[idx]
        a = np.einsum("mji,mjk,mkl->il", h, w, h)
        b = np.einsum("mji,mjk,mk->i", h, w, res)
        # residual model after a step d is eps + H d, so the minimizer is
        # d = -(H^T W H)^-1 H^T W eps
        try:
            delta = -np.linalg.solve(a + _REG, b)
        except np.linalg.LinAlgError:
            return None
        # |d|^2 is finite exactly when d is, unless it overflows
        step2 = delta.dot(delta)
        if not math.isfinite(step2) and not np.isfinite(delta).all():
            return None
        pose = pose_boxplus(pose, delta)
        if math.sqrt(step2) < STEP_TOL:
            break
    return pose
