"""Pinhole projection and its Jacobian.

No lens distortion. Points projecting outside the image bounds are still
returned; visibility policy belongs to the sensing layer. u and v are
one (N, 2) expression, f * (x, y) / z + c, with the per-column bits.
A point projects only when its depth is above the near plane Z_MIN.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Z_MIN = 1e-3  # near plane, meters


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        # each message starts with the field's name in the config file
        for name in ("fx", "fy"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.cx < self.width:
            raise ValueError("cx must lie inside the image width")
        if not 0 < self.cy < self.height:
            raise ValueError("cy must lie inside the image height")
        # read-only (fx, fy), (-fx, -fy) and (cx, cy) for the (N, 2) forms
        for name, pair in (("focal", (self.fx, self.fy)),
                           ("neg_focal", (-self.fx, -self.fy)),
                           ("center", (self.cx, self.cy))):
            arr = np.array(pair, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def project_points(points_c, intr: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of an (N, 3) stack.

    Returns (uv, in_front); rows with in_front == False hold NaN instead of
    raising, so callers can keep keypoint indexing aligned.
    """
    pts = np.asarray(points_c, dtype=float).reshape(-1, 3)
    z = pts[:, 2:]
    in_front = pts[:, 2] > Z_MIN
    if np.count_nonzero(in_front) == in_front.size:
        return intr.focal * pts[:, :2] / z + intr.center, in_front
    front = in_front[:, None]
    return np.where(front, intr.focal * pts[:, :2] / np.where(front, z, 1.0)
                    + intr.center, np.nan), in_front


def in_image(uv, intr: Intrinsics) -> np.ndarray:
    """Boundary-inclusive containment test for pixel coordinates (N, 2);
    a NaN or infinite coordinate fails one of the bounds."""
    uv = np.asarray(uv, dtype=float).reshape(-1, 2)
    ok = (uv[:, 0] >= 0.0) & (uv[:, 0] <= intr.width)
    ok &= (uv[:, 1] >= 0.0) & (uv[:, 1] <= intr.height)
    return ok


def projection_jacobians(points_c, intr: Intrinsics) -> np.ndarray:
    """Stacked (N, 2, 3) pinhole derivatives; callers guarantee z > Z_MIN.
    Row i of a block is g_i e_i + q_i e_z, (g, q) = `jacobian_factors`."""
    pts = np.asarray(points_c, dtype=float).reshape(-1, 3)
    g, q = jacobian_factors(pts, intr)
    jac = np.zeros((pts.shape[0], 2, 3))
    jac[:, (0, 1), (0, 1)] = g
    jac[:, :, 2] = q
    return jac


def jacobian_factors(pts: np.ndarray, intr: Intrinsics):
    """(f / z, -f * (x, y) / z**2), each (N, 2), of an (N, 3) float stack:
    the diagonal and the z column of the pinhole derivative."""
    z = pts[:, 2:]
    return intr.focal / z, intr.neg_focal * pts[:, :2] / z**2
