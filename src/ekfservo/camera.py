"""Pinhole projection and the residual Jacobian blocks of keypoints.

No lens distortion. Points projecting outside the image bounds are still
returned; visibility policy belongs to the sensing layer. u and v are
one (N, 2) expression, f * (x, y) / z + c, with the per-column bits.
A point projects only when its depth is above the near plane Z_MIN.
`jacobian_blocks` and `masked_blocks` are the only pinhole Jacobian: the
filter's update and the PnP baseline both build their blocks with them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Z_MIN = 1e-3  # near plane, meters
# [-J, J hat(C X)] is (g_i, g_i, q_i, row i of J hat(C X)) times row i of
# BLOCK_SIGNS, so the zeros of -J are -0.0 as negation makes them
BLOCK_SIGNS = np.array([[-1.0, -0.0, -1.0, 1.0, 1.0, 1.0],
                        [-0.0, -1.0, -1.0, 1.0, 1.0, 1.0]])
# hat(v) = (v @ HAT_ROWS).reshape(3, 3), exact but for the signs of zeros
HAT_ROWS = np.zeros((3, 9))
HAT_ROWS[(2, 1, 2, 0, 1, 0), (1, 2, 3, 5, 6, 7)] = (-1, 1, 1, -1, -1, 1)
BLOCK_SIGNS.setflags(write=False)
HAT_ROWS.setflags(write=False)


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


def masked_blocks(rotated, pts_c, mask, intr: Intrinsics) -> np.ndarray:
    """`jacobian_blocks` of M points, zero where `mask` is False; those
    points take unit depth, so that no depth behind Z_MIN is divided by."""
    if np.count_nonzero(mask) == mask.size:
        return jacobian_blocks(rotated, pts_c, intr)
    h = jacobian_blocks(rotated, np.where(mask[:, None], pts_c, 1.0), intr)
    return np.where(mask[:, None, None], h, 0.0)


def jacobian_blocks(rotated, pts_c, intr: Intrinsics) -> np.ndarray:
    """(M, 2, 6) residual Jacobian blocks d(measured - predicted)/d[dt, dphi]
    of points in front of the camera, given C @ X and C @ X + t per point.

    Each block is [-J, J hat(C X)] in closed form: row i of the pinhole
    derivative J is g_i e_i + q_i e_z, with g = f / z and
    q = -f * (x, y) / z**2, so row i of J hat(C X) is g_i hat_i + q_i hat_z.
    Each entry is summed as einsum("nij,njk->nik", J, hat) sums it, from +0
    in the same order; the terms that sum also adds are exact zeros, which
    change nothing after a +0 start, nor do the signs of hat's zeros. So for
    finite C X and depths z > 0 the bits are the einsum's, signed zeros
    included.
    """
    z = pts_c[:, 2:]
    g = (intr.focal / z)[:, :, None]
    q = (intr.neg_focal * pts_c[:, :2] / z**2)[:, :, None]
    k = (rotated @ HAT_ROWS).reshape(-1, 3, 3)  # hat(C X)
    return np.concatenate([g, g, q, (0.0 + g * k[:, :2]) + q * k[:, 2:]],
                          axis=2) * BLOCK_SIGNS
