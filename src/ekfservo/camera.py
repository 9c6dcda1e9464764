"""Pinhole projection and its Jacobian.

No lens distortion. Points projecting outside the image bounds are still
returned; visibility policy belongs to the sensing layer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_Z_MIN = 1e-3


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


def project_points(points_c, intr: Intrinsics,
                   z_min: float = DEFAULT_Z_MIN) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of an (N, 3) stack.

    Returns (uv, in_front); rows with in_front == False hold NaN instead of
    raising, so callers can keep keypoint indexing aligned.
    """
    pts = np.asarray(points_c, dtype=float).reshape(-1, 3)
    z = pts[:, 2]
    in_front = z > z_min
    if in_front.all():
        uv = np.empty((pts.shape[0], 2))
        uv[:, 0] = intr.fx * pts[:, 0] / z + intr.cx
        uv[:, 1] = intr.fy * pts[:, 1] / z + intr.cy
        return uv, in_front
    uv = np.full((pts.shape[0], 2), np.nan)
    zs = np.where(in_front, z, 1.0)
    uv[:, 0] = np.where(in_front, intr.fx * pts[:, 0] / zs + intr.cx, np.nan)
    uv[:, 1] = np.where(in_front, intr.fy * pts[:, 1] / zs + intr.cy, np.nan)
    return uv, in_front


def in_image(uv, intr: Intrinsics) -> np.ndarray:
    """Boundary-inclusive containment test for pixel coordinates (N, 2)."""
    uv = np.asarray(uv, dtype=float).reshape(-1, 2)
    ok = (uv[:, 0] >= 0.0) & (uv[:, 0] <= intr.width)
    ok &= (uv[:, 1] >= 0.0) & (uv[:, 1] <= intr.height)
    ok &= np.all(np.isfinite(uv), axis=1)
    return ok


def projection_jacobians(points_c, intr: Intrinsics) -> np.ndarray:
    """Stacked (N, 2, 3) pinhole derivatives; callers guarantee z > z_min."""
    pts = np.asarray(points_c, dtype=float).reshape(-1, 3)
    n = pts.shape[0]
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    jac = np.zeros((n, 2, 3))
    jac[:, 0, 0] = intr.fx / z
    jac[:, 0, 2] = -intr.fx * x / z**2
    jac[:, 1, 1] = intr.fy / z
    jac[:, 1, 2] = -intr.fy * y / z**2
    return jac
