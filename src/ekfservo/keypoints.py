"""Synthetic keypoint sensing: model keypoint selection, the pixels a
pose predicts for the keypoints, and noisy 2D measurements with
per-point covariances.

This module stands in for a learned detector. Its output contract is the
same: per frame, a set of 2D keypoint locations with 2x2 covariance
matrices and visibility flags. Adverse conditions (dropout, outliers,
mis-reported covariances, a blackout window) are simulated explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import Intrinsics, in_image, project_points
from .lie import Pose

# Reported covariances carry a tiny isotropic floor so they stay positive
# definite even for the degenerate zero-noise profile (negligible against
# any realistic pixel noise).
REPORTED_SIGMA_FLOOR_PX = 1e-4


class TooFewPoints(ValueError):
    """Requested more keypoints than the model provides."""


@dataclass(frozen=True)
class ObjectModel:
    """Known 3D object: points in the object frame (meters) and the
    precomputed diameter (max pairwise distance)."""

    points: np.ndarray
    diameter: float

    @staticmethod
    def from_points(points) -> "ObjectModel":
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        if pts.shape[0] < 4:
            raise ValueError("object model needs at least 4 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("object model contains non-finite coordinates")
        centered = pts - pts.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        if sv[2] <= 1e-9 * max(sv[0], 1e-12):
            raise ValueError("object model points are coplanar")
        diff = pts[:, None, :] - pts[None, :, :]
        diameter = float(np.sqrt((diff**2).sum(axis=2)).max())
        return ObjectModel(pts, diameter)


def load_object_points(path) -> ObjectModel:
    """Load a model from an ASCII point list.

    Accepted lines: blank, `# comment`, `x y z`, or mesh vertex lines
    `v x y z` (other mesh records are ignored). Coordinates are meters.
    """
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if fields[0] == "v":
                fields = fields[1:]
            elif not _is_number(fields[0]):
                continue  # non-vertex mesh record (f, vn, vt, ...)
            if len(fields) < 3:
                raise ValueError(f"{path}:{lineno}: expected 3 coordinates")
            try:
                pts.append([float(f) for f in fields[:3]])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad coordinate") from exc
    if not pts:
        raise ValueError(f"{path}: no vertices found")
    return ObjectModel.from_points(np.array(pts))


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


@dataclass(frozen=True)
class KeypointSet:
    ids: np.ndarray
    points3d: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def fps_select(model: ObjectModel, n: int) -> KeypointSet:
    """Greedy farthest point sampling over the model points.

    The first point is the one farthest from the centroid; each following
    point maximizes the minimum distance to the already selected set. Ties
    break toward the lowest index, so the result is deterministic.
    """
    pts = model.points
    if n > pts.shape[0]:
        raise TooFewPoints(f"requested {n} keypoints, model has {pts.shape[0]}")
    if n < 1:
        raise ValueError("n must be positive")
    centroid = pts.mean(axis=0)
    first = int(np.argmax(np.linalg.norm(pts - centroid, axis=1)))
    chosen = [first]
    min_dist = np.linalg.norm(pts - pts[first], axis=1)
    while len(chosen) < n:
        nxt = int(np.argmax(min_dist))
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(pts - pts[nxt], axis=1))
    ids = np.array(chosen, dtype=int)
    return KeypointSet(ids, pts[ids].copy())


@dataclass(frozen=True)
class SensingProfile:
    """Noise and corruption model for the synthetic detector.

    reported_scale is the factor between the *reported* covariance and the
    true sampling covariance: 1 reports it honestly, above 1 under-confident,
    below 1 over-confident. Outliers are never reflected in the reported
    covariance. blackout_frames is a half-open frame interval [start, stop)
    during which every keypoint is dropped; the default [0, 0) is empty.
    """

    sigma_px: float = 1.0
    anisotropy: float = 1.0
    dropout_prob: float = 0.0
    outlier_prob: float = 0.0
    outlier_px: float = 40.0
    reported_scale: float = 1.0
    blackout_frames: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.sigma_px < 0:
            raise ValueError("sigma_px must be >= 0")
        if self.anisotropy < 1.0:
            raise ValueError("anisotropy must be >= 1")
        if self.outlier_px < 0:
            raise ValueError("outlier_px must be >= 0")
        for name in ("dropout_prob", "outlier_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.reported_scale <= 0:
            raise ValueError("reported_scale must be positive")
        start, stop = self.blackout_frames
        if not 0 <= start <= stop:
            raise ValueError("blackout_frames [start, stop) must have "
                             "0 <= start <= stop")


@dataclass
class Measurement:
    """One frame of detected keypoints, aligned with a KeypointSet; its
    len() is the number of keypoints.

    Rows with visible == False carry NaN for uv and cov. A stacked
    measurement of N poses, as `measure` makes, has a leading axis of N
    on every field.
    """

    uv: np.ndarray
    cov: np.ndarray
    visible: np.ndarray

    def __len__(self) -> int:
        return self.visible.shape[-1]


def predict_keypoints(pose: Pose, kps: KeypointSet, intr: Intrinsics
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predicted pixels of the model keypoints under one pose (C (3, 3),
    t (3,)) or a stack of N poses (C (N, 3, 3), t (N, 3)): (uv, ok, C @ X)
    of shapes (..., n, 2), (..., n) and (..., n, 3). A keypoint not beyond
    the Z_MIN plane has ok False and a NaN row of uv. Row i of a stack has
    the bits of the call on pose i alone. The one place that forms C @ X
    and projects the model keypoints: sensing, the filter and PnP call it.
    """
    rotated = kps.points3d @ pose.C.swapaxes(-1, -2)  # C @ X per keypoint
    uv, ok = project_points(rotated + pose.t[..., None, :], intr)
    lead = rotated.shape[:-1]
    return uv.reshape(*lead, 2), ok.reshape(lead), rotated


def measure(gt_pose: Pose, kps: KeypointSet, intr: Intrinsics,
            profile: SensingProfile, rng, frame: int) -> Measurement:
    """Synthesize frame `frame` of noisy keypoint detections for a stack
    of N poses (C (N, 3, 3), t (N, 3)) with a sequence of N Generators;
    every field of the Measurement has a leading axis of N.

    The per-keypoint random draws happen in a fixed order and count
    regardless of visibility outcomes, so the stream stays bit-identical
    for a given seed, independent of what gets occluded; pose i draws
    from rng[i] alone, so its row does not depend on the other poses.
    """
    n_poses, n = len(rng), len(kps)
    # uniform(0, b) draws b * random() (plus 0.0), and the three uniform
    # draws after the Gaussian pairs are consecutive
    angles = np.empty((n_poses, n))
    gauss = np.empty((n_poses, n, 2))
    later = np.empty((n_poses, 3, n))
    for i, gen in enumerate(rng):
        gen.random(out=angles[i])
        gen.standard_normal(out=gauss[i])
        gen.random(out=later[i])
    angles *= 2.0 * np.pi
    u_drop, u_out = later[:, 0], later[:, 1]
    out_dir = later[:, 2] * (2.0 * np.pi)

    uv_true, in_front, _ = predict_keypoints(gt_pose, kps, intr)
    visible = (in_front & in_image(uv_true, intr).reshape(n_poses, n)
               & (u_drop >= profile.dropout_prob))
    start, stop = profile.blackout_frames
    if start <= frame < stop:
        visible = np.zeros((n_poses, n), dtype=bool)

    # True sampling covariance: random orientation, axis stds s0 = sigma_px
    # and s1 = anisotropy * sigma_px. With the rotation's columns r0, r1,
    # the noise is s0 g0 r0 + s1 g1 r1 and the covariance
    # s0^2 r0 r0^T + s1^2 r1 r1^T.
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    s0 = profile.sigma_px
    s1 = profile.anisotropy * profile.sigma_px
    r0 = np.empty((n_poses, n, 2))
    r0[..., 0], r0[..., 1] = cos_a, sin_a
    r1 = np.empty((n_poses, n, 2))
    r1[..., 0], r1[..., 1] = -sin_a, cos_a
    noise = (s0 * gauss[..., :1]) * r0 + (s1 * gauss[..., 1:]) * r1
    cov_true = ((r0 * (s0 * s0))[..., :, None] * r0[..., None, :]
                + (r1 * (s1 * s1))[..., :, None] * r1[..., None, :])

    is_outlier = u_out < profile.outlier_prob
    outlier_vec = profile.outlier_px * np.stack([np.cos(out_dir),
                                                 np.sin(out_dir)], axis=-1)
    noise = np.where(is_outlier[..., None], outlier_vec, noise)

    uv = uv_true + noise
    cov = cov_true * profile.reported_scale
    cov += REPORTED_SIGMA_FLOOR_PX**2 * np.eye(2)
    uv[~visible] = np.nan
    cov[~visible] = np.nan
    return Measurement(uv=uv, cov=cov, visible=visible)

