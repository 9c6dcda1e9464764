"""Servoing evaluation: success rate, final pose errors, trajectory length
ratio, uncertainty correlation, and filter-consistency (NEES) diagnostics.

Success requires both convergence and a final average-model-distance below
10% of the object diameter; the error and length statistics aggregate over
successful trials only, while the success rate uses all trials.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .control import pbvs_law, relative_pose
from .keypoints import ObjectModel
from .lie import Pose, log_so3
from .simulator import EpisodeRecord, geodesic_reference_for


def add_metric(pose_a: Pose, pose_b: Pose, model: ObjectModel) -> float:
    """Average distance between model points placed by the two poses."""
    return float(np.mean(np.linalg.norm(pose_a.apply(model.points)
                                        - pose_b.apply(model.points), axis=1)))


def te_re(final_gt: Pose, desired: Pose) -> tuple[float, float]:
    """Final translation error (mm) and rotation error (deg) from the
    current-to-desired camera transform."""
    rel = relative_pose(desired, final_gt)
    theta_u = log_so3(rel.C)
    te = math.sqrt(rel.t.dot(rel.t)) * 1000.0
    re = math.sqrt(theta_u.dot(theta_u)) * 180.0 / math.pi
    return te, re


def success(record: EpisodeRecord, model: ObjectModel) -> bool:
    """Converged and the achieved placement is within 10% of the object
    diameter in average model distance of the desired placement."""
    if not record.converged or record.failure:
        return False
    add = add_metric(record.final_gt, record.desired, model)
    return add < 0.1 * model.diameter


def trajectory_length(positions) -> float:
    positions = np.asarray(positions, dtype=float)
    if positions.shape[0] < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(positions, axis=0), axis=1)))


def length_ratio(positions, reference_positions) -> float:
    """Path length divided by the geodesic reference path length."""
    ref = trajectory_length(reference_positions)
    if ref <= 1e-12:
        return float("nan")
    return trajectory_length(positions) / ref


def length_ratio_for(record: EpisodeRecord) -> float:
    return length_ratio(record.camera_positions(),
                        geodesic_reference_for(record))


def uncertainty_correlation(records) -> float:
    """Pearson correlation between the per-frame twist entropy and the
    commanded-twist error against the ground-truth servo law.

    Returns NaN when either stream has no variance (or too few frames).
    """
    ents, errs = [], []
    for rec in records:
        finite = np.isfinite(rec.entropy)
        ents.extend(rec.entropy[finite].tolist())
        for k in np.flatnonzero(finite).tolist():
            gt = Pose(rec.gt_C[k], rec.gt_t[k])
            v_gt = pbvs_law(relative_pose(rec.desired, gt),
                            rec.control.lam).vector()
            err = rec.cmd[k] - v_gt
            errs.append(math.sqrt(err.dot(err)))
    if len(ents) < 2:
        return float("nan")
    ents_arr = np.array(ents)
    errs_arr = np.array(errs)
    if np.std(ents_arr) < 1e-15 or np.std(errs_arr) < 1e-15:
        return float("nan")
    return float(np.corrcoef(ents_arr, errs_arr)[0, 1])


@dataclass
class NeesResult:
    mean: float
    count: int
    # 95% band of the mean of n_samples chi-square(6) draws; informational
    lower: float = float("nan")
    upper: float = float("nan")

    @property
    def within(self) -> bool:
        return bool(self.lower <= self.mean <= self.upper)


def nees(records, lower: float = 5.39, upper: float = 6.64) -> NeesResult:
    """Mean normalized estimation error squared across all frames of all
    records, using the tangent-space error of ground truth relative to the
    estimate and the filter covariance of that frame."""
    values = []
    for rec in records:
        finite = np.isfinite(rec.P).all(axis=(1, 2))
        for k in np.flatnonzero(finite).tolist():
            # pose_boxminus(gt, est), without building the two Poses
            delta = np.concatenate([
                rec.gt_t[k] - rec.est_t[k],
                log_so3(rec.gt_C[k] @ rec.est_C[k].T)])
            try:
                values.append(float(delta @ np.linalg.solve(rec.P[k], delta)))
            except np.linalg.LinAlgError:
                continue
    if not values:
        return NeesResult(float("nan"), 0, lower, upper)
    return NeesResult(float(np.mean(values)), len(values), lower, upper)


@dataclass
class Summary:
    variant: str
    trials: int
    successes: int
    failures: int
    sr_percent: float
    te_mm_mean: float | None
    te_mm_std: float | None
    re_deg_mean: float | None
    re_deg_std: float | None
    lr_mean: float | None
    lr_std: float | None
    correlation_r: float | None
    nees_mean: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def summarize(records, model: ObjectModel) -> Summary:
    """Aggregate a batch of episode records.

    TE/RE/LR statistics cover successful trials only; the success rate
    covers all trials, and episodes that aborted with a failure count as
    unsuccessful rather than being dropped.
    """
    records = list(records)
    trials = len(records)
    variant = records[0].variant if records else ""
    failures = sum(1 for r in records if r.failure)
    succ = [r for r in records if success(r, model)]
    te_vals, re_vals, lr_vals = [], [], []
    for r in succ:
        te, re = te_re(r.final_gt, r.desired)
        te_vals.append(te)
        re_vals.append(re)
        lr = length_ratio_for(r)
        if np.isfinite(lr):
            lr_vals.append(lr)
    te_mean, te_std = _stats(te_vals)
    re_mean, re_std = _stats(re_vals)
    lr_mean, lr_std = _stats(lr_vals)
    corr = uncertainty_correlation(records) if records else float("nan")
    nees_mean = nees(records).mean if records else float("nan")
    return Summary(
        variant=variant,
        trials=trials,
        successes=len(succ),
        failures=failures,
        sr_percent=(100.0 * len(succ) / trials) if trials else 0.0,
        te_mm_mean=te_mean, te_mm_std=te_std,
        re_deg_mean=re_mean, re_deg_std=re_std,
        lr_mean=lr_mean, lr_std=lr_std,
        correlation_r=_nan_to_none(corr),
        nees_mean=_nan_to_none(nees_mean),
    )


def _stats(values) -> tuple[float | None, float | None]:
    if len(values) == 0:
        return None, None
    arr = np.array(values, dtype=float)
    return float(arr.mean()), float(arr.std())


def _nan_to_none(x: float) -> float | None:
    return None if not np.isfinite(x) else float(x)
