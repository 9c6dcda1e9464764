"""Servoing evaluation: success rate, final pose errors, trajectory length
ratio, uncertainty correlation, and filter-consistency (NEES) diagnostics.

Success requires both convergence and a final average-model-distance below
10% of the object diameter; the error and length statistics aggregate over
successful trials only, while the success rate uses all trials. A
batch's settings come from its Scenario, not from its records.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .control import pbvs_law, relative_pose
from .keypoints import ObjectModel
from .lie import Pose, log_so3, pose_boxminus
from .simulator import EpisodeRecord, Scenario, geodesic_reference_for


def add_metric(pose_a: Pose, pose_b: Pose, model: ObjectModel) -> float:
    """Average distance between model points placed by the two poses."""
    return float(np.mean(np.linalg.norm(pose_a.apply(model.points)
                                        - pose_b.apply(model.points), axis=1)))


def te_re(final_gt: Pose, desired: Pose):
    """Final translation error (mm) and rotation error (deg) from the
    current-to-desired camera transform. final_gt is one pose, giving two
    floats, or a stack of N, giving two (N,) arrays."""
    if final_gt.C.ndim == 2:
        te, re = te_re(Pose(final_gt.C[None], final_gt.t[None]), desired)
        return float(te[0]), float(re[0])
    rel = relative_pose(desired, final_gt)
    theta_u = log_so3(rel.C)
    te = np.sqrt(np.vecdot(rel.t, rel.t)) * 1000.0
    re = np.sqrt(np.vecdot(theta_u, theta_u)) * 180.0 / math.pi
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


def uncertainty_correlation(records, lam: float) -> float:
    """Pearson correlation between the per-frame twist entropy and the
    commanded-twist error against the ground-truth servo law of gain lam.

    Returns NaN when either stream has no variance (or too few frames).
    """
    ents, errs = [np.empty(0)], [np.empty(0)]
    for rec in records:
        finite = np.isfinite(rec.entropy)
        if not finite.any():
            continue
        gt = Pose(rec.gt_C[finite], rec.gt_t[finite])
        v_gt, _ = pbvs_law(relative_pose(rec.desired, gt), lam)
        err = rec.cmd[finite] - v_gt
        ents.append(rec.entropy[finite])
        errs.append(np.sqrt(np.vecdot(err, err)))
    ents_arr = np.concatenate(ents)
    errs_arr = np.concatenate(errs)
    if len(ents_arr) < 2:
        return float("nan")
    if np.std(ents_arr) < 1e-15 or np.std(errs_arr) < 1e-15:
        return float("nan")
    return float(np.corrcoef(ents_arr, errs_arr)[0, 1])


@dataclass
class NeesResult:
    mean: float
    count: int


def nees(records) -> NeesResult:
    """Mean normalized estimation error squared across all frames of all
    records, using the tangent-space error of ground truth relative to the
    estimate and the filter covariance of that frame. Frames with a
    non-finite or singular covariance are left out."""
    values = [np.empty(0)]
    for rec in records:
        finite = np.isfinite(rec.P).all(axis=(1, 2))
        if not finite.any():
            continue
        delta = pose_boxminus(Pose(rec.gt_C[finite], rec.gt_t[finite]),
                              Pose(rec.est_C[finite], rec.est_t[finite]))
        values.append(_mahalanobis_squared(rec.P[finite], delta))
    vals = np.concatenate(values)
    if not len(vals):
        return NeesResult(float("nan"), 0)
    return NeesResult(float(np.mean(vals)), len(vals))


def _mahalanobis_squared(p: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """delta_k^T p_k^-1 delta_k per frame, by one stacked solve; when that
    raises, each frame is solved alone and a frame whose p is singular is
    dropped."""
    try:
        return np.vecdot(delta, np.linalg.solve(p, delta[:, :, None])[:, :, 0])
    except np.linalg.LinAlgError:
        pass
    out = []
    for p_k, d_k in zip(p, delta):
        try:
            out.append(d_k @ np.linalg.solve(p_k, d_k))
        except np.linalg.LinAlgError:
            continue
    return np.array(out, dtype=float)


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


def summarize(records, scenario: Scenario, rollouts: dict) -> Summary:
    """Aggregate a batch of episode records that `scenario` produced.

    TE/RE/LR statistics cover successful trials only; the success rate
    covers all trials, and episodes that aborted with a failure count as
    unsuccessful rather than being dropped. The geodesic rollout behind
    each length ratio goes into `rollouts` under its record's index in
    `records`.
    """
    records = list(records)
    trials = len(records)
    failures = sum(1 for r in records if r.failure)
    successes = 0
    te_vals, re_vals, lr_vals = [], [], []
    for i, r in enumerate(records):
        if not success(r, scenario.model):
            continue
        successes += 1
        te, re = te_re(r.final_gt, r.desired)
        te_vals.append(te)
        re_vals.append(re)
        reference = geodesic_reference_for(r, scenario)
        rollouts[i] = reference
        lr = length_ratio(r.camera_positions(), reference)
        if np.isfinite(lr):
            lr_vals.append(lr)
    te_mean, te_std = _stats(te_vals)
    re_mean, re_std = _stats(re_vals)
    lr_mean, lr_std = _stats(lr_vals)
    corr = uncertainty_correlation(records, scenario.control.lam)
    nees_mean = nees(records).mean
    return Summary(
        variant=scenario.variant,
        trials=trials,
        successes=successes,
        failures=failures,
        sr_percent=(100.0 * successes / trials) if trials else 0.0,
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
