from dataclasses import replace

import numpy as np

from ekfservo.control import pbvs_law, relative_pose
from ekfservo.keypoints import ObjectModel
from ekfservo.lie import Pose, exp_so3, pose_boxplus
from ekfservo.metrics import (
    add_metric,
    length_ratio,
    nees,
    success,
    summarize,
    te_re,
    trajectory_length,
    uncertainty_correlation,
)
from ekfservo.simulator import (
    LOOK_DOWN,
    EpisodeRecord,
    geodesic_reference_for,
    run_batch,
    run_episode,
)
from oracles import random_rotvec


def test_add_identical_poses_zero(model, rng):
    p = Pose(exp_so3(random_rotvec(rng, 1.0)), rng.standard_normal(3))
    assert add_metric(p, p, model) == 0.0


def test_add_pure_translation(model):
    a = Pose(np.eye(3), [0.0, 0.0, 0.0])
    b = Pose(np.eye(3), [0.03, 0.0, 0.0])
    assert abs(add_metric(a, b, model) - 0.03) < 1e-12


def test_add_matches_brute_force_loop(model, rng):
    a = Pose(exp_so3(random_rotvec(rng, 1.5)), rng.standard_normal(3))
    b = Pose(exp_so3(random_rotvec(rng, 1.5)), rng.standard_normal(3))
    total = 0.0
    for x in model.points:
        total += np.linalg.norm((a.C @ x + a.t) - (b.C @ x + b.t))
    assert abs(add_metric(a, b, model) - total / len(model.points)) < 1e-12


def test_te_re_identity():
    p = Pose(LOOK_DOWN, [0.0, 0.0, 0.15])
    assert te_re(p, p) == (0.0, 0.0)


def test_te_re_pure_translation():
    desired = Pose(LOOK_DOWN, [0.0, 0.0, 0.15])
    # move the camera 2 cm: the object shifts by -R_rel... construct via
    # a left offset on the desired pose
    offset = Pose(np.eye(3), [0.02, 0.0, 0.0])
    final = offset.inverse().compose(desired)
    te, re = te_re(final, desired)
    assert abs(te - 20.0) < 1e-9
    assert abs(re) < 1e-12


def test_te_re_pure_rotation():
    desired = Pose(LOOK_DOWN, [0.0, 0.0, 0.15])
    offset = Pose(exp_so3([0.0, np.deg2rad(30.0), 0.0]), np.zeros(3))
    final = offset.inverse().compose(desired)
    te, re = te_re(final, desired)
    assert abs(re - 30.0) < 1e-9


def _stub_record(frames=5, converged=True, desired=None):
    desired = desired or Pose(LOOK_DOWN, np.array([0.0, 0.0, 0.15]))
    rec = EpisodeRecord(seed=0, desired=desired, initial_gt=desired,
                        converged=converged)
    rec.gt_C = np.repeat(desired.C[None], frames, axis=0)
    rec.gt_t = np.repeat(desired.t[None], frames, axis=0)
    rec.est_C = rec.gt_C.copy()
    rec.est_t = rec.gt_t.copy()
    rec.P = np.repeat(np.eye(6)[None] * 1e-4, frames, axis=0)
    rec.cmd = np.zeros((frames, 6))
    rec.raw = np.zeros((frames, 6))
    rec.twist_cov = np.repeat(np.eye(6)[None], frames, axis=0)
    rec.entropy = np.zeros(frames)
    rec.resid_rms = np.zeros(frames)
    rec.n_visible = np.full(frames, 8)
    rec.n_used = np.full(frames, 8)
    rec.final_gt = desired
    return rec


def test_success_requires_both_conditions(model):
    desired = Pose(LOOK_DOWN, np.array([0.0, 0.0, 0.15]))
    rec = _stub_record()
    assert success(rec, model)

    near_miss = _stub_record()
    near_miss.final_gt = Pose(desired.C,
                              desired.t + [0.11 * model.diameter, 0.0, 0.0])
    assert not success(near_miss, model)

    accurate_but_restless = _stub_record(converged=False)
    assert not success(accurate_but_restless, model)


def test_trajectory_length_and_lower_bound(rng):
    pts = rng.standard_normal((20, 3))
    length = trajectory_length(pts)
    assert length >= np.linalg.norm(pts[-1] - pts[0]) - 1e-12
    assert trajectory_length(pts[:1]) == 0.0


def test_length_ratio_self_is_one(rng):
    pts = np.cumsum(rng.standard_normal((30, 3)), axis=0)
    assert abs(length_ratio(pts, pts) - 1.0) < 1e-9


def test_length_ratio_degenerate_reference():
    assert np.isnan(length_ratio(np.zeros((3, 3)), np.zeros((2, 3))))


def test_uncertainty_correlation_zero_variance_guard():
    recs = [_stub_record(frames=10)]
    assert np.isnan(uncertainty_correlation(recs, 0.8))


def test_uncertainty_correlation_synthetic_linear():
    """Command errors constructed to grow linearly with entropy give r=1."""
    rec = _stub_record(frames=40)
    desired = rec.desired
    v_gt, _ = pbvs_law(relative_pose(desired, desired), 0.8)
    ent = np.linspace(-5.0, 5.0, 40)
    rec.entropy = ent
    for k in range(40):
        err = 0.01 * (ent[k] + 6.0)
        rec.cmd[k] = v_gt + np.array([err, 0, 0, 0, 0, 0])
    assert abs(uncertainty_correlation([rec], 0.8) - 1.0) < 1e-9


def test_nees_zero_when_exact():
    rec = _stub_record()
    res = nees([rec])
    assert res.mean == 0.0
    assert res.count == rec.frames


def test_nees_scaling_with_covariance():
    rec = _stub_record(frames=6)
    delta = np.array([0.002, -0.001, 0.003, 0.01, -0.02, 0.005])
    for k in range(rec.frames):
        est = pose_boxplus(Pose(rec.gt_C[k], rec.gt_t[k]), -delta)
        rec.est_C[k] = est.C
        rec.est_t[k] = est.t
    base = nees([rec]).mean
    rec.P = rec.P * 100.0
    scaled = nees([rec]).mean
    assert abs(scaled - base / 100.0) < 1e-12


def test_nees_honest_draws_near_dimension(rng):
    """Synthetic honest errors: NEES mean over 5000 draws sits near 6."""
    chol = np.linalg.cholesky(1e-4 * np.eye(6))
    records = []
    for i in range(5000):
        r = _stub_record(frames=1)
        delta = chol @ rng.standard_normal(6)
        est = pose_boxplus(Pose(r.gt_C[0], r.gt_t[0]), -delta)
        r.est_C[0] = est.C
        r.est_t[0] = est.t
        records.append(r)
    res = nees(records)
    assert res.count == 5000
    assert 5.7 < res.mean < 6.3
    assert 5.39 <= res.mean <= 6.64


def test_nees_skips_nonfinite_covariance():
    rec = _stub_record(frames=4)
    rec.P[2] = np.nan
    assert nees([rec]).count == 3


def test_summarize_aggregates_success_only(nominal_scenario):
    good = _stub_record()
    bad = _stub_record(converged=False)
    failed = _stub_record()
    failed.failure = "frame 3: numerical failure"
    s = summarize([good, bad, failed], nominal_scenario, {})
    assert s.variant == "coupled-ekf" and s.trials == 3
    assert s.successes == 1
    assert s.failures == 1
    assert abs(s.sr_percent - 100.0 / 3.0) < 1e-12
    assert s.te_mm_mean == 0.0


def test_metrics_invariant_to_world_frame_change(nominal_scenario):
    """Re-expressing the scene in a rigidly moved world/object frame
    (every pose composed with a fixed transform, model points re-expressed
    to match) leaves SR/TE/RE/LR unchanged."""
    sc = replace(nominal_scenario, max_frames=200)
    rec = run_episode(sc, 21)
    g = Pose(exp_so3([0.3, -0.5, 0.8]), np.array([0.4, -0.2, 0.9]))
    moved_model = ObjectModel.from_points(g.inverse().apply(sc.model.points))

    moved = _stub_record(frames=rec.frames)
    moved.converged = rec.converged
    moved.desired = rec.desired.compose(g)
    moved.initial_gt = rec.initial_gt.compose(g)
    moved.final_gt = rec.final_gt.compose(g)
    for k in range(rec.frames):
        gt = Pose(rec.gt_C[k], rec.gt_t[k]).compose(g)
        moved.gt_C[k], moved.gt_t[k] = gt.C, gt.t

    te0, re0 = te_re(rec.final_gt, rec.desired)
    te1, re1 = te_re(moved.final_gt, moved.desired)
    assert abs(te0 - te1) < 1e-9
    assert abs(re0 - re1) < 1e-9

    add0 = add_metric(rec.final_gt, rec.desired, sc.model)
    add1 = add_metric(moved.final_gt, moved.desired, moved_model)
    assert abs(add0 - add1) < 1e-12
    assert success(rec, sc.model) == success(moved, moved_model)

    lr0 = length_ratio(rec.camera_positions(),
                       geodesic_reference_for(rec, sc))
    lr1 = length_ratio(moved.camera_positions(),
                       geodesic_reference_for(moved, sc))
    assert abs(lr0 - lr1) < 1e-6


def test_noisy_nominal_length_ratio_band(nominal_scenario):
    res = run_batch(nominal_scenario, 5)
    for rec in res.records:
        lr = length_ratio(rec.camera_positions(),
                          geodesic_reference_for(rec, nominal_scenario))
        assert 1.0 <= lr <= 1.3
