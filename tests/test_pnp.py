import numpy as np

from conftest import one_pose_stack
from ekfservo.keypoints import Measurement, SensingProfile, fps_select, measure
from ekfservo.lie import Pose, pose_boxminus, pose_boxplus
from ekfservo.pnp import refine_pose
from ekfservo.simulator import LOOK_DOWN


def _setup(model, intr, sigma=0.0, seed=0):
    kps = fps_select(model, 8)
    gt = Pose(LOOK_DOWN, np.array([0.01, -0.02, 0.28]))
    frame = measure(one_pose_stack(gt), kps, intr,
                    SensingProfile(sigma_px=sigma),
                    [np.random.default_rng(seed)], frame=0)
    # refine_pose takes one trial's frame, row 0 of the stack
    return kps, gt, Measurement(frame.uv[0], frame.cov[0], frame.visible[0])


def test_recovers_pose_from_clean_measurements(model, intr):
    kps, gt, meas = _setup(model, intr)
    start = pose_boxplus(gt, np.array([0.03, -0.02, 0.04, 0.1, -0.08, 0.06]))
    est = refine_pose(start, meas, kps, intr)
    err = pose_boxminus(gt, est)
    assert np.linalg.norm(err[:3]) < 1e-8
    assert np.linalg.norm(err[3:]) < 1e-8


def test_accuracy_scales_with_noise(model, intr):
    kps, gt, meas = _setup(model, intr, sigma=1.0, seed=3)
    est = refine_pose(gt, meas, kps, intr)
    err = pose_boxminus(gt, est)
    assert 0.0 < np.linalg.norm(err[:3]) < 0.02


def test_returns_none_below_minimum_points(model, intr):
    kps, gt, meas = _setup(model, intr)
    vis = meas.visible.copy()
    vis[3:] = False
    starved = Measurement(uv=meas.uv, cov=meas.cov, visible=vis)
    assert refine_pose(gt, starved, kps, intr) is None


def test_weighting_downweights_inflated_covariance(model, intr):
    """A keypoint reported as very uncertain barely shifts the estimate
    even when its measurement is corrupted."""
    kps, gt, meas = _setup(model, intr)
    uv = meas.uv.copy()
    cov = meas.cov.copy()
    uv[0] += 80.0
    cov[0] = 1e6 * np.eye(2)
    corrupted = Measurement(uv=uv, cov=cov, visible=meas.visible)
    est = refine_pose(gt, corrupted, kps, intr)
    err = pose_boxminus(gt, est)
    assert np.linalg.norm(err[:3]) < 1e-4


def test_converges_from_moderate_offset_with_noise(model, intr):
    kps, gt, meas = _setup(model, intr, sigma=0.5, seed=9)
    start = pose_boxplus(gt, np.array([0.05, 0.04, -0.06, 0.3, 0.2, -0.25]))
    est = refine_pose(start, meas, kps, intr)
    err = pose_boxminus(gt, est)
    assert np.linalg.norm(err[:3]) < 0.01
    assert np.linalg.norm(err[3:]) < 0.05
