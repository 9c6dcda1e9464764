import numpy as np
import pytest

from ekfservo.keypoints import (
    Measurement,
    ObjectModel,
    REPORTED_SIGMA_FLOOR_PX,
    SensingProfile,
    TooFewPoints,
    fps_select,
    load_object_points,
    measure,
)
from conftest import one_pose_stack
from ekfservo.lie import Pose
from ekfservo.simulator import LOOK_DOWN

CUBE = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                 for z in (0.0, 1.0)])


@pytest.fixture()
def gt_pose():
    return Pose(LOOK_DOWN, np.array([0.0, 0.0, 0.3]))


def test_model_diameter_brute_force(rng):
    pts = rng.standard_normal((40, 3))
    model = ObjectModel.from_points(pts)
    best = max(np.linalg.norm(a - b) for a in pts for b in pts)
    assert abs(model.diameter - best) < 1e-12


def test_model_rejects_too_few_and_coplanar():
    with pytest.raises(ValueError):
        ObjectModel.from_points(np.zeros((3, 3)))
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(ValueError):
        ObjectModel.from_points(flat)


def test_loader_plain_and_mesh_lines(tmp_path):
    path = tmp_path / "model.xyz"
    path.write_text("# comment\n0 0 0\nv 1 0 0\nvn 9 9 9\n0 1 0\nv 0 0 1\n"
                    "f 1 2 3\n\n")
    model = load_object_points(path)
    assert model.points.shape == (4, 3)
    assert abs(model.diameter - np.sqrt(2.0)) < 1e-12


def test_loader_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0\n")
    with pytest.raises(ValueError):
        load_object_points(path)
    path.write_text("")
    with pytest.raises(ValueError):
        load_object_points(path)


def test_fps_cube_exhaustive():
    model = ObjectModel.from_points(CUBE)
    sel = fps_select(model, 8)
    assert sorted(sel.ids.tolist()) == list(range(8))
    again = fps_select(model, 8)
    assert np.array_equal(sel.ids, again.ids)


def test_fps_cube_two_opposite_corners():
    model = ObjectModel.from_points(CUBE)
    sel = fps_select(model, 2)
    d = np.linalg.norm(sel.points3d[0] - sel.points3d[1])
    assert abs(d - np.sqrt(3.0)) < 1e-12


def test_fps_beats_random_subsets(rng):
    pts = rng.standard_normal((100, 3))
    model = ObjectModel.from_points(pts)
    sel = fps_select(model, 8)

    def min_pairwise(p):
        diff = p[:, None, :] - p[None, :, :]
        d = np.sqrt((diff**2).sum(axis=2))
        return d[np.triu_indices(len(p), k=1)].min()

    ours = min_pairwise(sel.points3d)
    for _ in range(1000):
        idx = rng.choice(100, size=8, replace=False)
        assert ours >= min_pairwise(pts[idx])


def test_fps_too_few_points():
    model = ObjectModel.from_points(CUBE)
    with pytest.raises(TooFewPoints):
        fps_select(model, 9)


def test_measure_zero_noise_is_exact(gt_pose, model, intr, rng):
    kps = fps_select(model, 8)
    prof = SensingProfile(sigma_px=0.0)
    meas = measure(one_pose_stack(gt_pose), kps, intr, prof, [rng], frame=0)
    assert meas.visible.shape == (1, 8) and meas.visible.all()
    from ekfservo.camera import project_points

    uv_true, _ = project_points(gt_pose.apply(kps.points3d), intr)
    assert np.allclose(meas.uv[0], uv_true, atol=1e-12)
    # reported covariance keeps the PD floor
    assert np.allclose(meas.cov[0, 0], REPORTED_SIGMA_FLOOR_PX**2 * np.eye(2))


def test_measure_full_dropout(gt_pose, model, intr, rng):
    kps = fps_select(model, 8)
    meas = measure(one_pose_stack(gt_pose), kps, intr,
                   SensingProfile(dropout_prob=1.0), [rng], frame=0)
    assert not meas.visible.any()
    assert np.all(np.isnan(meas.uv))


def test_measure_deterministic_stream(gt_pose, model, intr):
    kps = fps_select(model, 8)
    prof = SensingProfile(sigma_px=1.5, anisotropy=2.0, dropout_prob=0.2,
                          outlier_prob=0.1)
    gt = one_pose_stack(gt_pose)
    a = [measure(gt, kps, intr, prof, [np.random.default_rng(3)], frame=k)
         for k in range(20)]
    b = [measure(gt, kps, intr, prof, [np.random.default_rng(3)], frame=k)
         for k in range(20)]
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.visible, mb.visible)
        assert np.array_equal(ma.uv, mb.uv, equal_nan=True)
        assert np.array_equal(ma.cov, mb.cov, equal_nan=True)


def test_measure_blackout_window(gt_pose, model, intr, rng):
    kps = fps_select(model, 8)
    prof = SensingProfile(blackout_frames=(5, 8))
    for k in range(10):
        meas = measure(one_pose_stack(gt_pose), kps, intr, prof, [rng],
                       frame=k)
        if 5 <= k < 8:
            assert not meas.visible.any()
        else:
            assert meas.visible.all()


def test_measure_behind_camera_invisible(model, intr, rng):
    kps = fps_select(model, 8)
    behind = Pose(LOOK_DOWN, np.array([0.0, 0.0, -0.3]))
    meas = measure(one_pose_stack(behind), kps, intr, SensingProfile(),
                   [rng], frame=0)
    assert not meas.visible.any()


def test_reported_covariance_fidelity(gt_pose, model, intr):
    kps = fps_select(model, 8)
    kw = dict(sigma_px=2.0, anisotropy=1.5)
    gt = one_pose_stack(gt_pose)
    honest = measure(gt, kps, intr, SensingProfile(**kw),
                     [np.random.default_rng(5)], frame=0)
    over = measure(gt, kps, intr, SensingProfile(reported_scale=0.5, **kw),
                   [np.random.default_rng(5)], frame=0)
    under = measure(gt, kps, intr, SensingProfile(reported_scale=2.0, **kw),
                    [np.random.default_rng(5)], frame=0)
    floor = REPORTED_SIGMA_FLOOR_PX**2 * np.eye(2)
    base = honest.cov[0, 0] - floor
    assert np.allclose(over.cov[0, 0] - floor, base / 2.0, atol=1e-12)
    assert np.allclose(under.cov[0, 0] - floor, base * 2.0, atol=1e-12)
    # noisy values identical: the scale only changes what is reported
    assert np.array_equal(honest.uv, over.uv)
    assert np.array_equal(honest.uv, under.uv)


def test_whitened_noise_covariance_is_identity(gt_pose, model, intr):
    """Honest mode: whitening each sample by its reported covariance gives
    empirical covariance I (checked to 5% Frobenius over ~1e5 samples)."""
    kps = fps_select(model, 8)
    prof = SensingProfile(sigma_px=2.0, anisotropy=2.0)
    rng = np.random.default_rng(99)
    from ekfservo.camera import project_points

    uv_true, _ = project_points(gt_pose.apply(kps.points3d), intr)
    acc = np.zeros((2, 2))
    count = 0
    chi2_sum = 0.0
    gt = one_pose_stack(gt_pose)
    for _ in range(12500):
        meas = measure(gt, kps, intr, prof, [rng], frame=0)
        for i in range(8):
            d = meas.uv[0, i] - uv_true[i]
            li = np.linalg.cholesky(meas.cov[0, i])
            w = np.linalg.solve(li, d)
            acc += np.outer(w, w)
            chi2_sum += float(w @ w)
            count += 1
    emp = acc / count
    assert np.linalg.norm(emp - np.eye(2)) < 0.05
    mean_chi2 = chi2_sum / count
    assert abs(mean_chi2 - 2.0) < 0.1  # 5% of the chi-square(2) mean


def test_profile_validation():
    with pytest.raises(ValueError):
        SensingProfile(sigma_px=-1.0)
    with pytest.raises(ValueError):
        SensingProfile(dropout_prob=1.5)
    with pytest.raises(ValueError):
        SensingProfile(reported_scale=0.0)
    with pytest.raises(ValueError):
        SensingProfile(anisotropy=0.5)


def test_measurement_len(gt_pose, model, intr, rng):
    kps = fps_select(model, 8)
    meas = measure(one_pose_stack(gt_pose), kps, intr, SensingProfile(),
                   [rng], frame=0)
    assert len(meas) == 8
    assert isinstance(meas, Measurement)
