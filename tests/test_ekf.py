import numpy as np
import pytest

from conftest import one_pose_stack
from ekfservo.camera import Intrinsics, jacobian_blocks
from ekfservo.ekf import (
    FilterState,
    NoiseParams,
    SingularInnovation,
    _gate_threshold,
    _mahalanobis_keep,
    initialize,
    measurement_jacobian,
    propagate,
    update,
)
from ekfservo.keypoints import (
    KeypointSet,
    Measurement,
    SensingProfile,
    fps_select,
    measure,
    predict_keypoints,
)
from ekfservo.lie import Pose, exp_so3, pose_boxminus, pose_boxplus
from ekfservo.simulator import LOOK_DOWN
from oracles import (fd_pose_jacobian, fd_state_transition, random_rotvec,
                     rel_error, same_bits)

NOISE = NoiseParams(0.01, 0.005)
DT = 1.0 / 30.0


def _random_state(rng, p_scale=1e-4) -> FilterState:
    pose = Pose(exp_so3(random_rotvec(rng, 0.8)) @ LOOK_DOWN,
                np.array([0.0, 0.0, 0.3]) + rng.uniform(-0.05, 0.05, 3))
    return FilterState(pose, p_scale * np.eye(6))


def _one_belief(state: FilterState) -> FilterState:
    """The stack of one belief that `update` takes."""
    return FilterState(one_pose_stack(state.mean), state.P[None])


def test_initialize_exact_prior():
    pose = Pose(LOOK_DOWN, [0.0, 0.0, 0.2])
    st = initialize(pose, 0.0, 0.0)
    assert np.array_equal(st.P, np.zeros((6, 6)))
    assert st.mean is pose


def test_initialize_diagonal_structure():
    st = initialize(Pose.identity(), 0.02, 0.1)
    assert np.allclose(np.diag(st.P), [4e-4] * 3 + [1e-2] * 3)
    assert np.allclose(st.P, np.diag(np.diag(st.P)))


def test_propagate_zero_twist_inflates_only():
    st = initialize(Pose(LOOK_DOWN, [0.0, 0.0, 0.5]), 0.01, 0.02)
    out = propagate(st, np.zeros(6), DT, NOISE)
    assert np.allclose(out.mean.C, st.mean.C)
    assert np.allclose(out.mean.t, st.mean.t)
    assert np.allclose(out.P, st.P + NOISE.rate_covariance * DT)


def test_propagate_translation_only():
    st = initialize(Pose(np.eye(3), [0.0, 0.0, 0.5]), 0.0, 0.0)
    out = propagate(st, np.array([0.1, 0, 0, 0, 0, 0]), 0.1, NOISE)
    assert np.allclose(out.mean.t, [-0.01, 0.0, 0.5])
    assert np.allclose(out.mean.C, np.eye(3))


def test_propagate_transition_matches_fd(rng):
    """The error-transition both blocks equal exp(-hat(w) dt) under the
    left convention; checked against finite differences of the mean map."""
    worst = 0.0
    for _ in range(100):
        st = _random_state(rng)
        twist = rng.standard_normal(6) * np.array([0.1] * 3 + [0.4] * 3)

        def mean_map(p, twist=twist):
            return propagate(FilterState(p, np.zeros((6, 6))), twist, DT,
                             NOISE).mean

        r = exp_so3(-twist[3:] * DT)
        analytic = np.zeros((6, 6))
        analytic[:3, :3] = r
        analytic[3:, 3:] = r
        fd = fd_state_transition(mean_map, st.mean)
        worst = max(worst, rel_error(fd, analytic))
    assert worst < 1e-4


def test_propagate_rejects_bad_dt():
    st = initialize(Pose.identity(), 0.0, 0.0)
    with pytest.raises(ValueError):
        propagate(st, np.zeros(6), 0.0, NOISE)


def test_predict_keypoints_identity_axis(intr):
    st = initialize(Pose.identity(), 0.0, 0.0)
    kps = KeypointSet(np.array([0]), np.array([[0.0, 0.0, 1.0]]))
    uv, ok, _ = predict_keypoints(st.mean, kps, intr)
    assert ok[0]
    assert np.allclose(uv[0], [intr.cx, intr.cy])


def test_predict_keypoints_matches_manual(intr, model, rng):
    kps = fps_select(model, 8)
    st = _random_state(rng)
    uv, ok, _ = predict_keypoints(st.mean, kps, intr)
    for i in range(8):
        assert ok[i]
        x, y, z = st.mean.C @ kps.points3d[i] + st.mean.t
        manual = [intr.fx * x / z + intr.cx, intr.fy * y / z + intr.cy]
        assert np.allclose(uv[i], manual, atol=1e-12)


def test_zero_noise_zero_residual(intr, model):
    gt = Pose(LOOK_DOWN, [0.0, 0.0, 0.3])
    kps = fps_select(model, 8)
    meas = _noiseless_measurement(gt, kps, intr)
    uv, _, _ = predict_keypoints(gt, kps, intr)
    assert np.allclose(meas.uv[0] - uv, 0.0, atol=1e-12)


def test_measurement_jacobian_matches_fd(intr, model, rng):
    kps = fps_select(model, 8)
    worst = 0.0
    for _ in range(100):
        st = _random_state(rng)
        blocks, ok = measurement_jacobian(st.mean, kps, intr)
        assert ok.all()
        uv0, _, _ = predict_keypoints(st.mean, kps, intr)
        u_meas = uv0 + 1.0  # arbitrary fixed measurement

        def residual(p):
            uv, _, _ = predict_keypoints(p, kps, intr)
            return (u_meas - uv).ravel()

        fd = fd_pose_jacobian(residual, st.mean, 16)
        worst = max(worst, rel_error(blocks.reshape(16, 6), fd))
    assert worst < 1e-4


def test_axial_point_depth_motion_insensitive(intr):
    st = initialize(Pose.identity(), 0.0, 0.0)
    kps = KeypointSet(np.array([0]), np.array([[0.0, 0.0, 1.0]]))
    blocks, _ = measurement_jacobian(st.mean, kps, intr)
    # translation along the optical axis barely moves the axial keypoint
    assert np.abs(blocks[0][:, 2]).max() < 1e-9
    assert np.abs(blocks[0][:, 0]).max() > 100.0


def test_keypoints_behind_camera_excluded(intr, model):
    """A keypoint the belief places behind the camera is flagged and left
    out of the update instead of raising."""
    kps = fps_select(model, 8)
    gt = Pose(LOOK_DOWN, [0.0, 0.0, 0.3])
    meas = measure(one_pose_stack(gt), kps, intr, SensingProfile(sigma_px=2.0),
                   [np.random.default_rng(1)], frame=0)
    # belief puts the object center barely in front: some keypoints land
    # behind the Z_MIN plane
    straddling = Pose(LOOK_DOWN, np.array([0.0, 0.0, 0.005]))
    st = initialize(straddling, 0.02, 0.05)
    uv, ok, _ = predict_keypoints(st.mean, kps, intr)
    assert not ok.all() and ok.any()
    assert np.all(np.isnan(uv[~ok]))
    res = update(_one_belief(st), meas, kps, intr, gate_level=1.0)
    assert res.errors == [None]
    assert not res.used[0, ~ok].any()


def test_measurement_jacobian_zero_behind_camera(intr, model):
    """At a pose that puts some keypoints behind the camera, their blocks
    are zero and the others have the bits of the blocks built for the
    points in front alone."""
    kps = fps_select(model, 8)
    straddling = Pose(LOOK_DOWN, np.array([0.0, 0.0, 0.005]))
    blocks, ok = measurement_jacobian(straddling, kps, intr)
    assert not ok.all() and ok.any()
    assert same_bits(blocks[~ok], np.zeros(((~ok).sum(), 2, 6)))
    rotated = (kps.points3d @ straddling.C.T)[ok]
    assert same_bits(blocks[ok], jacobian_blocks(
        rotated, rotated + straddling.t, intr))


def test_jacobian_linear_in_focal_length(model, rng):
    kps = fps_select(model, 8)
    st = _random_state(rng)
    k1 = Intrinsics(460.0, 460.0, 320.0, 240.0, 640, 480)
    k2 = Intrinsics(920.0, 920.0, 320.0, 240.0, 640, 480)
    b1, _ = measurement_jacobian(st.mean, kps, k1)
    b2, _ = measurement_jacobian(st.mean, kps, k2)
    assert np.allclose(b2, 2.0 * b1, atol=1e-9)


def _gate(residuals, h, p_prior, covs, level=0.999):
    """The update's per-keypoint gate, on S blocks H P H^T + covs."""
    s_blocks = h @ p_prior @ h.transpose(0, 2, 1) + covs
    return _mahalanobis_keep(residuals, s_blocks, _gate_threshold(level))


def test_gate_zero_residuals_accepted(rng):
    h = rng.standard_normal((5, 2, 6))
    covs = np.broadcast_to(np.eye(2), (5, 2, 2))
    keep = _gate(np.zeros((5, 2)), h, np.eye(6) * 1e-4, covs)
    assert keep.all()


def test_gate_rejects_gross_outlier():
    h = np.zeros((3, 2, 6))
    covs = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
    residuals = np.zeros((3, 2))
    residuals[1] = [50.0, 0.0]  # 50 sigma displacement
    keep = _gate(residuals, h, np.zeros((6, 6)), covs, level=0.999)
    assert keep.tolist() == [True, False, True]


def test_gate_level_one_accepts_all():
    h = np.zeros((2, 2, 6))
    covs = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
    residuals = np.array([[500.0, 0.0], [0.0, 1e4]])
    assert _gate(residuals, h, np.zeros((6, 6)), covs, level=1.0).all()


def test_gate_rejects_singular_block_even_at_level_one():
    """A keypoint whose 2x2 innovation block is exactly singular cannot be
    tested, so it is rejected whatever the level."""
    h = np.zeros((2, 2, 6))
    covs = np.stack([np.zeros((2, 2)), np.eye(2)])
    keep = _gate(np.zeros((2, 2)), h, np.zeros((6, 6)), covs, level=1.0)
    assert keep.tolist() == [False, True]


def test_gate_threshold_matches_scipy_chi2():
    from scipy.stats import chi2

    for level in (0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999):
        expected = float(chi2.ppf(level, df=2))
        assert abs(_gate_threshold(level) - expected) <= 1e-12 * expected
    assert _gate_threshold(1.0) == np.inf


def _noiseless_measurement(gt, kps, intr):
    return measure(one_pose_stack(gt), kps, intr, SensingProfile(sigma_px=0.0),
                   [np.random.default_rng(0)], frame=0)


def test_update_zero_residual_keeps_mean_shrinks_p(intr, model):
    gt = Pose(LOOK_DOWN, [0.0, 0.0, 0.3])
    kps = fps_select(model, 8)
    st = initialize(gt, 0.01, 0.02)
    res = update(_one_belief(st), _noiseless_measurement(gt, kps, intr), kps,
                 intr)
    assert np.allclose(res.state.mean.t[0], gt.t, atol=1e-9)
    assert np.allclose(res.state.mean.C[0], gt.C, atol=1e-9)
    assert np.trace(res.state.P[0]) <= np.trace(st.P) + 1e-15
    assert res.used.sum() == 8


def test_update_reduces_perturbed_prior_error(intr, model):
    gt = Pose(LOOK_DOWN, [0.0, 0.0, 0.3])
    kps = fps_select(model, 8)
    prior = pose_boxplus(gt, np.array([0.02, -0.008, 0.012, 0.0, 0.0, 0.0]))
    st = _one_belief(initialize(prior, 0.02, 0.05))
    res = update(st, _noiseless_measurement(gt, kps, intr), kps, intr,
                 gate_level=1.0)
    before = np.linalg.norm(prior.t - gt.t)
    after = np.linalg.norm(res.state.mean.t[0] - gt.t)
    assert after < before


def test_update_trace_never_grows(intr, model, rng):
    gt = Pose(LOOK_DOWN, [0.0, 0.0, 0.3])
    kps = fps_select(model, 8)
    prof = SensingProfile(sigma_px=2.0, anisotropy=1.5)
    st = _one_belief(initialize(gt, 0.005, 0.02))
    for k in range(50):
        st_prior = propagate(st, np.zeros((1, 6)), DT, NOISE)
        meas = measure(one_pose_stack(gt), kps, intr, prof, [rng], frame=0)
        res = update(st_prior, meas, kps, intr)
        assert res.errors == [None]
        assert np.trace(res.state.P[0]) <= np.trace(st_prior.P[0]) + 1e-12
        eig = np.linalg.eigvalsh(res.state.P[0])
        assert eig.min() > -1e-10
        st = res.state


def test_update_all_invisible_is_identity(intr, model, rng):
    gt = Pose(LOOK_DOWN, [0.0, 0.0, 0.3])
    kps = fps_select(model, 8)
    st = _one_belief(initialize(gt, 0.02, 0.05))
    meas = measure(one_pose_stack(gt), kps, intr,
                   SensingProfile(dropout_prob=1.0), [rng], frame=0)
    res = update(st, meas, kps, intr)
    assert res.n_visible[0] == 0 and not res.used.any()
    assert np.array_equal(res.state.P, st.P)


def test_update_all_rejected_flag(intr, model):
    gt = Pose(LOOK_DOWN, [0.0, 0.0, 0.3])
    kps = fps_select(model, 8)
    st = _one_belief(initialize(gt, 1e-6, 1e-6))
    meas = _noiseless_measurement(gt, kps, intr)
    shifted = Measurement(uv=meas.uv + 500.0, cov=meas.cov * 1e4,
                          visible=meas.visible)
    res = update(st, shifted, kps, intr, gate_level=0.999)
    assert not res.used.any() and res.errors[0] is None
    assert res.n_visible[0] == 8
    assert np.array_equal(res.state.P, st.P)


def test_update_singular_innovation(intr, model):
    """An ill-conditioned innovation fails the belief with
    SingularInnovation in `errors`, and its row keeps the prior."""
    gt = Pose(LOOK_DOWN, [0.0, 0.0, 0.3])
    kps = fps_select(model, 8)
    st = _one_belief(initialize(gt, 10.0, 3.0))  # enormous vs the PD floor
    res = update(st, _noiseless_measurement(gt, kps, intr), kps, intr,
                 gate_level=1.0)
    assert isinstance(res.errors[0], SingularInnovation)
    assert np.array_equal(res.state.P, st.P)


def test_update_nonfinite_innovation_raises(intr, model):
    """A NaN covariance makes the innovation non-finite; the update reports
    SingularInnovation rather than gating every keypoint away."""
    gt = Pose(LOOK_DOWN, [0.0, 0.0, 0.3])
    kps = fps_select(model, 8)
    meas = _noiseless_measurement(gt, kps, intr)
    p_nan = 1e-4 * np.eye(6)
    p_nan[2, 4] = np.nan
    for level in (1.0, 0.999):
        res = update(_one_belief(FilterState(gt, p_nan)), meas, kps, intr,
                     gate_level=level)
        assert isinstance(res.errors[0], SingularInnovation)
        assert "non-finite" in str(res.errors[0])


def test_exact_model_tracking_thousand_frames(intr, model):
    """With zero process/measurement noise and the ground truth following
    the filter's own motion model, residuals stay at zero and the mean
    tracks to better than 1e-8."""
    kps = fps_select(model, 8)
    gt = Pose(LOOK_DOWN, np.array([0.0, 0.0, 0.35]))
    st = _one_belief(initialize(gt, 0.0, 0.0))
    tiny = NoiseParams(1e-9, 1e-9)
    twist = np.array([0.004, -0.002, 0.003, 0.02, -0.03, 0.015])
    worst_t = worst_r = worst_resid = 0.0
    for k in range(1000):
        gt = propagate(FilterState(gt, np.zeros((6, 6))), twist, DT, tiny).mean
        st = propagate(st, twist[None], DT, tiny)
        meas = _noiseless_measurement(gt, kps, intr)
        uv_pred, _, _ = predict_keypoints(Pose(st.mean.C[0], st.mean.t[0]),
                                          kps, intr)
        worst_resid = max(worst_resid,
                          float(np.abs(meas.uv[0] - uv_pred).max()))
        st = update(st, meas, kps, intr).state
        err = pose_boxminus(gt, Pose(st.mean.C[0], st.mean.t[0]))
        worst_t = max(worst_t, float(np.linalg.norm(err[:3])))
        worst_r = max(worst_r, float(np.linalg.norm(err[3:])))
    assert worst_resid < 1e-6
    assert worst_t < 1e-8
    assert worst_r < 1e-8


def test_converges_from_perturbed_init_episode(model):
    """A 5 cm / 10 degree initial offset settles below 5 mm average model
    distance within 50 frames of the nominal closed loop."""
    from dataclasses import replace

    from conftest import scenario
    from ekfservo.metrics import add_metric
    from ekfservo.simulator import run_episode

    sc = scenario("nominal")
    sc = replace(sc, init_sigma_t=0.05 / np.sqrt(3), init_sigma_phi=0.1745 / np.sqrt(3),
                 max_frames=50, v_eps=1e-9)
    rec = run_episode(sc, 11)
    gt = Pose(rec.gt_C[-1], rec.gt_t[-1])
    est = Pose(rec.est_C[-1], rec.est_t[-1])
    assert add_metric(gt, est, sc.model) < 0.005
