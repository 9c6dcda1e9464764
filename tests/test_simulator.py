from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

import ekfservo.simulator as sim
from conftest import one_pose_stack, scenario
from ekfservo.camera import Z_MIN
from ekfservo.control import clamp_twist
from ekfservo.ekf import FilterState
from ekfservo.keypoints import ObjectModel, SensingProfile, fps_select
from ekfservo.lie import Pose, exp_se3, log_so3, pose_boxminus
from ekfservo.simulator import (
    LOOK_DOWN,
    InfeasibleScenario,
    PoseSampler,
    geodesic_reference,
    run_batch,
    run_episode,
    sample_poses,
    step_dynamics,
)
from oracles import same_bits, same_record


def _compact_model():
    pts = np.array([[0.01, 0, 0], [-0.01, 0, 0], [0, 0.01, 0],
                    [0, -0.01, 0], [0, 0, 0.01], [0, 0, -0.01]])
    return ObjectModel.from_points(pts)


def test_zero_variation_sampler_is_canonical(nominal_scenario, rng):
    sc = replace(nominal_scenario,
                 initial_pose=PoseSampler(0.30, 0.0, 0.0),
                 desired_pose=PoseSampler(0.15, 0.0, 0.0))
    kps = fps_select(sc.model, sc.n_keypoints)
    initial, desired = sample_poses(sc, kps, rng)
    assert np.allclose(initial.C, LOOK_DOWN, atol=1e-12)
    assert np.allclose(initial.t, [0.0, 0.0, 0.30], atol=1e-12)
    assert np.allclose(desired.C, LOOK_DOWN, atol=1e-12)
    assert np.allclose(desired.t, [0.0, 0.0, 0.15], atol=1e-12)


def test_sampled_rotation_angles_uniform(nominal_scenario):
    """|angle| of the sampled orientation offsets is uniform on [0, 75 deg];
    compact model + no translation jitter means no resampling distortion."""
    sc = replace(nominal_scenario, model=_compact_model(), n_keypoints=6,
                 initial_pose=PoseSampler(0.30, 0.0, 75.0))
    kps = fps_select(sc.model, sc.n_keypoints)
    rng = np.random.default_rng(2024)
    angles = []
    for _ in range(10_000):
        initial, _ = sample_poses(sc, kps, rng)
        angles.append(np.linalg.norm(log_so3(initial.C @ LOOK_DOWN.T)))
    angles = np.array(angles) / np.deg2rad(75.0)
    assert angles.max() <= 1.0 + 1e-9
    stat = kstest(angles, "uniform")
    assert stat.pvalue > 1e-3


def test_sampled_initial_poses_keep_object_in_front(nominal_scenario):
    sc = nominal_scenario
    kps = fps_select(sc.model, sc.n_keypoints)
    rng = np.random.default_rng(5)
    for _ in range(500):
        initial, _ = sample_poses(sc, kps, rng)
        assert initial.apply(kps.points3d)[:, 2].min() > Z_MIN


def test_sampler_supports_wider_grasping_rotations(nominal_scenario):
    """The rotation range extends to +/-105 degrees via configuration."""
    sc = replace(nominal_scenario, model=_compact_model(), n_keypoints=6,
                 initial_pose=PoseSampler(0.30, 0.0, 105.0))
    kps = fps_select(sc.model, sc.n_keypoints)
    rng = np.random.default_rng(8)
    angles = []
    for _ in range(500):
        initial, _ = sample_poses(sc, kps, rng)
        angles.append(np.degrees(np.linalg.norm(log_so3(initial.C @ LOOK_DOWN.T))))
    angles = np.array(angles)
    assert angles.max() <= 105.0 + 1e-6
    assert (angles > 75.0).any()


def test_sample_poses_infeasible(nominal_scenario, rng):
    sc = replace(nominal_scenario,
                 # 1 mm away: the keypoints project far outside the image
                 initial_pose=PoseSampler(0.001, 0.0, 0.0))
    kps = fps_select(sc.model, sc.n_keypoints)
    with pytest.raises(InfeasibleScenario):
        sample_poses(sc, kps, rng)


def test_step_dynamics_zero_twist(rng):
    gt = Pose(LOOK_DOWN, [0.0, 0.0, 0.3])
    out, errors = step_dynamics(one_pose_stack(gt), np.zeros((1, 6)), 0.0,
                                0.0, 1.0 / 30.0, [rng])
    assert errors == [None]
    assert np.allclose(out.C[0], gt.C, atol=1e-15)
    assert np.allclose(out.t[0], gt.t, atol=1e-15)


def test_step_dynamics_matches_filter_model_first_order(rng):
    """One noise-free step with small dt matches the filter's discrete
    motion model to 1e-6 (the model drops the rotation-translation
    coupling, a second-order-in-dt term)."""
    gt = Pose(LOOK_DOWN, np.array([0.02, -0.01, 0.3]))
    tw = np.array([0.2, -0.1, 0.15, 0.6, 0.3, -0.4])
    dt = 1e-3
    out, _ = step_dynamics(one_pose_stack(gt), tw[None], 0.0, 0.0, dt, [rng])
    from ekfservo.lie import exp_so3

    r = exp_so3(-tw[3:] * dt)
    t_model = r @ gt.t - tw[:3] * dt
    c_model = r @ gt.C
    assert np.abs(out.t[0] - t_model).max() < 1e-6
    assert np.abs(out.C[0] - c_model).max() < 1e-6


def test_step_dynamics_rotation_preserves_range(rng):
    gt = Pose(LOOK_DOWN, np.array([0.0, 0.0, 0.3]))
    tw = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.8])
    out, _ = step_dynamics(one_pose_stack(gt), tw[None], 0.0, 0.0, 0.5, [rng])
    assert abs(np.linalg.norm(out.t[0]) - np.linalg.norm(gt.t)) < 1e-12


def test_step_dynamics_exact_se3_integration(rng):
    gt = Pose(LOOK_DOWN, np.array([0.01, 0.02, 0.4]))
    tw = np.array([0.1, -0.05, 0.2, 0.3, -0.2, 0.25])
    dt = 0.2
    out, _ = step_dynamics(one_pose_stack(gt), tw[None], 0.0, 0.0, dt, [rng])
    t_wc = gt.inverse().as_matrix()
    d_c, d_t = exp_se3(tw, dt)
    step = np.eye(4)
    step[:3, :3] = d_c
    step[:3, 3] = d_t
    expected = np.linalg.inv(t_wc @ step)
    assert np.abs(out.C[0] - expected[:3, :3]).max() < 1e-12
    assert np.abs(out.t[0] - expected[:3, 3]).max() < 1e-12


def test_single_frame_episode(nominal_scenario):
    sc = replace(nominal_scenario, max_frames=1)
    rec = run_episode(sc, 3)
    assert rec.frames == 1
    assert not rec.converged


def test_motion_prior_is_previous_command(nominal_scenario, monkeypatch):
    """The twist handed to the propagation step at frame k+1 must be the
    twist commanded at frame k."""
    captured = []
    real_propagate = sim.propagate

    def spy(state, twist, dt, noise):
        captured.extend(np.array(twist, dtype=float))  # one row per trial
        return real_propagate(state, twist, dt, noise)

    monkeypatch.setattr(sim, "propagate", spy)
    sc = replace(nominal_scenario, max_frames=40)
    rec = run_episode(sc, 9)
    assert len(captured) == rec.frames - 1
    for k, twist in enumerate(captured):
        assert np.array_equal(twist, rec.cmd[k])


def test_occlusion_window_coasting(nominal_scenario):
    """A full-dropout window mid-episode: the filter coasts on the motion
    prior and the episode still succeeds under nominal noise."""
    from ekfservo.metrics import success

    blt = replace(nominal_scenario.sensing, blackout_frames=(30, 60))
    sc = replace(nominal_scenario, sensing=blt)
    for seed in (1, 2, 3):
        rec = run_episode(sc, seed)
        assert rec.n_visible[35] == 0  # window active
        assert success(rec, sc.model)


def test_reduced_command_does_not_hold_a_moving_trial():
    """With the entropy policy on, seeds 91, 96 and 101 of
    occlusion_policy.json have their commands cut tenfold, below v_eps,
    inside the blackout while the servo law still asks for more. The hold
    test reads the clamped command from before that cut, so these trials
    run on past the blackout, and each converges on a clamped command that
    stayed below v_eps for its last k_hold frames."""
    sc = scenario("occlusion_policy")
    start, stop = sc.sensing.blackout_frames
    for rec in sim.run_episodes(sc, [91, 96, 101]):
        assert (rec.entropy[start:stop] > sc.control.entropy_threshold).any()
        assert rec.converged and rec.frames > stop
        held = [clamp_twist(raw, sc.control) for raw in rec.raw[-sc.k_hold:]]
        assert all(np.linalg.norm(cmd) < sc.v_eps for cmd in held)


def test_batch_zero_trials(nominal_scenario):
    res = run_batch(nominal_scenario, 0)
    assert res.records == []
    assert res.summary.trials == 0
    assert res.summary.sr_percent == 0.0
    assert res.summary.te_mm_mean is None


def test_batch_parallelism_deterministic(nominal_scenario):
    sc = replace(nominal_scenario, max_frames=60, v_eps=1e-9)
    serial = run_batch(sc, 4, parallelism=1)
    parallel = run_batch(sc, 4, parallelism=2)
    assert serial.summary == parallel.summary
    for a, b in zip(serial.records, parallel.records):
        assert np.array_equal(a.gt_t, b.gt_t)
        assert np.array_equal(a.est_t, b.est_t)
        assert np.array_equal(a.cmd, b.cmd)
        assert np.array_equal(a.P, b.P)


def test_batch_counts_failed_episodes(nominal_scenario):
    # zero-noise sensing with an enormous prior forces a singular
    # innovation on the first update
    sc = replace(nominal_scenario,
                 sensing=SensingProfile(sigma_px=0.0),
                 init_sigma_t=10.0, init_sigma_phi=2.0, max_frames=5)
    res = run_batch(sc, 3)
    assert len(res.records) == 3  # failed episodes stay in the batch
    assert res.summary.failures >= 1
    assert res.summary.successes == 0
    failed = [rec for rec in res.records if rec.failure]
    assert failed and "innovation" in failed[0].failure


def test_nonfinite_covariance_fails_episode_not_batch(nominal_scenario,
                                                      monkeypatch):
    """A propagation that leaves a NaN covariance fails each episode at its
    next update, with a labelled reason; the batch itself completes."""
    real_propagate = sim.propagate

    def poisoned(state, twist, dt, noise):
        out = real_propagate(state, twist, dt, noise)
        return FilterState(out.mean, np.full_like(out.P, np.nan))

    monkeypatch.setattr(sim, "propagate", poisoned)
    res = run_batch(replace(nominal_scenario, max_frames=20), 3)
    assert res.summary.failures == 3
    for rec in res.records:
        assert rec.failure == "frame 1: non-finite innovation"
        assert rec.frames == 1


@pytest.mark.parametrize("poisoned", ["propagate", "entropy"])
def test_nonfinite_covariance_in_blackout_fails_its_trial(monkeypatch,
                                                          poisoned):
    """During occlusion's blackout no update runs, so no innovation test
    sees the covariance. A NaN covariance poisoned into trial 1 there, or
    a NaN twist entropy, still fails that trial at that frame, and the
    other trials equal their solo runs."""
    sc = replace(scenario("occlusion"), max_frames=45)
    assert sc.variant == "coupled-ekf"
    assert sc.sensing.blackout_frames == (8, 38)
    solo = [run_episode(sc, sc.seed + i) for i in range(3)]
    real = getattr(sim, poisoned)
    calls = []

    def propagate(state, twist, dt, noise):
        out = real(state, twist, dt, noise)
        calls.append(None)
        if len(calls) == 12:  # frame 12, all three trials active
            p = out.P.copy()
            p[1] = np.nan
            return FilterState(out.mean, p)
        return out

    def entropy(cov):
        calls.append(None)
        out = real(cov)
        # one stacked call per frame, a row per active trial: trial 1 of
        # frame 12
        if len(calls) == 13:
            out[1] = np.nan
        return out

    monkeypatch.setattr(sim, poisoned, locals()[poisoned])
    with np.errstate(invalid="ignore"):  # slogdet of the NaN twist cov
        res = run_batch(sc, 3)
    assert res.records[1].failure == ("frame 12: non-finite covariance "
                                      "or entropy")
    assert res.records[1].frames == 12
    for i in (0, 2):
        assert same_record(res.records[i], solo[i]), i


def test_geodesic_reference_self_ratio(nominal_scenario):
    from ekfservo.metrics import length_ratio

    initial = Pose(LOOK_DOWN, [0.05, -0.03, 0.31])
    desired = Pose(LOOK_DOWN, [0.0, 0.0, 0.15])
    ref = geodesic_reference(initial, desired, replace(
        nominal_scenario, v_eps=1e-4, k_hold=10, max_frames=1000))
    assert ref.shape[0] > 10
    assert abs(length_ratio(ref, ref) - 1.0) < 1e-9


def test_scenario_validation(nominal_scenario):
    with pytest.raises(ValueError):
        replace(nominal_scenario, dt=0.0)
    with pytest.raises(ValueError):
        replace(nominal_scenario, variant="other")
    with pytest.raises(ValueError):
        replace(nominal_scenario, n_keypoints=2)


def test_episode_variant_none_is_pure_tracking(nominal_scenario):
    sc = replace(nominal_scenario, variant="none", max_frames=30)
    rec = run_episode(sc, 4)
    assert rec.frames == 30
    assert not rec.converged
    assert np.all(rec.cmd == 0.0)
    # the filter still tracks
    err = pose_boxminus(Pose(rec.gt_C[-1], rec.gt_t[-1]),
                        Pose(rec.est_C[-1], rec.est_t[-1]))
    assert np.linalg.norm(err[:3]) < 0.01


def test_step_failure_fails_its_trial(nominal_scenario, monkeypatch):
    """A dynamics step that raises inside the stack is redone one trial at
    a time with the noise already drawn: only the trial whose own step
    raises fails, labelled with its frame, and the others equal their
    solo runs."""
    sc = replace(nominal_scenario, max_frames=12)
    solo = [run_episode(sc, sc.seed + i) for i in range(3)]
    real = sim._advance
    calls = []

    def advance(c_co, t_co, xi, dt):
        calls.append(len(c_co))
        # the stacked step of frame 5, then trial 1's step alone
        if len(calls) in (6, 8):
            raise np.linalg.LinAlgError("poisoned")
        return real(c_co, t_co, xi, dt)

    monkeypatch.setattr(sim, "_advance", advance)
    records = sim.run_episodes(sc, [sc.seed + i for i in range(3)])
    assert calls[5:9] == [3, 1, 1, 1]
    assert records[1].failure == "frame 5: LinAlgError: poisoned"
    assert records[1].frames == 6
    assert np.array_equal(records[1].final_gt.t, records[1].gt_t[5])
    for i in (0, 2):
        assert same_record(records[i], solo[i]), i


def test_step_failure_returns_its_row_unmoved():
    """In a stack of three poses with one command row at 1e300, that row
    comes back unmoved with its LinAlgError in `errors`, and the other two
    rows have the bits of their own stacks of one."""
    gt = Pose(np.repeat(LOOK_DOWN[None], 3, axis=0),
              np.array([[0.0, 0.0, 0.3], [0.01, -0.02, 0.25],
                        [-0.03, 0.01, 0.35]]))
    cmd = np.repeat([[0.1, -0.05, 0.2, 0.3, -0.2, 0.25]], 3, axis=0)
    cmd[1] = 1e300
    args = (0.01, 0.02, 1.0 / 30.0)
    with np.errstate(over="ignore", invalid="ignore"):
        out, errors = step_dynamics(
            gt, cmd, *args, [np.random.default_rng(i) for i in range(3)])
    assert isinstance(errors[1], np.linalg.LinAlgError)
    assert same_bits(out.C[1], gt.C[1]) and same_bits(out.t[1], gt.t[1])
    for i in (0, 2):
        one = slice(i, i + 1)
        alone, alone_errors = step_dynamics(
            Pose(gt.C[one], gt.t[one]), cmd[one], *args,
            [np.random.default_rng(i)])
        assert errors[i] is None and alone_errors == [None]
        assert same_bits(out.C[i], alone.C[0])
        assert same_bits(out.t[i], alone.t[0])


def test_huge_dt_fails_each_trial_with_its_label():
    """dt = 1e300 overflows the first dynamics step of every trial: each
    fails at frame 0 with numpy's exception named, and the batch ends."""
    sc = replace(scenario("nominal"), dt=1e300)
    with np.errstate(all="ignore"):
        res = run_batch(sc, 2)
    assert res.summary.failures == 2
    for rec in res.records:
        assert rec.failure.startswith("frame 0: LinAlgError: ")
        assert rec.frames == 1


def test_control_takes_one_rotation_log_per_trial_frame(monkeypatch):
    """The servo law forms the servo error once per trial-frame and the
    velocity Jacobian reads it: the control module takes one rotation log
    per recorded trial-frame, not a second one for the Jacobian."""
    import ekfservo.control as control

    logs = [0]
    real = control.log_so3

    def counting_log_so3(c):
        logs[0] += 1 if np.ndim(c) == 2 else len(c)
        return real(c)

    monkeypatch.setattr(control, "log_so3", counting_log_so3)
    sc = replace(scenario("adverse"), variant="coupled-ekf", max_frames=40)
    records = sim.run_episodes(sc, [42, 43, 44])
    frames = sum(rec.frames for rec in records)
    assert frames == 120
    assert logs[0] == frames
