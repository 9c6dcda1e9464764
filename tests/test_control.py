import math

import numpy as np
import pytest

from conftest import one_pose_stack
from ekfservo.control import (
    ControlConfig,
    apply_policy,
    clamp_twist,
    entropy,
    pbvs_law,
    relative_pose,
    velocity_covariance,
    velocity_jacobian,
)
from ekfservo.ekf import FilterState
from ekfservo.lie import Pose, exp_so3, log_so3, pose_boxplus
from ekfservo.simulator import LOOK_DOWN
from oracles import fd_pose_jacobian, random_rotvec, rel_error, same_bits


def _random_pose(rng, angle=0.9):
    return Pose(exp_so3(random_rotvec(rng, angle)) @ LOOK_DOWN,
                np.array([0.0, 0.0, 0.3]) + rng.uniform(-0.08, 0.08, 3))


def test_relative_pose_identity(rng):
    p = _random_pose(rng)
    rel = relative_pose(p, p)
    assert np.abs(rel.C - np.eye(3)).max() < 1e-12
    assert np.abs(rel.t).max() < 1e-12


def test_relative_pose_group_cancellation(rng):
    desired = _random_pose(rng)
    offset = _random_pose(rng, angle=0.5)
    current = offset.inverse().compose(desired)
    rel = relative_pose(desired, current)
    assert np.abs(rel.as_matrix() - offset.as_matrix()).max() < 1e-12


def test_relative_pose_matrix_oracle(rng):
    for _ in range(50):
        desired, current = _random_pose(rng), _random_pose(rng)
        rel = relative_pose(desired, current)
        oracle = desired.as_matrix() @ np.linalg.inv(current.as_matrix())
        assert np.abs(rel.as_matrix() - oracle).max() < 1e-12


def _error(desired, current):
    """The servo error pbvs_law returns for current against desired."""
    return pbvs_law(relative_pose(desired, current), 1.0)[1]


def test_pbvs_law_identity_gives_zero():
    tw, _ = pbvs_law(Pose.identity(), 0.7)
    assert np.linalg.norm(tw) == 0.0


def test_pbvs_law_translation_example():
    rel = Pose(np.eye(3), [0.2, 0.0, 0.1])
    tw, _ = pbvs_law(rel, 0.5)
    assert np.allclose(tw[:3], [-0.1, 0.0, -0.05])
    assert np.allclose(tw[3:], 0.0)


def test_pbvs_law_rotation_example():
    rel = Pose(exp_so3([0.0, 0.0, np.pi / 2]), np.zeros(3))
    tw, _ = pbvs_law(rel, 1.0)
    assert np.allclose(tw[:3], 0.0)
    assert np.allclose(tw[3:], [0.0, 0.0, -np.pi / 2], atol=1e-12)


def test_equilibrium_iff_identity(rng):
    for _ in range(20):
        rel = Pose(exp_so3(random_rotvec(rng, 1.5)), rng.standard_normal(3))
        assert np.linalg.norm(pbvs_law(rel, 1.0)[0]) > 1e-12


def test_pbvs_law_returns_the_error_it_scales(rng):
    """The law is -lam * e with the bits of -lam times each component, for
    one pose and for a stack, and e is [C_rel^T t_rel, theta*u]."""
    rels = [Pose(exp_so3(random_rotvec(rng, 2.0)), rng.standard_normal(3))
            for _ in range(20)]
    stack = Pose(np.array([r.C for r in rels]), np.array([r.t for r in rels]))
    twists, errors = pbvs_law(stack, 0.7)
    for rel, twist, error in zip(rels, twists, errors):
        tw, e = pbvs_law(rel, 0.7)
        assert same_bits(e, error) and same_bits(tw, twist)
        assert same_bits(tw, -0.7 * e)
        assert same_bits(e[3:], log_so3(rel.C))
        assert same_bits(e[:3], rel.C.T @ rel.t)


def test_clamp_preserves_direction():
    cfg = ControlConfig(lam=1.0, v_max=0.1, w_max=0.2)
    tw = np.array([0.4, -0.2, 0.0, 0.1, 0.0, 0.8])
    out = clamp_twist(tw, cfg)
    nz = tw != 0.0
    s = out[nz] / tw[nz]
    assert np.allclose(s, s[0])  # uniform scaling
    assert np.abs(out[:3]).max() <= cfg.v_max + 1e-12
    assert np.abs(out[3:]).max() <= cfg.w_max + 1e-12


def test_clamp_overshoots_a_limit_by_at_most_one_ulp():
    rng = np.random.default_rng(68)
    cfg = ControlConfig(v_max=0.4, w_max=0.4)  # 0.4 is no power of two
    bound = np.nextafter(0.4, np.inf)
    for twist in rng.standard_normal((2000, 6)):
        assert np.abs(clamp_twist(twist, cfg)).max() <= bound


def test_clamp_noop_inside_limits():
    cfg = ControlConfig()
    tw = np.array([0.01, 0.0, 0.0, 0.0, 0.02, 0.0])
    assert clamp_twist(tw, cfg) is tw


def test_velocity_jacobian_matches_fd(rng):
    worst = 0.0
    for _ in range(100):
        desired = _random_pose(rng, angle=0.3)
        state = FilterState(_random_pose(rng), 1e-4 * np.eye(6))
        cfg = ControlConfig(lam=0.7)
        jac = velocity_jacobian(_error(desired, state.mean), state.mean, cfg)

        def vel(p):
            return pbvs_law(relative_pose(desired, p), cfg.lam)[0]

        fd = fd_pose_jacobian(vel, state.mean, 6)
        worst = max(worst, rel_error(jac, fd))
    assert worst < 1e-4


def test_velocity_jacobian_translation_block(rng):
    # pure-translation relative pose: the v/dt block is lam * I
    desired = Pose(LOOK_DOWN, [0.0, 0.0, 0.15])
    current = Pose(LOOK_DOWN, [0.03, -0.02, 0.31])
    cfg = ControlConfig(lam=0.5)
    state = FilterState(current, np.eye(6) * 1e-6)
    jac = velocity_jacobian(_error(desired, current), current, cfg)
    assert np.allclose(jac[:3, :3], 0.5 * np.eye(3), atol=1e-12)

    def vel(p):
        return pbvs_law(relative_pose(desired, p), cfg.lam)[0]

    fd = fd_pose_jacobian(vel, current, 6)
    assert rel_error(jac, fd) < 1e-5


def test_velocity_jacobian_linear_in_gain(rng):
    desired = _random_pose(rng, 0.2)
    state = FilterState(_random_pose(rng), np.eye(6) * 1e-4)
    error = _error(desired, state.mean)
    j1 = velocity_jacobian(error, state.mean, ControlConfig(lam=0.5))
    j2 = velocity_jacobian(error, state.mean, ControlConfig(lam=1.5))
    assert np.allclose(j2, 3.0 * j1, atol=1e-12)


def test_velocity_covariance_basics(rng):
    p = np.eye(6) * 0.01
    assert np.allclose(velocity_covariance(np.zeros((6, 6)), p), 0.0)
    assert np.allclose(velocity_covariance(np.eye(6), p), p)
    j = rng.standard_normal((6, 6))
    cov = velocity_covariance(j, p)
    assert np.allclose(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() > -1e-12


def test_velocity_covariance_monte_carlo_pushforward(rng):
    """Linearized pushforward trace vs sampling the raw servo law with
    small tangent noise (3% tolerance, 1e5 samples)."""
    desired = _random_pose(rng, 0.3)
    mean_pose = _random_pose(rng, 0.6)
    cfg = ControlConfig(lam=0.7)
    a = rng.standard_normal((6, 6))
    p = 1e-6 * (a @ a.T + 6 * np.eye(6))  # sigma ~ 1e-3 scale
    state = FilterState(mean_pose, p)
    v0, error = pbvs_law(relative_pose(desired, mean_pose), cfg.lam)
    jac = velocity_jacobian(error, mean_pose, cfg)
    lin_trace = np.trace(velocity_covariance(jac, p))

    chol = np.linalg.cholesky(p)
    n = 100_000
    deltas = rng.standard_normal((n, 6)) @ chol.T
    acc = 0.0
    for i in range(n):
        v, _ = pbvs_law(relative_pose(desired,
                                      pose_boxplus(mean_pose, deltas[i])),
                        cfg.lam)
        acc += float(((v - v0)**2).sum())
    mc_trace = acc / n
    assert abs(mc_trace - lin_trace) / lin_trace < 0.03


def test_perfect_information_decay_rate(rng):
    """Applying the raw servo law to the true pose and integrating the
    camera exactly: both the translation error norm and the rotation
    angle shrink by at least exp(-lam*dt) per step (1e-3 slack)."""
    from ekfservo.lie import log_so3
    from ekfservo.simulator import step_dynamics

    lam, dt = 0.5, 1.0 / 30.0
    desired = Pose(LOOK_DOWN, [0.0, 0.0, 0.15])
    gt = one_pose_stack(Pose(exp_so3(random_rotvec(rng, 1.2)) @ LOOK_DOWN,
                             np.array([0.06, -0.08, 0.32])))
    bound = np.exp(-lam * dt) * (1.0 + 1e-3)
    for _ in range(400):
        rel = relative_pose(desired, gt)
        e_t0 = np.linalg.norm(rel.t)
        e_r0 = np.linalg.norm(log_so3(rel.C))
        cmd, _ = pbvs_law(rel, lam)  # no clamp
        gt, errors = step_dynamics(gt, cmd, 0.0, 0.0, dt, [rng])
        assert errors == [None]
        rel = relative_pose(desired, gt)
        if e_t0 > 1e-10:
            assert np.linalg.norm(rel.t) <= bound * e_t0
        if e_r0 > 1e-10:
            assert np.linalg.norm(log_so3(rel.C)) <= bound * e_r0


def test_entropy_identity_covariance():
    expected = 3.0 * (1.0 + math.log(2.0 * math.pi))
    assert abs(entropy(np.eye(6)) - expected) < 1e-9


def test_entropy_scaling_adds_6_ln2(rng):
    a = rng.standard_normal((6, 6))
    cov = a @ a.T + np.eye(6)
    assert abs(entropy(4.0 * cov) - entropy(cov) - 6.0 * math.log(2.0)) < 1e-9


def test_entropy_inverse_two_pi_e_is_zero():
    cov = np.eye(6) / (2.0 * math.pi * math.e)
    assert abs(entropy(cov)) < 1e-9


def test_entropy_monotone_in_scale(rng):
    a = rng.standard_normal((6, 6))
    cov = a @ a.T + 0.1 * np.eye(6)
    values = [entropy(s * cov) for s in (0.5, 1.0, 2.0, 8.0)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_entropy_singular_regularized():
    h = entropy(np.zeros((6, 6)))
    assert np.isfinite(h)
    assert h < -60.0


def test_apply_policy_below_threshold_passthrough():
    cfg = ControlConfig(lam=1.0, entropy_threshold=5.0)
    tw = np.array([0.01, -0.0, 0, 0, 0, 0.02])
    assert same_bits(apply_policy(tw, 2.0, cfg), tw)


def test_apply_policy_reduces_above_threshold():
    cfg = ControlConfig(lam=1.0, entropy_threshold=1.0, reduced_scale=0.1)
    tw = np.array([0.1, 0, 0, 0, 0, 0.2])
    assert same_bits(apply_policy(tw, 3.0, cfg), tw * 0.1)


def test_apply_policy_infinite_threshold_is_plain():
    cfg = ControlConfig(lam=1.0)
    tw = np.array([0.1, 0, 0, 0, 0, 0.2])
    assert same_bits(apply_policy(tw, 1e9, cfg), tw)


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_apply_policy_ignores_non_finite_entropy(h):
    cfg = ControlConfig(lam=1.0, entropy_threshold=-50.0)
    tw = np.array([0.1, 0, 0, 0, 0, 0.2])
    assert same_bits(apply_policy(tw, h, cfg), tw)


def test_apply_policy_scales_without_clamping():
    """The policy scales the command that the clamp bounded before it;
    it clamps nothing itself, so a twist past the limits keeps its bits."""
    cfg = ControlConfig(lam=1.0, entropy_threshold=0.0, reduced_scale=1.0,
                        v_max=0.25, w_max=0.5)
    tw = np.array([3.0, 0, 0, 0, 0, -7.0])
    assert same_bits(apply_policy(tw, -1.0, cfg), tw)
    assert same_bits(apply_policy(tw, 1.0, cfg), tw * 1.0)


def test_apply_policy_stack_rows_match_single_calls(rng):
    cfg = ControlConfig(lam=1.0, entropy_threshold=-30.0, reduced_scale=0.3)
    tws = rng.standard_normal((40, 6)) * 0.2
    tws[0] = -0.0
    ents = rng.uniform(-35.0, -25.0, 40)
    ents[:4] = math.nan, math.inf, -math.inf, -30.0
    out = apply_policy(tws, ents, cfg)
    assert out.shape == (40, 6)
    fired = ents > -30.0
    fired[1] = False
    assert 5 < fired.sum() < 35
    assert same_bits(out[fired], tws[fired] * 0.3)
    assert same_bits(out[~fired], tws[~fired])
    for i in range(40):
        assert same_bits(out[i], apply_policy(tws[i], float(ents[i]), cfg))


def test_apply_policy_never_amplifies(rng):
    """A factor in [0, 1] never raises a component's magnitude, so a
    clamped command stays within whatever bound the clamp gave it."""
    for _ in range(50):
        cfg = ControlConfig(lam=1.0, entropy_threshold=rng.uniform(-50, 50),
                            reduced_scale=rng.uniform(0.0, 1.0),
                            v_max=rng.uniform(0.05, 1.0),
                            w_max=rng.uniform(0.05, 1.0))
        mean = clamp_twist(np.concatenate([rng.standard_normal(3) * 0.3,
                                           rng.standard_normal(3) * 0.6]),
                           cfg)
        out = apply_policy(mean, rng.uniform(-60, 60), cfg)
        assert np.all(np.abs(out) <= np.abs(mean))


def test_control_config_validation():
    with pytest.raises(ValueError):
        ControlConfig(lam=0.0)
    with pytest.raises(ValueError):
        ControlConfig(reduced_scale=1.5)
    with pytest.raises(ValueError):
        ControlConfig(v_max=0.0)
