"""The servo loop's kernels against the reference implementations in
oracles.py: bit-identical relative poses, control Jacobians, twist
covariances and entropies, clamps, SE(3) steps, geodesic rollouts, NEES
and correlation on calls recorded from every shipped scenario, and
bit-identical SO(3), quaternion, covariance-clamp and control-chain
kernels on seeded inputs near 0 and near pi. The control chain runs on a
stack of the active trials, so each of its stacked rows is checked
against the single call and the reference."""
import copy
from dataclasses import replace

import numpy as np
import pytest

import ekfservo.ekf as ekf
import ekfservo.simulator as sim
from conftest import one_pose_stack, scenario
from ekfservo.control import (
    ControlConfig,
    clamp_twist,
    entropy,
    pbvs_law,
    relative_pose,
    velocity_covariance,
    velocity_jacobian,
)
from ekfservo.ekf import FilterState
from ekfservo.lie import (
    _JAC_SERIES_EPS,
    Pose,
    clamp_psd,
    exp_so3,
    log_so3,
    orthonormalize,
    right_jacobian_inv,
    rotation_to_quaternion,
)
from ekfservo.metrics import nees, uncertainty_correlation
from ekfservo.simulator import geodesic_reference, step_dynamics
from oracles import (
    clamp_psd_reference,
    clamp_twist_reference,
    entropy_reference,
    geodesic_reference_reference,
    log_so3_reference,
    nees_reference,
    orthonormalize_reference,
    relative_pose_reference,
    right_jacobian_inv_reference,
    rotation_to_quaternion_reference,
    same_bits,
    shuffled_stacks,
    step_dynamics_reference,
    uncertainty_correlation_reference,
    velocity_covariance_reference,
    velocity_jacobian_reference,
)

pytestmark = pytest.mark.oracle

SHIPPED = ("adverse", "consistency", "correlation", "noise_free", "nominal",
           "occlusion")
RECORDED_FRAMES = 60
BATCH = 3


def _same_pose(a, b) -> bool:
    return same_bits(a.C, b.C) and same_bits(a.t, b.t)


@pytest.fixture(scope="module")
def recorded():
    """Arguments of the loop's relative_pose, clamp_twist, step_dynamics,
    clamp_psd and stacked control-chain calls over the first frames of a
    lockstep batch of BATCH coupled-EKF trials per shipped scenario, the
    first trial's records, and the scenarios at full length."""
    calls = {"relative_pose": [], "clamp_twist": [], "step_dynamics": [],
             "clamp_psd": [], "chain": []}
    real = {"relative_pose": sim.relative_pose,
            "clamp_twist": sim.clamp_twist,
            "step_dynamics": sim.step_dynamics,
            "clamp_psd": ekf.clamp_psd,
            "velocity_jacobian": sim.velocity_jacobian,
            "velocity_covariance": sim.velocity_covariance}
    desired = []  # this frame's relative_pose targets, one per live row

    def spy_relative_pose(desired_pose, current):
        calls["relative_pose"].append((desired_pose, current))
        desired.append(desired_pose)
        return real["relative_pose"](desired_pose, current)

    # the chain runs once per frame on the servo errors of the rows whose
    # relative pose this frame computed, in the same order
    def spy_velocity_jacobian(error, current, cfg):
        assert len(desired) == len(error)
        calls["chain"].append([list(desired), error, current, cfg])
        desired.clear()
        return real["velocity_jacobian"](error, current, cfg)

    def spy_velocity_covariance(jac, p):
        calls["chain"][-1].append(p)
        return real["velocity_covariance"](jac, p)

    def spy_clamp_twist(twist, cfg):
        calls["clamp_twist"].append((twist, cfg))
        return real["clamp_twist"](twist, cfg)

    # step_dynamics and clamp_psd are called on stacks, one row per
    # trial; each row is recorded as the single call it stands for
    def spy_step_dynamics(gt, cmd, sigma_v, sigma_w, dt, rngs):
        for j, rng in enumerate(rngs):
            state = copy.deepcopy(rng.bit_generator.state)
            calls["step_dynamics"].append((
                Pose(gt.C[j], gt.t[j]), cmd[j].copy(), sigma_v,
                sigma_w, dt, state))
        return real["step_dynamics"](gt, cmd, sigma_v, sigma_w, dt, rngs)

    def spy_clamp_psd(m):
        calls["clamp_psd"].extend(np.array(m))
        return real["clamp_psd"](m)

    sim.relative_pose = spy_relative_pose
    sim.clamp_twist = spy_clamp_twist
    sim.step_dynamics = spy_step_dynamics
    ekf.clamp_psd = spy_clamp_psd
    sim.velocity_jacobian = spy_velocity_jacobian
    sim.velocity_covariance = spy_velocity_covariance
    records, full = [], []
    try:
        for name in SHIPPED:
            sc = replace(scenario(name), variant="coupled-ekf")
            batch = sim.run_episodes(replace(sc, max_frames=RECORDED_FRAMES),
                                     [sc.seed + i for i in range(BATCH)])
            records.append(batch[0])
            full.append(sc)
    finally:
        sim.relative_pose = real["relative_pose"]
        sim.clamp_twist = real["clamp_twist"]
        sim.step_dynamics = real["step_dynamics"]
        ekf.clamp_psd = real["clamp_psd"]
        sim.velocity_jacobian = real["velocity_jacobian"]
        sim.velocity_covariance = real["velocity_covariance"]
    return calls, records, full


def _check_chain(desired, error, current, p, cfg) -> int:
    """velocity_jacobian, velocity_covariance and entropy on stacks of
    servo errors, current poses and covariances: row i has the bits of
    the single call on row i, and that call the bits of the reference,
    which forms the relative pose and the error again from desired and
    current. Returns the number of rows whose entropy took the +1e-12 I
    retry."""
    with np.errstate(invalid="ignore"):  # slogdet of a non-finite row
        jac = velocity_jacobian(error, current, cfg)
        cov = velocity_covariance(jac, p)
        ent = entropy(cov)
        assert jac.shape == (len(desired), 6, 6)
        assert ent.shape == (len(desired),)
        for i, want in enumerate(desired):
            one = Pose(current.C[i], current.t[i])
            jac_i = velocity_jacobian(error[i], one, cfg)
            assert same_bits(jac[i], jac_i)
            assert same_bits(jac_i, velocity_jacobian_reference(
                want, FilterState(one, None), cfg))
            cov_i = velocity_covariance(jac_i, p[i])
            assert same_bits(cov[i], cov_i)
            assert same_bits(cov_i, velocity_covariance_reference(jac_i,
                                                                  p[i]))
            ent_i = entropy(cov_i)
            assert same_bits(ent[i], ent_i)
            assert same_bits(ent_i, entropy_reference(cov_i))
        sign, logdet = np.linalg.slogdet(0.5 * (cov + cov.swapaxes(1, 2)))
    return int(np.count_nonzero((sign <= 0) | ~np.isfinite(logdet)))


def test_relative_pose_and_jacobian_bit_identical(recorded):
    calls, _, _ = recorded
    assert len(calls["relative_pose"]) > 100
    cfg = ControlConfig(lam=0.7)
    for desired, current in calls["relative_pose"]:
        rel = relative_pose(desired, current)
        assert _same_pose(rel, relative_pose_reference(desired, current))
        _, error = pbvs_law(rel, cfg.lam)
        ref = velocity_jacobian_reference(desired, FilterState(current, None),
                                          cfg)
        assert same_bits(velocity_jacobian(error, current, cfg), ref)


def test_control_chain_stacks_bit_identical_on_recorded(recorded):
    calls, _, _ = recorded
    chain = calls["chain"]
    assert len(chain) > 100
    assert sum(len(desired) == BATCH for desired, *_ in chain) > 100
    for desired, error, current, cfg, p in chain:
        _check_chain(desired, error, current, p, cfg)


def test_clamp_twist_bit_identical(recorded):
    calls, _, _ = recorded
    scaled = 0
    for twist, cfg in calls["clamp_twist"]:
        new, ref = clamp_twist(twist, cfg), clamp_twist_reference(twist, cfg)
        assert same_bits(new, ref)
        assert (new is twist) == (ref is twist)
        scaled += new is not twist
    assert scaled > 0  # the recorded calls reach the scaling branch


def test_step_dynamics_bit_identical(recorded):
    calls, _, _ = recorded
    assert len(calls["step_dynamics"]) > 100
    for gt, cmd, sigma_v, sigma_w, dt, state in calls["step_dynamics"]:
        rng_new, rng_ref = np.random.default_rng(), np.random.default_rng()
        rng_new.bit_generator.state = state
        rng_ref.bit_generator.state = state
        new, errors = step_dynamics(one_pose_stack(gt), cmd[None], sigma_v,
                                    sigma_w, dt, [rng_new])
        ref = step_dynamics_reference(gt, cmd, sigma_v, sigma_w, dt, rng_ref)
        assert errors == [None]
        assert _same_pose(new, one_pose_stack(ref))
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_geodesic_reference_bit_identical(recorded):
    _, records, full = recorded
    for rec, sc in zip(records, full):
        new = geodesic_reference(rec.initial_gt, rec.desired, sc)
        assert len(new) > 10
        assert same_bits(new, geodesic_reference_reference(
            rec.initial_gt, rec.desired, sc.control, sc.dt, sc.v_eps,
            sc.k_hold, sc.max_frames))


def test_metrics_bit_identical(recorded):
    _, records, full = recorded
    gappy = copy.deepcopy(records[0])  # frames a per-frame baseline leaves
    gappy.P[::3] = np.nan
    gappy.entropy[::4] = np.nan
    records = records + [gappy]
    res = nees(records)
    mean, count = nees_reference(records)
    assert same_bits(res.mean, mean) and res.count == count
    for lam in sorted({sc.control.lam for sc in full}):
        assert same_bits(uncertainty_correlation(records, lam),
                         uncertainty_correlation_reference(records, lam))


def test_clamp_psd_bit_identical_on_recorded(recorded):
    calls, _, _ = recorded
    assert len(calls["clamp_psd"]) > 100
    for m in calls["clamp_psd"]:
        assert same_bits(clamp_psd(m), clamp_psd_reference(m))


def _symmetric_with_eigenvalues(rng, eigs):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))
    return (q * np.asarray(eigs, dtype=float)) @ q.T


def test_clamp_psd_bit_identical_on_edge_cases():
    rng = np.random.default_rng(30)
    cases = [np.zeros((6, 6)),
             _symmetric_with_eigenvalues(rng, [1e-2, 1e-3, 1e-4, 1e-5, 0, 0]),
             _symmetric_with_eigenvalues(rng, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6,
                                              -1e-20]),
             _symmetric_with_eigenvalues(rng, [1.0, 1.0, 1.0, 1.0, 1.0,
                                              -1e-3]),
             np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-300]),
             np.full((6, 6), np.nan)]
    nan_entry = _symmetric_with_eigenvalues(rng, np.arange(1.0, 7.0))
    nan_entry[4, 1] = np.nan
    cases.append(nan_entry)
    for _ in range(500):
        a = rng.standard_normal((6, 6)) * 10.0**rng.uniform(-6, 0)
        cases.append(a @ a.T + 1e-14 * rng.standard_normal((6, 6)))
    # smallest eigenvalue within rounding of 0: a Cholesky factorization of
    # s itself often succeeds where eigh finds a negative eigenvalue
    for _ in range(1000):
        tiny = 10.0**rng.uniform(-19, -14) * rng.choice([-1.0, 1.0])
        cases.append(_symmetric_with_eigenvalues(
            rng, [1.0, 0.5, 0.1, 1e-2, 1e-3, tiny]))
    clamped = 0
    for m in cases:
        new, ref = _outcome(clamp_psd, m), _outcome(clamp_psd_reference, m)
        assert same_bits(new, ref)
        clamped += not same_bits(ref, 0.5 * (m + m.T))
    assert clamped > 100
    # stacked, the same cases in shuffled stacks of 7: a stack mixes slices
    # that factorize with slices that make the stacked Cholesky raise
    finite = [m for m in cases if np.isfinite(m).all()]
    order = rng.permutation(len(finite))
    for start in range(0, len(finite), 7):
        stack = np.array([finite[i] for i in order[start:start + 7]])
        for got, m in zip(clamp_psd(stack), stack, strict=True):
            assert same_bits(got, clamp_psd_reference(m))


def _outcome(fn, m):
    """The result, or the name of the LinAlgError eigh raises on NaN."""
    try:
        return fn(m)
    except np.linalg.LinAlgError:
        return np.array("LinAlgError")


def _rotvecs_near(rng, n, lo, hi, offset=0.0, sign=1.0):
    """Random axes times offset + sign * (angles log-uniform in [lo, hi])."""
    axes = rng.standard_normal((n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = offset + sign * np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return axes * angles[:, None]


def _seeded_rotvecs():
    rng = np.random.default_rng(31)
    return np.concatenate([
        rng.uniform(-1.0, 1.0, (8000, 3)) * np.pi / np.sqrt(3.0),
        _rotvecs_near(rng, 4000, 1e-12, 1e-2),
        _rotvecs_near(rng, 4000, 1e-15, 1e-2, offset=np.pi, sign=-1.0),
        _rotvecs_near(rng, 2000, 0.5 * _JAC_SERIES_EPS,
                      2.0 * _JAC_SERIES_EPS),
    ])


def test_log_so3_bit_identical_near_0_and_pi():
    rng = np.random.default_rng(32)
    mats = [exp_so3(phi) for phi in _seeded_rotvecs()]
    for _ in range(200):  # exact half turns: symmetric, no antisymmetric part
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        mats.append(2.0 * np.outer(axis, axis) - np.eye(3))
    mats += [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]
    for c in mats:
        assert same_bits(log_so3(c), log_so3_reference(c))


def test_right_jacobian_inv_bit_identical_near_0_and_pi():
    for phi in _seeded_rotvecs():
        assert same_bits(right_jacobian_inv(phi),
                         right_jacobian_inv_reference(phi))


def test_right_jacobian_inv_stacks_bit_identical_near_0_and_pi():
    """Shuffled stacks of 7 mix series, closed-form and near-pi rows;
    stacks of one too."""
    rng = np.random.default_rng(36)
    phis = _seeded_rotvecs()
    stacks = shuffled_stacks(rng, phis) + [phis[i:i + 1] for i in
                                           rng.choice(len(phis), 200)]
    for stack in stacks:
        got = right_jacobian_inv(stack)
        assert got.shape == (len(stack), 3, 3)
        for row, phi in zip(got, stack, strict=True):
            assert same_bits(row, right_jacobian_inv(phi))
            assert same_bits(row, right_jacobian_inv_reference(phi))


def _spd(rng, scale):
    a = rng.standard_normal((6, 6)) * scale
    return a @ a.T


def test_control_chain_stacks_bit_identical_near_0_and_pi():
    """Relative rotations with angles below _JAC_SERIES_EPS, in the closed
    form's range and within 1e-4 of pi; covariances that are positive
    definite, singular (entropy's +1e-12 I retry) or non-finite; in
    shuffled stacks of 7 and in stacks of one."""
    rng = np.random.default_rng(37)
    cfg = ControlConfig(lam=0.7)
    phis = _seeded_rotvecs()[::5]
    desired, errors, currents, covs = [], [], [], []
    for phi in phis:
        current = Pose(exp_so3(rng.standard_normal(3)),
                       rng.standard_normal(3))
        want = Pose(exp_so3(phi) @ current.C, rng.standard_normal(3))
        desired.append(want)
        errors.append(pbvs_law(relative_pose(want, current), cfg.lam)[1])
        currents.append(current)
        kind = rng.integers(6)
        if kind == 0:  # singular: slogdet's sign is 0
            p = np.zeros((6, 6))
        elif kind == 1:  # rank deficient
            v = rng.standard_normal((6, 3))
            p = v @ v.T
        elif kind == 2:  # non-finite
            p = _spd(rng, 1e-2)
            p[rng.integers(6), rng.integers(6)] = rng.choice([np.nan, np.inf])
        else:
            p = _spd(rng, 10.0**rng.uniform(-4, 0))
        covs.append(p)
    angles = np.linalg.norm(np.array(errors)[:, 3:], axis=1)
    assert (angles < _JAC_SERIES_EPS).sum() > 50
    assert (angles > np.pi - 1e-4).sum() > 50
    covs = np.array(covs)
    stacks = shuffled_stacks(rng, np.arange(len(errors)))
    stacks += [np.array([i]) for i in rng.choice(len(errors), 100)]
    retried = 0
    for idx in stacks:
        pick = idx.tolist()
        current = Pose(np.array([currents[i].C for i in pick]),
                       np.array([currents[i].t for i in pick]))
        retried += _check_chain([desired[i] for i in pick],
                                np.array([errors[i] for i in pick]), current,
                                covs[idx], cfg)
    assert retried > 200


def test_rotation_to_quaternion_bit_identical():
    """All four branches: positive trace, and each diagonal entry largest."""
    mats = [exp_so3(phi) for phi in _seeded_rotvecs()]
    branches = set()
    for c in mats:
        assert same_bits(rotation_to_quaternion(c),
                         rotation_to_quaternion_reference(c))
        d = np.diag(c)
        branches.add(-1 if np.trace(c) > 0.0 else int(np.argmax(d)))
    assert branches == {-1, 0, 1, 2}


def test_orthonormalize_bit_identical():
    """Near-rotations with drift, and improper matrices whose SVD product
    needs its sign fixed."""
    rng = np.random.default_rng(33)
    flipped = 0
    for phi in _seeded_rotvecs()[::4]:
        c = exp_so3(phi) + 1e-6 * rng.standard_normal((3, 3))
        if rng.uniform() < 0.5:
            c[:, 0] = -c[:, 0]
            flipped += 1
        assert same_bits(orthonormalize(c), orthonormalize_reference(c))
    assert flipped > 100


def test_relative_pose_bit_identical_with_drift():
    """Inputs whose rotations drifted off SO(3) go through the
    re-orthonormalization branch."""
    rng = np.random.default_rng(34)
    for phi_a, phi_b in zip(_seeded_rotvecs()[::8], _seeded_rotvecs()[1::8]):
        drift = 10.0**rng.uniform(-12, -6)
        desired = Pose(exp_so3(phi_a) + drift * rng.standard_normal((3, 3)),
                       rng.standard_normal(3))
        current = Pose(exp_so3(phi_b), rng.standard_normal(3))
        assert _same_pose(relative_pose(desired, current),
                          relative_pose_reference(desired, current))


def test_clamp_twist_bit_identical_seeded():
    rng = np.random.default_rng(35)
    cfg = ControlConfig(lam=1.0, v_max=0.1, w_max=0.2)
    for _ in range(2000):
        tw = rng.standard_normal(6) * 10.0**rng.uniform(-3, 0.5)
        if rng.uniform() < 0.05:
            tw[rng.integers(6)] = np.nan
        new, ref = clamp_twist(tw, cfg), clamp_twist_reference(tw, cfg)
        assert same_bits(new, ref)
        assert (new is tw) == (ref is tw)
