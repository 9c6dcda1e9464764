import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekfservo.lie import (
    Pose,
    clamp_psd,
    exp_se3,
    exp_so3,
    hat,
    log_so3,
    orthonormalize,
    pose_boxminus,
    pose_boxplus,
    right_jacobian,
    right_jacobian_inv,
    rotation_to_quaternion,
    symmetrize,
)
from oracles import (
    expm_series,
    hat3,
    random_rotvec,
    rel_error,
    same_bits,
    se3_exp_series,
)

# exp_so3((0.3, -0.2, 0.5)) computed once with the 30-term series oracle
EXP_FROZEN = np.array([
    [0.859533898558663, -0.49799153700292204, -0.11491695393636674],
    [0.4398676329582309, 0.8353156052067086, -0.329794337692255],
    [0.26022671404809444, 0.23292116428443663, 0.9370324372849181],
])


def test_hat_zero_is_zero_matrix():
    assert np.array_equal(hat([0.0, 0.0, 0.0]), np.zeros((3, 3)))


def test_hat_unit_x():
    expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(hat([1.0, 0.0, 0.0]), expected)


def test_hat_annihilates_its_vector():
    v = np.array([0.3, -1.2, 0.7])
    assert np.allclose(hat(v) @ v, 0.0)


def test_hat_is_cross_product(rng):
    for _ in range(20):
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(hat(v) @ w, np.cross(v, w))


def test_exp_zero_is_identity():
    assert np.allclose(exp_so3([0.0, 0.0, 0.0]), np.eye(3))


def test_exp_quarter_turn_about_z():
    c = exp_so3([0.0, 0.0, np.pi / 2])
    assert np.allclose(c @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_exp_matches_series_oracle_frozen():
    assert np.abs(exp_so3([0.3, -0.2, 0.5]) - EXP_FROZEN).max() < 1e-12


def test_exp_matches_series_oracle_random(rng):
    for _ in range(50):
        v = random_rotvec(rng, np.pi - 1e-3)
        assert np.abs(exp_so3(v) - expm_series(hat3(v))).max() < 1e-12


def test_exp_small_angle_branch(rng):
    for scale in (1e-7, 1e-9, 1e-12):
        v = rng.standard_normal(3) * scale
        assert np.abs(exp_so3(v) - expm_series(hat3(v))).max() < 1e-15


def test_log_identity():
    assert np.allclose(log_so3(np.eye(3)), 0.0)


def test_exp_log_roundtrip_seeded():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        v = random_rotvec(rng, np.pi - 1e-3)
        assert np.linalg.norm(log_so3(exp_so3(v)) - v) < 1e-9


def test_log_half_turn_about_x():
    c = exp_so3([np.pi, 0.0, 0.0])
    phi = log_so3(c)
    # sign convention: first nonzero axis component positive
    assert np.allclose(phi, [np.pi, 0.0, 0.0], atol=1e-7)


def test_log_near_half_turn_stable(rng):
    for _ in range(100):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        v = axis * (np.pi - 1e-6)
        c = exp_so3(v)
        phi = log_so3(c)
        assert np.linalg.norm(phi) <= np.pi + 1e-12
        assert np.abs(exp_so3(phi) - c).max() < 1e-8


def test_log_exact_half_turn_deterministic(rng):
    for _ in range(50):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        # closed form of a half turn: symmetric, antisymmetric part exactly 0
        c = 2.0 * np.outer(axis, axis) - np.eye(3)
        phi = log_so3(c)
        assert np.abs(exp_so3(phi) - c).max() < 1e-9
        nz = phi[np.abs(phi) > 1e-9]
        assert nz.size > 0 and nz[0] > 0


def test_one_parameter_subgroup(rng):
    for _ in range(20):
        a = random_rotvec(rng, 1.2)
        assert np.allclose(exp_so3(a) @ exp_so3(a), exp_so3(2 * a), atol=1e-12)


# Rotation vectors as a direction and an angle: the near-pi properties
# below are stated in terms of the angle (Sola, Deray & Atchuthan,
# arXiv:1812.01537, the SO(3) appendix).
_AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 1e-3)


def _rotvec(axis, angle):
    axis = np.asarray(axis)
    return axis / np.linalg.norm(axis) * angle


@settings(max_examples=300, deadline=None)
@given(axis=_AXES, angle=st.floats(0.0, np.pi - 1e-3))
def test_exp_log_roundtrip_property(axis, angle):
    phi = _rotvec(axis, angle)
    c = exp_so3(phi)
    back = log_so3(c)
    assert np.linalg.norm(back - phi) < 1e-9
    assert np.abs(exp_so3(back) - c).max() < 1e-12


@settings(max_examples=300, deadline=None)
@given(axis=_AXES, angle=st.floats(np.pi - 1e-3, np.pi))
def test_log_near_half_turn_property(axis, angle):
    """Up to and at pi, log_so3 stays on the principal branch and inverts
    exp_so3 up to the sign of phi, which is ambiguous only at pi."""
    phi = _rotvec(axis, angle)
    c = exp_so3(phi)
    back = log_so3(c)
    assert np.linalg.norm(back) <= np.pi + 1e-12
    assert min(np.linalg.norm(back - phi), np.linalg.norm(back + phi)) < 1e-7
    assert np.abs(exp_so3(back) - c).max() < 1e-8


@settings(max_examples=300, deadline=None)
@given(axis=_AXES, angle=st.floats(0.0, np.pi - 1e-3))
def test_right_jacobian_inverse_property_near_pi(axis, angle):
    phi = _rotvec(axis, angle)
    assert np.abs(right_jacobian(phi) @ right_jacobian_inv(phi)
                  - np.eye(3)).max() < 1e-9


def test_right_jacobian_inv_finite_at_pi():
    """The coefficient of hat(phi)^2 tends to 1/pi^2 at a half turn."""
    phi = np.array([0.0, 0.0, np.pi])
    k = hat(phi)
    expected = np.eye(3) + 0.5 * k + (k @ k) / np.pi**2
    assert np.abs(right_jacobian_inv(phi) - expected).max() < 1e-12


def test_right_jacobian_inv_at_zero():
    assert np.allclose(right_jacobian_inv([0.0, 0.0, 0.0]), np.eye(3))


def _fd_right_jacobian(phi, step=1e-6):
    jac = np.zeros((3, 3))
    c0 = exp_so3(phi)
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        hi = log_so3(c0.T @ exp_so3(phi + e))
        lo = log_so3(c0.T @ exp_so3(phi - e))
        jac[:, j] = (hi - lo) / (2 * step)
    return jac


def test_right_jacobian_matches_fd():
    phi = np.array([0.4, 0.0, 0.0])
    assert np.abs(right_jacobian(phi) - _fd_right_jacobian(phi)).max() < 1e-6


def test_right_jacobian_inverse_property(rng):
    for _ in range(100):
        phi = random_rotvec(rng, np.pi - 0.05)
        prod = right_jacobian(phi) @ right_jacobian_inv(phi)
        assert np.abs(prod - np.eye(3)).max() < 1e-9


def test_jacobians_match_fd_across_range(rng):
    for _ in range(100):
        phi = random_rotvec(rng, 2.8)
        fd = _fd_right_jacobian(phi)
        assert rel_error(right_jacobian(phi), fd) < 1e-5


def test_exp_se3_zero_twist():
    c, t = exp_se3(np.zeros(6), 0.5)
    assert np.allclose(c, np.eye(3)) and np.allclose(t, 0.0)


def test_exp_se3_pure_translation():
    c, t = exp_se3([0.1, -0.2, 0.3, 0.0, 0.0, 0.0], 0.5)
    assert np.allclose(c, np.eye(3))
    assert np.allclose(t, [0.05, -0.1, 0.15])


def test_exp_se3_matches_series_oracle(rng):
    for _ in range(50):
        xi = rng.standard_normal(6) * 0.5
        dt = rng.uniform(0.05, 1.5)
        c, t = exp_se3(xi, dt)
        h = se3_exp_series(xi, dt)
        assert np.abs(c - h[:3, :3]).max() < 1e-12
        assert np.abs(t - h[:3, 3]).max() < 1e-12


def test_orthonormalize_fixes_drift(rng):
    c = exp_so3(random_rotvec(rng, 1.0)) + rng.standard_normal((3, 3)) * 1e-6
    r = orthonormalize(c)
    assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_quaternion_matches_scipy(rng):
    from scipy.spatial.transform import Rotation

    for _ in range(50):
        c = exp_so3(random_rotvec(rng, np.pi - 1e-3))
        q = rotation_to_quaternion(c)  # (w, x, y, z)
        ref = Rotation.from_matrix(c).as_quat()  # (x, y, z, w)
        ref = np.array([ref[3], ref[0], ref[1], ref[2]])
        if ref[0] < 0:
            ref = -ref
        assert np.abs(q - ref).max() < 1e-9


def test_pose_compose_inverse(rng):
    a = Pose(exp_so3(random_rotvec(rng, 2.0)), rng.standard_normal(3))
    b = Pose(exp_so3(random_rotvec(rng, 2.0)), rng.standard_normal(3))
    ab = a.compose(b)
    assert np.allclose(ab.as_matrix(), a.as_matrix() @ b.as_matrix(), atol=1e-12)
    ident = a.compose(a.inverse())
    assert np.abs(ident.C - np.eye(3)).max() < 1e-12
    assert np.abs(ident.t).max() < 1e-12


def test_pose_apply_matches_matrix(rng):
    p = Pose(exp_so3(random_rotvec(rng, 2.0)), rng.standard_normal(3))
    pts = rng.standard_normal((5, 3))
    expected = (p.C @ pts.T).T + p.t
    assert np.allclose(p.apply(pts), expected, atol=1e-12)
    assert np.allclose(p.apply(pts[0]), expected[0], atol=1e-12)


def test_boxplus_boxminus_roundtrip(rng):
    p = Pose(exp_so3(random_rotvec(rng, 2.0)), rng.standard_normal(3))
    delta = rng.standard_normal(6) * 0.3
    q = pose_boxplus(p, delta)
    assert np.allclose(pose_boxminus(q, p), delta, atol=1e-9)
    stack = Pose(np.stack([exp_so3(random_rotvec(rng, 2.0))
                           for _ in range(5)]), rng.standard_normal((5, 3)))
    deltas = rng.standard_normal((5, 6)) * 0.3
    assert np.allclose(pose_boxminus(pose_boxplus(stack, deltas), stack),
                       deltas, atol=1e-9)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_pose_boxminus_stack_matches_single(rng, n):
    def poses():
        return Pose(np.stack([exp_so3(random_rotvec(rng, 3.0))
                              for _ in range(n)]),
                    rng.standard_normal((n, 3)))
    a, b = poses(), poses()
    out = pose_boxminus(a, b)
    assert out.shape == (n, 6)
    for i in range(n):
        single = pose_boxminus(Pose(a.C[i], a.t[i]), Pose(b.C[i], b.t[i]))
        assert same_bits(out[i], single)


def test_clamp_psd_clips_small_negatives():
    m = np.diag([1.0, -1e-13, 2.0])
    out = clamp_psd(m)
    w = np.linalg.eigvalsh(out)
    assert w.min() >= 0.0
    assert np.allclose(out, symmetrize(out))


def test_pose_rejects_bad_translation_shape():
    with pytest.raises(ValueError):
        Pose(np.eye(3), np.zeros(4))
