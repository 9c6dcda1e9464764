"""The SO(3), projection and Jacobian-block kernels against their
reference copies in oracles.py, bit for bit on seeded random inputs, and
the stacked forms of the Lie kernels against their single-slice calls."""
import numpy as np
import pytest

from ekfservo.camera import Z_MIN, Intrinsics, jacobian_blocks, project_points
from ekfservo.ekf import FilterState
from ekfservo.keypoints import KeypointSet, fps_select, predict_keypoints
from ekfservo.lie import (
    _EXP_SERIES_EPS,
    _JAC_SERIES_EPS,
    Pose,
    _hat_stacked,
    exp_se3,
    exp_so3,
    hat,
    orthonormalize,
    right_jacobian,
)
from oracles import (
    _predict_keypoints_reference,
    exp_se3_reference,
    exp_so3_reference,
    jacobian_blocks_reference,
    orthonormalize_reference,
    project_points_reference,
    right_jacobian_reference,
    same_bits,
    shuffled_stacks,
)

pytestmark = pytest.mark.oracle


def _rotvecs(rng, n):
    """Random axes times angles log-uniform in [1e-8, pi]."""
    axes = rng.standard_normal((n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.exp(rng.uniform(np.log(1e-8), np.log(np.pi), size=n))
    return axes * angles[:, None]


@pytest.mark.parametrize("fn, ref, switch", [
    (exp_so3, exp_so3_reference, _EXP_SERIES_EPS),
    (right_jacobian, right_jacobian_reference, _JAC_SERIES_EPS),
])
def test_so3_kernels_bit_identical(fn, ref, switch):
    rng = np.random.default_rng(20)
    phis = _rotvecs(rng, 4000)
    norms = np.linalg.norm(phis, axis=1)
    # both the series branch and the closed form are exercised
    assert (norms < switch).sum() > 100 and (norms >= switch).sum() > 100
    for phi in phis:
        assert same_bits(fn(phi), ref(phi)), phi
    for phi in ([0.0, 0.0, 0.0], [np.pi, 0.0, 0.0], [0.0, 0.0, switch],
                (0.3, -0.2, 0.5)):
        assert same_bits(fn(phi), ref(phi)), phi


@pytest.mark.parametrize("behind", [False, True])
def test_project_points_bit_identical(behind):
    rng = np.random.default_rng(21 + behind)
    intr = Intrinsics(460.0, 455.0, 320.0, 240.0, 640, 480)
    masked = 0
    for _ in range(1000):
        n = int(rng.integers(0, 12))
        pts = rng.uniform(-0.3, 0.3, size=(n, 3))
        pts[:, 2] = rng.uniform(0.05, 1.5, size=n)
        if behind and n:
            flip = rng.uniform(size=n) < 0.3
            pts[flip, 2] = rng.uniform(-0.5, 1e-3, size=int(flip.sum()))
            masked += int(flip.any())
        uv, ok = project_points(pts, intr)
        uv_ref, ok_ref = project_points_reference(pts, intr)
        assert same_bits(uv, uv_ref)
        assert same_bits(ok, ok_ref)
    assert (masked > 100) == behind


def test_jacobian_blocks_bit_identical_at_exact_zeros():
    """The closed-form blocks against the einsum over a hat stack. Besides
    random points, C X holds +0.0 and -0.0 coordinates and some points lie
    on the optical axis (x or y of C X + t exactly +-0), where a closed
    form that sums in another order flips the sign of a zero; recorded
    calls never reach exact zeros."""
    rng = np.random.default_rng(26)
    intr = Intrinsics(460.0, 455.0, 320.0, 240.0, 640, 480)
    z_neg_zeros = rot_zeros = 0
    for case in range(2000):
        n = int(rng.integers(1, 12))
        rotated = rng.uniform(-0.1, 0.1, size=(n, 3))
        t = np.array([*rng.uniform(-0.1, 0.1, size=2), 0.4])
        if case % 2:
            rotated[rng.uniform(size=(n, 3)) < 0.3] = 0.0
            rotated[rng.uniform(size=(n, 3)) < 0.3] = -0.0
        if case % 4 == 1:
            t[:2] = 0.0
        pts_c = rotated + t
        if case % 3 == 0:
            axis = rng.uniform(size=(n, 2)) < 0.5
            pts_c[:, :2][axis] = rng.choice([0.0, -0.0], size=int(axis.sum()))
        got = jacobian_blocks(rotated, pts_c, intr)
        ref = jacobian_blocks_reference(rotated, pts_c, intr)
        assert same_bits(got, ref), (rotated, pts_c)
        z_col = ref[:, :, 2]
        z_neg_zeros += int(np.signbit(z_col[z_col == 0]).sum())
        rot_zeros += int((ref[:, :, 3:] == 0).sum())
    # -0.0 reaches the z column, and exact zeros the rotational entries
    assert z_neg_zeros > 100 and rot_zeros > 1000


@pytest.mark.parametrize("width", [1, 2, 7])
def test_predict_keypoints_stack_rows_equal_single_calls(width, model):
    """Row i of a stacked call has the bits of the call on pose i alone,
    and a single call those of the reference projection. One pose of each
    stack puts keypoint 0, the object origin, exactly on the Z_MIN plane,
    and turns the others at random, so some may lie behind it."""
    rng = np.random.default_rng(27 + width)
    intr = Intrinsics(460.0, 455.0, 320.0, 240.0, 640, 480)
    sel = fps_select(model, 8)
    kps = KeypointSet(sel.ids, np.vstack([np.zeros(3), sel.points3d[1:]]))
    for _ in range(40):
        c = exp_so3(_rotvecs(rng, width))
        t = np.column_stack([rng.uniform(-0.05, 0.05, size=(width, 2)),
                             rng.uniform(0.2, 0.6, size=width)])
        near = int(rng.integers(width))
        t[near] = (0.0, 0.0, Z_MIN)
        stacked = predict_keypoints(Pose(c, t), kps, intr)
        uv, ok, rotated = stacked
        assert uv.shape == (width, 8, 2) and rotated.shape == (width, 8, 3)
        assert not ok[near, 0] and np.isnan(uv[near, 0]).all()
        for i in range(width):
            one = predict_keypoints(Pose(c[i], t[i]), kps, intr)
            for row, single in zip(stacked, one, strict=True):
                assert same_bits(row[i], single)
            uv_ref, ok_ref = _predict_keypoints_reference(
                FilterState(Pose(c[i], t[i]), None), kps, intr)
            assert same_bits(one[0], uv_ref) and same_bits(one[1], ok_ref)


def test_hat_stacked_rows_equal_hat():
    """Row i of the stacked hat has the bits of hat(v[i]), signed zeros
    included: some rows hold 0.0 and -0.0 entries."""
    rng = np.random.default_rng(25)
    vs = np.concatenate([rng.standard_normal((200, 3)),
                         rng.choice([0.0, -0.0, 1.5, -2.0], size=(64, 3))])
    for stack in shuffled_stacks(rng, vs):
        for got, v in zip(_hat_stacked(stack), stack, strict=True):
            assert same_bits(got, hat(v)), v


def test_stacked_exp_maps_bit_identical():
    """A stack mixes slices on either side of both series switches, and
    exact zeros; every slice equals the single call and its reference."""
    rng = np.random.default_rng(23)
    # angles uniform on [1e-3, pi] as well: numpy's theta**2 on an array
    # rounds apart from Python's on about 1 in 1500 of them
    axes = rng.standard_normal((20000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    uniform = axes * rng.uniform(1e-3, np.pi, size=(20000, 1))
    phis = np.concatenate([_rotvecs(rng, 4000), uniform, np.zeros((20, 3)),
                           [[0.0, 0.0, _EXP_SERIES_EPS],
                            [0.0, _JAC_SERIES_EPS, 0.0], [np.pi, 0, 0]]])
    twists = np.concatenate([rng.standard_normal((len(phis), 3)), phis],
                            axis=1)
    for stack in shuffled_stacks(rng, phis):
        for got, phi in zip(exp_so3(stack), stack, strict=True):
            assert same_bits(got, exp_so3_reference(phi))
    for dt in (1.0, 1.0 / 30.0):
        for stack in shuffled_stacks(rng, twists):
            c, t = exp_se3(stack, dt)
            for c_i, t_i, xi in zip(c, t, stack, strict=True):
                c_ref, t_ref = exp_se3_reference(xi, dt)
                one_c, one_t = exp_se3(xi, dt)
                assert same_bits(c_i, c_ref) and same_bits(t_i, t_ref)
                assert same_bits(one_c, c_ref) and same_bits(one_t, t_ref)


def test_stacked_orthonormalize_bit_identical():
    rng = np.random.default_rng(24)
    mats = rng.standard_normal((700, 3, 3))
    mats[::3] *= -1.0  # improper: the determinant's sign flips a column
    for stack in shuffled_stacks(rng, mats):
        for got, m in zip(orthonormalize(stack), stack, strict=True):
            assert same_bits(got, orthonormalize_reference(m))
