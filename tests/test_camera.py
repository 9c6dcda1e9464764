import numpy as np
import pytest

from ekfservo.camera import (
    Z_MIN,
    Intrinsics,
    in_image,
    jacobian_blocks,
    project_points,
)
from ekfservo.ekf import measurement_jacobian
from ekfservo.keypoints import KeypointSet
from ekfservo.lie import Pose


@pytest.fixture(scope="module")
def k600():
    return Intrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)


def _project(point, k):
    uv, ok = project_points(point, k)
    assert ok[0]
    return uv[0]


def test_optical_axis_hits_principal_point(k600):
    assert np.allclose(_project([0.0, 0.0, 2.0], k600), [320.0, 240.0])


def test_pinhole_formula(k600):
    assert np.allclose(_project([0.1, 0.0, 1.0], k600), [380.0, 240.0])


def test_outside_image_still_returned(k600):
    uv = _project([5.0, 0.0, 1.0], k600)
    assert uv[0] > k600.width
    assert not in_image(uv, k600)[0]


def test_behind_camera_raises(k600):
    # A point behind the camera, or in front of it but nearer than Z_MIN, is
    # refused: its in_front flag is False and its pixel row is NaN, so no
    # caller can take it for a projection.
    for point in ([0.0, 0.0, -1.0], [0.0, 0.0, 5e-4]):  # 5e-4 < Z_MIN
        uv, ok = project_points(point, k600)
        assert not ok[0]
        assert np.all(np.isnan(uv[0]))
        assert not in_image(uv, k600)[0]
    # The plane itself is refused, with a zero Jacobian block; the next
    # float beyond it projects, with a finite block.
    at, beyond = [0.0, 0.0, Z_MIN], [0.0, 0.0, np.nextafter(Z_MIN, np.inf)]
    uv, ok = project_points([at, beyond], k600)
    assert ok.tolist() == [False, True]
    assert np.all(np.isnan(uv[0])) and np.all(np.isfinite(uv[1]))
    kps = KeypointSet(np.array([0, 1]), np.array([at, beyond]))
    blocks, ok = measurement_jacobian(Pose(np.eye(3), np.zeros(3)), kps, k600)
    assert ok.tolist() == [False, True]
    assert not blocks[0].any()
    assert np.all(np.isfinite(blocks[1])) and blocks[1].any()


def test_in_image_non_finite_outside_boundary_inside(k600):
    w, h = float(k600.width), float(k600.height)
    bad = [(v, 100.0) for v in (np.nan, np.inf, -np.inf)]
    bad += [(100.0, v) for v in (np.nan, np.inf, -np.inf)]
    assert not in_image(bad, k600).any()
    edges = [(0.0, 0.0), (w, 0.0), (0.0, h), (w, h), (w, 100.0),
             (100.0, h)]
    assert in_image(edges, k600).all()


def test_project_points_masks_behind(k600):
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    uv, ok = project_points(pts, k600)
    assert ok.tolist() == [True, False]
    assert np.allclose(uv[0], [320.0, 240.0])
    assert np.all(np.isnan(uv[1]))


def test_project_points_matches_scalar(k600, rng):
    pts = rng.uniform([-0.2, -0.2, 0.5], [0.2, 0.2, 2.0], size=(50, 3))
    uv, ok = project_points(pts, k600)
    assert ok.all()
    for i in range(50):
        x, y, z = pts[i]
        manual = [600.0 * x / z + 320.0, 600.0 * y / z + 240.0]
        assert np.allclose(uv[i], manual, atol=1e-12)


def _pinhole_jacobian(points, k):
    """(N, 2, 3) pinhole derivatives J of camera-frame points: the
    translational block of `jacobian_blocks`, which is -J."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    return -jacobian_blocks(points, points, k)[:, :, :3]


def test_jacobian_unit_depth_on_axis():
    k = Intrinsics(1.0, 1.0, 0.5, 0.5, 1, 1)
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.allclose(_pinhole_jacobian([0.0, 0.0, 1.0], k)[0], expected)


def _fd_projection(points, k, step=1e-7):
    """(N, 2, 3) central differences of project_points."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    jac = np.zeros((points.shape[0], 2, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        jac[:, :, j] = (project_points(points + e, k)[0]
                        - project_points(points - e, k)[0]) / (2 * step)
    return jac


def test_jacobian_matches_fd_at_spec_point(k600):
    p = [0.2, -0.1, 1.5]
    jac = _pinhole_jacobian(p, k600)[0]
    fd = _fd_projection(p, k600)[0]
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-6


def test_jacobian_scaling_homogeneity(k600, rng):
    p = np.array([0.15, -0.04, 0.8])
    for s in (2.0, 5.0):
        assert np.allclose(_pinhole_jacobian(p * s, k600),
                           _pinhole_jacobian(p, k600) / s, atol=1e-12)


def test_jacobian_fd_sweep(rng):
    k = Intrinsics(460.0, 455.0, 318.0, 242.0, 640, 480)
    pts = rng.uniform([-0.5, -0.5, 0.05], [0.5, 0.5, 3.0], size=(1000, 3))
    jac = _pinhole_jacobian(pts, k)
    fd = _fd_projection(pts, k)
    err = (np.linalg.norm(jac - fd, axis=(1, 2))
           / np.linalg.norm(fd, axis=(1, 2)))
    assert err.max() < 1e-5


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        Intrinsics(-1.0, 600.0, 320.0, 240.0, 640, 480)
    with pytest.raises(ValueError):
        Intrinsics(600.0, 600.0, 700.0, 240.0, 640, 480)
