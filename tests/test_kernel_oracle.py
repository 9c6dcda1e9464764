"""The SO(3) and projection kernels against their reference copies in
oracles.py, bit for bit on seeded random inputs."""
import numpy as np
import pytest

from ekfservo.camera import Intrinsics, project_points
from ekfservo.lie import _EXP_SERIES_EPS, _JAC_SERIES_EPS, exp_so3, left_jacobian
from oracles import (
    exp_so3_reference,
    left_jacobian_reference,
    project_points_reference,
    same_bits,
)


def _rotvecs(rng, n):
    """Random axes times angles log-uniform in [1e-8, pi]."""
    axes = rng.standard_normal((n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.exp(rng.uniform(np.log(1e-8), np.log(np.pi), size=n))
    return axes * angles[:, None]


@pytest.mark.parametrize("fn, ref, switch", [
    (exp_so3, exp_so3_reference, _EXP_SERIES_EPS),
    (left_jacobian, left_jacobian_reference, _JAC_SERIES_EPS),
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
