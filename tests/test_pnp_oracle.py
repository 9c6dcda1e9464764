"""The PnP Gauss-Newton baseline against the reference implementation in
oracles.py: bit-identical poses on calls recorded from every shipped
scenario run with `pbvs-perframe`, and on hand-built calls that reach the
identity-weight fallback, a usable set that changes mid-call and a
non-finite step."""
from dataclasses import replace

import numpy as np
import pytest

import ekfservo.pnp as pnp
import ekfservo.simulator as sim
import oracles
from conftest import one_pose_stack, scenario
from ekfservo.camera import Z_MIN
from ekfservo.keypoints import (KeypointSet, Measurement, SensingProfile,
                                 fps_select, measure)
from ekfservo.lie import Pose, pose_boxplus
from ekfservo.pnp import refine_pose
from ekfservo.simulator import LOOK_DOWN
from oracles import refine_pose_reference, same_bits

pytestmark = pytest.mark.oracle

SHIPPED = ("adverse", "consistency", "correlation", "noise_free", "nominal",
           "occlusion")
RECORDED_FRAMES = 30


def _assert_same_pose(new, ref):
    assert (new is None) == (ref is None)
    if ref is not None:
        assert same_bits(new.C, ref.C)
        assert same_bits(new.t, ref.t)


def _counting(monkeypatch, module, name):
    """Count the calls made through a module-level name."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.fixture(scope="module")
def recorded():
    """refine_pose arguments of the first frames of one pbvs-perframe
    episode per shipped scenario, captured as run_episode makes the calls."""
    calls = []
    real = sim.refine_pose

    def spy(prev, meas, kps, intr):
        calls.append((prev, meas, kps, intr))
        return real(prev, meas, kps, intr)

    sim.refine_pose = spy
    try:
        for name in SHIPPED:
            sim.run_episode(replace(scenario(name), variant="pbvs-perframe",
                                    max_frames=RECORDED_FRAMES))
    finally:
        sim.refine_pose = real
    return calls


def test_refine_pose_bit_identical_to_reference(recorded):
    assert len(recorded) == len(SHIPPED) * RECORDED_FRAMES
    outcomes = set()
    for prev, meas, kps, intr in recorded:
        ref = refine_pose_reference(prev, meas, kps, intr, z_min=Z_MIN)
        _assert_same_pose(refine_pose(prev, meas, kps, intr), ref)
        outcomes.add(ref is None)
    # both a refined pose and the too-few-points hold are exercised
    assert outcomes == {True, False}


def test_one_predict_call_per_reference_iteration(recorded, monkeypatch):
    new_calls = _counting(monkeypatch, pnp, "predict_keypoints")
    ref_calls = _counting(monkeypatch, oracles, "project_points_reference")
    for prev, meas, kps, intr in recorded[:60]:
        refine_pose(prev, meas, kps, intr)
        refine_pose_reference(prev, meas, kps, intr, z_min=Z_MIN)
        assert len(new_calls) == len(ref_calls)
    assert len(new_calls) > 60


@pytest.fixture()
def clean(model, intr):
    kps = fps_select(model, 8)
    gt = Pose(LOOK_DOWN, np.array([0.01, -0.02, 0.28]))
    frame = measure(one_pose_stack(gt), kps, intr,
                    SensingProfile(sigma_px=0.4), [np.random.default_rng(5)],
                    frame=0)
    # refine_pose takes one trial's frame, row 0 of the stack
    meas = Measurement(frame.uv[0], frame.cov[0], frame.visible[0])
    start = pose_boxplus(gt, np.array([0.02, -0.01, 0.03, 0.08, -0.05, 0.04]))
    return kps, gt, meas, start


def _with(meas, uv=None, cov=None, visible=None) -> Measurement:
    return Measurement(uv=meas.uv if uv is None else uv,
                       cov=meas.cov if cov is None else cov,
                       visible=meas.visible if visible is None else visible)


def _usable_sets(monkeypatch, call):
    """The usable-keypoint masks of each Gauss-Newton iteration of call()."""
    masks = []
    real = pnp.predict_keypoints

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        masks.append(tuple(out[1]))
        return out

    monkeypatch.setattr(pnp, "predict_keypoints", spy)
    call()
    return masks


def test_singular_covariance_uses_identity_weights(clean, intr):
    kps, _, meas, start = clean
    cov = meas.cov.copy()
    cov[2] = 0.0
    singular = _with(meas, cov=cov)
    ref = refine_pose_reference(start, singular, kps, intr)
    assert ref is not None
    _assert_same_pose(refine_pose(start, singular, kps, intr), ref)
    # identity weights give a different answer from the honest ones
    assert not same_bits(ref.t, refine_pose(start, meas, kps, intr).t)


def _crossing(clean):
    """`clean` with the keypoints and the start translation scaled by
    Z_MIN / 0.2755, which leaves every pixel as it is: the Z_MIN plane
    lies between the keypoint depths, all 8 keypoints beyond it at the
    start pose, 5 once the first step has moved the object closer."""
    kps, _, meas, start = clean
    s = Z_MIN / 0.2755
    return (KeypointSet(kps.ids, kps.points3d * s), meas,
            Pose(start.C, start.t * s))


def test_usable_set_changes_mid_call(clean, intr, monkeypatch):
    kps, meas, start = _crossing(clean)
    ref = refine_pose_reference(start, meas, kps, intr, z_min=Z_MIN)
    assert ref is not None
    masks = _usable_sets(
        monkeypatch,
        lambda: _assert_same_pose(refine_pose(start, meas, kps, intr), ref))
    assert all(masks[0]) and not all(masks[-1])


def test_singular_covariance_weights_whole_call_by_identity(clean, intr,
                                                           monkeypatch):
    """A singular reported covariance gives identity weights for the whole
    call, also after its keypoint has crossed Z_MIN and the covariances
    still usable would invert (`measure` never reports a singular one)."""
    kps, meas, start = _crossing(clean)
    cov = meas.cov.copy()
    cov[0] = 0.0
    singular = _with(meas, cov=cov)
    unit = _with(meas, cov=np.broadcast_to(np.eye(2), meas.cov.shape))
    ref = refine_pose_reference(start, unit, kps, intr, z_min=Z_MIN)
    assert ref is not None
    masks = _usable_sets(
        monkeypatch,
        lambda: _assert_same_pose(refine_pose(start, singular, kps, intr),
                                  ref))
    assert masks[0][0] and not masks[-1][0]


def test_non_finite_step(clean, intr):
    kps, _, meas, start = clean
    uv = meas.uv.copy()
    uv[1] = np.inf
    broken = _with(meas, uv=uv)
    assert refine_pose_reference(start, broken, kps, intr) is None
    assert refine_pose(start, broken, kps, intr) is None
