"""The EKF measurement path against the reference implementations in
oracles.py: bit-identical updates and measurements on frames recorded from
every shipped scenario, and gate decisions that agree with a per-keypoint
solve wherever they are not within rounding of the threshold."""
import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import chi2

import ekfservo.simulator as sim
from conftest import one_pose_stack, scenario
from ekfservo.camera import Z_MIN
from ekfservo.ekf import (
    INNOVATION_COND_LIMIT,
    _COND_MARGIN,
    FilterState,
    SingularInnovation,
    _gate_threshold,
    _ill_conditioned,
    _mahalanobis_keep,
    initialize,
    update,
)
from ekfservo.keypoints import Measurement, SensingProfile, fps_select, measure
from ekfservo.lie import Pose, cholesky_certifies
from ekfservo.simulator import LOOK_DOWN
from oracles import measure_reference, same_bits, update_reference

pytestmark = pytest.mark.oracle

SHIPPED = ("adverse", "consistency", "correlation", "noise_free", "nominal",
           "occlusion")
RECORDED_FRAMES = 30


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularInnovation:
        return SingularInnovation


def _fields(res, j=None):
    """The outcome of row j of a stacked update, or of a single reference
    update when j is None."""
    fields = (res.state.mean.C, res.state.mean.t, res.state.P, res.used,
              res.n_visible, res.residual_rms)
    return fields if j is None else tuple(f[j] for f in fields)


def _assert_same_update(res, j, ref, i=None):
    """Row j of the stacked update `res` has the bits of `ref`: its row i,
    or the single reference update when i is None. A reference that
    raised SingularInnovation is matched by that exception in row j's
    `errors`."""
    if ref is SingularInnovation:
        assert isinstance(res.errors[j], SingularInnovation)
        return
    assert res.errors[j] is None
    for new, want in zip(_fields(res, j), _fields(ref, i), strict=True):
        assert same_bits(new, want)


@pytest.fixture(scope="module")
def recorded():
    """(update args, measure args) of the first frames of one episode per
    shipped scenario, captured as run_episode makes the calls."""
    updates, measures = [], []
    real_update, real_measure = sim.update, sim.measure

    # the loop makes stacked calls, one row per trial; each row is
    # recorded as the single call it stands for
    def spy_update(state, meas, kps, intr, level):
        for j in range(state.P.shape[0]):
            one = FilterState(Pose(state.mean.C[j], state.mean.t[j]),
                              state.P[j].copy())
            updates.append((one, Measurement(meas.uv[j], meas.cov[j],
                                             meas.visible[j]),
                            kps, intr, level))
        return real_update(state, meas, kps, intr, level)

    def spy_measure(gt, kps, intr, profile, rngs, frame):
        for j, rng in enumerate(rngs):
            rng_state = copy.deepcopy(rng.bit_generator.state)
            measures.append((Pose(gt.C[j], gt.t[j]), kps, intr, profile,
                             rng_state, frame))
        return real_measure(gt, kps, intr, profile, rngs, frame=frame)

    sim.update, sim.measure = spy_update, spy_measure
    try:
        for name in SHIPPED:
            sim.run_episode(replace(scenario(name), max_frames=RECORDED_FRAMES))
    finally:
        sim.update, sim.measure = real_update, real_measure
    return updates, measures


def test_update_bit_identical_to_reference(recorded):
    updates, _ = recorded
    assert len(updates) == len(SHIPPED) * RECORDED_FRAMES
    partial = 0
    for state, meas, kps, intr, level in updates:
        ref = update_reference(state, meas, kps, intr, level, Z_MIN)
        _assert_same_update(
            update(*_stack([(state, meas)]), kps, intr, level), 0, ref)
        if 0 < ref.used.sum() < ref.n_visible:
            partial += 1
    # the gated sub-block path of the innovation is exercised, not only
    # the all-accepted one
    assert partial > 0


def _stack(pairs):
    states, meas = zip(*pairs)
    return (FilterState(Pose(np.array([st.mean.C for st in states]),
                             np.array([st.mean.t for st in states])),
                        np.array([st.P for st in states])),
            Measurement(np.array([m.uv for m in meas]),
                        np.array([m.cov for m in meas]),
                        np.array([m.visible for m in meas])))


def test_stacked_update_matches_single_updates(recorded, intr, model):
    """The recorded updates of each scenario and gate level, stacked:
    beliefs with different counts of usable and gated keypoints run in
    their groups, and each slice equals the single update and the
    reference. One more stack holds beliefs with different priors that
    all have the same count m < n of usable keypoints."""
    updates, _ = recorded
    groups = {}
    for call in updates:  # keyed by keypoint set and gate level
        groups.setdefault((id(call[2]), call[4]), []).append(call)
    kps, cases = _mixed_stack(intr, model)
    _, healthy, some = next(c for c in cases if c[0] == "some visible")
    groups["shared partial count"] = [
        (initialize(healthy.mean, sigma_t, sigma_phi), some, kps, intr,
         0.999) for sigma_t, sigma_phi in ((0.01, 0.02), (0.02, 0.03))]
    mixed = partial = 0
    for calls in groups.values():
        _, _, kps, intr_, level = calls[0]
        stacked, meas = _stack([(c[0], c[1]) for c in calls])
        res = update(stacked, meas, kps, intr_, level)
        assert res.errors == [None] * len(calls)
        counts = set()
        for j, (state, one, *_) in enumerate(calls):
            ref = update_reference(state, one, kps, intr_, level, Z_MIN)
            alone = update(*_stack([(state, one)]), kps, intr_, level)
            _assert_same_update(alone, 0, ref)
            _assert_same_update(res, j, ref)
            counts.add(int(one.visible.sum()))
            partial += 0 < ref.used.sum() < ref.n_visible
        mixed += len(counts) > 1
    assert mixed > 0 and partial > 0
    assert counts == {5}  # the last stack: 5 of 8 keypoints each


def test_stacked_update_fails_one_belief(recorded):
    """A belief whose innovation is non-finite gets SingularInnovation in
    `errors` and keeps its prior; the others are updated as alone."""
    updates, _ = recorded
    calls = updates[5:9]
    _, _, kps, intr, level = calls[0]
    stacked, meas = _stack([(c[0], c[1]) for c in calls])
    stacked.P[2] = np.nan
    res = update(stacked, meas, kps, intr, level)
    assert isinstance(res.errors[2], SingularInnovation)
    assert str(res.errors[2]) == "non-finite innovation"
    assert same_bits(res.state.mean.C[2], stacked.mean.C[2])
    for j in (0, 1, 3):
        alone = update(*_stack([calls[j][:2]]), kps, intr, level)
        _assert_same_update(res, j, alone, 0)


def test_measure_bit_identical_to_reference(recorded):
    _, measures = recorded
    for gt, kps, intr, profile, rng_state, frame in measures:
        rng_new, rng_ref = np.random.default_rng(), np.random.default_rng()
        rng_new.bit_generator.state = rng_state
        rng_ref.bit_generator.state = rng_state
        new = measure(one_pose_stack(gt), kps, intr, profile, [rng_new],
                      frame=frame)
        ref = measure_reference(gt, kps, intr, profile, rng_ref, frame)
        assert same_bits(new.uv, ref.uv[None])
        assert same_bits(new.cov, ref.cov[None])
        assert same_bits(new.visible, ref.visible[None])


def _frame(gt, kps, intr, sigma_px, seed) -> Measurement:
    """One frame of `measure` for the pose gt, taken from its stack of
    one, for the single updates of oracles.py and `_stack`."""
    profile = SensingProfile(sigma_px=sigma_px)
    m = measure(one_pose_stack(gt), kps, intr, profile,
                [np.random.default_rng(seed)], frame=0)
    return Measurement(m.uv[0], m.cov[0], m.visible[0])


def test_singular_innovation_matches_reference(intr, model):
    gt = Pose(LOOK_DOWN, [0.0, 0.0, 0.3])
    kps = fps_select(model, 8)
    meas = _frame(gt, kps, intr, 0.0, 0)
    for sigma_t, sigma_phi, singular in ((10.0, 3.0, True),
                                         (0.01, 0.02, False)):
        st_prior = initialize(gt, sigma_t, sigma_phi)
        ref = _outcome(update_reference, st_prior, meas, kps, intr, 1.0,
                       Z_MIN)
        assert (ref is SingularInnovation) == singular
        new = update(*_stack([(st_prior, meas)]), kps, intr, 1.0)
        _assert_same_update(new, 0, ref)


def _mixed_stack(intr, model):
    """(label, belief, measurement) of one stack that holds every outcome
    of an update: healthy beliefs with all, some or gated-away keypoints,
    one ill-conditioned, one with no usable keypoint, one whose keypoints
    are all gated out and one with a NaN covariance."""
    gt = Pose(LOOK_DOWN, [0.0, 0.0, 0.3])
    kps = fps_select(model, 8)
    meas = _frame(gt, kps, intr, 0.3, 3)
    exact = _frame(gt, kps, intr, 0.0, 3)
    assert meas.visible.all() and exact.visible.all()
    healthy = initialize(gt, 0.01, 0.02)
    ill = initialize(gt, 10.0, 3.0)  # enormous prior vs the PD floor
    p_nan = healthy.P.copy()
    p_nan[2, 4] = np.nan

    def with_visible(mask):
        return Measurement(np.where(mask[:, None], meas.uv, np.nan),
                           np.where(mask[:, None, None], meas.cov, np.nan),
                           mask)

    some = np.arange(8) % 3 != 0
    shifted = meas.uv.copy()
    shifted[[1, 4]] += 60.0
    cases = [
        ("healthy", healthy, meas),
        ("ill-conditioned", ill, exact),
        ("no usable keypoint", healthy, with_visible(np.zeros(8, bool))),
        ("all gated out", healthy,
         Measurement(meas.uv + 80.0, meas.cov, meas.visible)),
        ("non-finite", FilterState(gt, p_nan), meas),
        ("some visible", healthy, with_visible(some)),
        ("some gated out", healthy,
         Measurement(shifted, meas.cov, meas.visible)),
    ]
    return kps, cases


def test_mixed_stack_slices_equal_single_updates(intr, model, monkeypatch):
    """Each slice of one stack holding every outcome equals the single
    update of that belief: the ill-conditioned belief fails the Cholesky
    certificate of its kept-count group, eigvalsh then fails that belief
    alone, and the non-finite one fails in the shared stage."""
    kps, cases = _mixed_stack(intr, model)
    stacked, meas = _stack([(st, m) for _, st, m in cases])
    eigvalsh_calls = []
    real_eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        eigvalsh_calls.append(a.shape)
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    res = update(stacked, meas, kps, intr, 0.999)
    # one group of two beliefs keeps all 8 keypoints: healthy and ill
    assert eigvalsh_calls == [(2, 16, 16)]
    outcome = {}
    for j, (label, state, one) in enumerate(cases):
        alone = update(*_stack([(state, one)]), kps, intr, 0.999)
        if alone.errors[0] is not None:  # the belief keeps its prior
            assert isinstance(alone.errors[0], SingularInnovation), label
            assert isinstance(res.errors[j], SingularInnovation), label
            assert str(res.errors[j]) == str(alone.errors[0])
            assert same_bits(res.state.mean.C[j], stacked.mean.C[j])
            assert same_bits(res.state.mean.t[j], stacked.mean.t[j])
            assert same_bits(res.state.P[j], stacked.P[j])
            assert not res.used[j].any()
            assert np.isnan(res.residual_rms[j])
            outcome[label] = str(res.errors[j])
            continue
        _assert_same_update(res, j, alone, 0)
        outcome[label] = (int(alone.used.sum()), int(alone.n_visible[0]))
    assert outcome == {  # (used, visible) keypoints
        "healthy": (8, 8),
        "ill-conditioned": "innovation condition number exceeds 1e+12",
        "no usable keypoint": (0, 0),
        "all gated out": (0, 8),
        "non-finite": "non-finite innovation",
        "some visible": (5, 5),
        "some gated out": (6, 8),
    }


def test_conditioning_certificate_never_passes_what_eigvalsh_rejects():
    """Random SPD innovations with condition numbers from 1e9 to 1e14 and
    the sizes an update makes: whenever the Cholesky certificate passes a
    stack, eigvalsh's verdict passes each of its slices. The certificate
    passes every matrix up to condition 1e10, a tenth of its bound of
    about INNOVATION_COND_LIMIT / 10, and none that eigvalsh rejects."""
    rng = np.random.default_rng(11)
    passed = rejected = 0
    for cond in np.repeat(10.0 ** np.arange(9.0, 14.01, 0.25), 3):
        for size in range(2, 17, 2):
            q, _ = np.linalg.qr(rng.standard_normal((size, size)))
            eigs = np.geomspace(1.0, 1.0 / cond, size) * 10.0 ** rng.uniform(
                -6.0, 6.0)
            s = (q * eigs) @ q.T
            if rng.uniform() < 0.5:  # as H P H^T + Q rounds: not symmetric
                s += s * rng.uniform(-1e-16, 1e-16, s.shape)
            eig = np.abs(np.linalg.eigvalsh(s))
            eig_rejects = eig.max() > INNOVATION_COND_LIMIT * eig.min()
            certified = cholesky_certifies(s[None], _COND_MARGIN)
            assert not (certified and eig_rejects), (cond, size)
            assert _ill_conditioned(s[None])[0] == eig_rejects
            passed += certified
            rejected += eig_rejects
            if cond <= 1e10:
                assert certified, (cond, size)
    assert passed > 0 and rejected > 0


def _psd(m):
    return m @ m.T


@settings(max_examples=300, deadline=None)
@given(
    case=st.integers(1, 10).flatmap(lambda m: st.tuples(
        arrays(float, (m, 2), elements=st.floats(-30.0, 30.0)),
        arrays(float, (m, 2, 6), elements=st.floats(-2e3, 2e3)),
        arrays(float, (m, 2, 2), elements=st.floats(-3.0, 3.0)))),
    p_root=arrays(float, (6, 6), elements=st.floats(-0.05, 0.05)),
    level=st.sampled_from([0.5, 0.9, 0.99, 0.999, 1.0]),
)
def test_gate_matches_per_keypoint_solve(case, p_root, level):
    residuals, h, cov_root = case
    p_prior = _psd(p_root) + 1e-8 * np.eye(6)
    covs = cov_root @ cov_root.transpose(0, 2, 1) + 0.05 * np.eye(2)
    s_blocks = h @ p_prior @ h.transpose(0, 2, 1) + covs
    keep = _mahalanobis_keep(residuals, s_blocks, _gate_threshold(level))
    thresh = np.inf if level >= 1.0 else float(chi2.ppf(level, df=2))
    for i in range(residuals.shape[0]):
        s = h[i] @ p_prior @ h[i].T + covs[i]
        m2 = float(residuals[i] @ np.linalg.solve(s, residuals[i]))
        if np.isinf(thresh) or abs(m2 - thresh) > 1e-9 * thresh:
            assert keep[i] == (m2 <= thresh), (i, m2, thresh)
