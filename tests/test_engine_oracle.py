"""The lockstep engine against the single-trial episode loop it replaced
(oracles.run_episode_reference): every field of every record, the final
pose included, has the same bytes at any batch width and parallelism, and
a trial that fails numerically fails alone."""
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import ekfservo.simulator as sim
from conftest import scenario
from ekfservo.ekf import FilterState
from oracles import run_episode_reference, same_record

pytestmark = pytest.mark.oracle

SHIPPED = ("adverse", "consistency", "correlation", "noise_free", "nominal",
           "occlusion", "occlusion_policy")
TRIALS = 5
WIDTHS = (1, 2, 5)
SHORT_FRAMES = 40


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(
            max_workers=2,
            mp_context=multiprocessing.get_context("spawn")) as executor:
        yield executor


def _by_width(sc, seeds, width, pool=None) -> list:
    """Records of `seeds`, run in lockstep chunks of `width` trials, in
    this process or spread over the pool's worker processes."""
    chunks = [seeds[i:i + width] for i in range(0, len(seeds), width)]
    if pool is None:
        parts = [sim.run_episodes(sc, chunk) for chunk in chunks]
    else:
        parts = pool.map(sim.run_episodes, [sc] * len(chunks), chunks)
    return [rec for part in parts for rec in part]


def _check_widths(sc, pool) -> list:
    seeds = [sc.seed + i for i in range(TRIALS)]
    ref = [run_episode_reference(sc, seed) for seed in seeds]
    for workers in (None, pool):
        for width in WIDTHS:
            got = _by_width(sc, seeds, width, workers)
            for i, (a, b) in enumerate(zip(ref, got, strict=True)):
                assert same_record(a, b), (width, workers is not None, i)
    return ref


@pytest.mark.parametrize("variant", sim.VARIANTS)
@pytest.mark.parametrize("name", SHIPPED)
def test_engine_matches_single_trial_loop(name, variant, pool):
    _check_widths(replace(scenario(name), variant=variant,
                          max_frames=SHORT_FRAMES), pool)


def test_engine_matches_when_trials_end_at_different_frames(pool):
    """Full-length adverse episodes converge after 100 to 172 frames, so
    the active set shrinks one trial at a time; run_batch's chunked
    workers give the same records too."""
    sc = replace(scenario("adverse"), variant="coupled-ekf")
    ref = _check_widths(sc, pool)
    assert all(rec.converged for rec in ref)
    assert len({rec.frames for rec in ref}) == TRIALS
    batch = sim.run_batch(sc, TRIALS, parallelism=2)
    assert all(same_record(a, b) for a, b in zip(ref, batch.records))


@pytest.mark.parametrize("name, threshold", [("occlusion", -31.42),
                                             ("adverse", -33.40)])
def test_engine_matches_when_the_entropy_policy_fires(name, threshold, pool):
    """Full-length coupled-ekf episodes with an entropy threshold that
    some frames exceed, so the policy reduces their commands; the hold
    test reads the clamped command from before the reduction."""
    base = scenario(name)
    sc = replace(base, variant="coupled-ekf", control=replace(
        base.control, entropy_threshold=threshold))
    ref = _check_widths(sc, pool)
    entropy = np.concatenate([rec.entropy for rec in ref])
    assert 0 < np.count_nonzero(entropy > threshold) < entropy.size


POISONS = pytest.mark.parametrize("poison, errstate, failure", [
    (np.nan, "ignore", "frame 3: non-finite innovation"),
    (1e300, "raise",
     "frame 3: FloatingPointError: overflow encountered in multiply"),
])


def _poison_trial_1_at_frame_3(monkeypatch, poison) -> None:
    """Multiply trial 1's propagated covariance by `poison` at frame 3,
    while all four trials of a batch are active."""
    real = sim.propagate
    calls = []

    def poisoned(state, twist, dt, noise):
        out = real(state, twist, dt, noise)
        calls.append(None)
        if len(calls) == 3:
            p = out.P.copy()
            p[1] *= poison
            return FilterState(out.mean, p)
        return out

    monkeypatch.setattr(sim, "propagate", poisoned)


@POISONS
def test_failing_trial_leaves_others_alone(monkeypatch, poison, errstate,
                                           failure):
    """Trial 1's covariance is poisoned at frame 3. A NaN makes its
    innovation non-finite; an overflow, with numpy set to raise on it,
    makes the stacked update raise for the whole group, which is then
    redone one trial at a time. Either way trial 1 fails with the
    exception named, and every other trial equals its solo run."""
    sc = replace(scenario("nominal"), max_frames=30)
    solo = [sim.run_episode(sc, sc.seed + i) for i in range(4)]
    _poison_trial_1_at_frame_3(monkeypatch, poison)
    with np.errstate(over=errstate):
        res = sim.run_batch(sc, 4)
    assert res.records[1].failure == failure
    assert res.records[1].frames == 3
    for i in (0, 2, 3):
        assert same_record(res.records[i], solo[i]), i


@POISONS
def test_failed_update_gets_no_control(monkeypatch, poison, errstate,
                                       failure):
    """The trial whose update fails at frame 3 gets neither a servo step
    nor a row in the stacked control chain there: the servo law runs once
    per recorded trial-frame, and the velocity Jacobian of frame 3 stacks
    the three live trials, not four. run_episodes runs no geodesic
    rollout, so every servo law call is the loop's."""
    sc = replace(scenario("nominal"), max_frames=30)
    _poison_trial_1_at_frame_3(monkeypatch, poison)
    laws, jacobian_rows = [], []
    real_law, real_jacobian = sim.pbvs_law, sim.velocity_jacobian

    def law(rel, lam):
        laws.append(None)
        return real_law(rel, lam)

    def jacobian(errors, est, cfg):
        jacobian_rows.append(len(errors))
        return real_jacobian(errors, est, cfg)

    monkeypatch.setattr(sim, "pbvs_law", law)
    monkeypatch.setattr(sim, "velocity_jacobian", jacobian)
    with np.errstate(over=errstate):
        records = sim.run_episodes(sc, [sc.seed + i for i in range(4)])
    assert records[1].failure == failure and records[1].frames == 3
    assert len(laws) == sum(rec.frames for rec in records)
    assert jacobian_rows[:4] == [4, 4, 4, 3]
