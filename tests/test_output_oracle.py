"""The stacked output path against the per-frame one it replaced: the SO(3)
log, quaternion, relative-pose, servo-law and TE/RE kernels over frame
stacks slice by slice against their scalar forms, NEES and correlation
against their per-frame references on every shipped scenario, and every
file of `ekfservo run` and `ekfservo compare` against the reference
writers in oracles.py, all bit for bit."""
import copy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ekfservo.cli as cli
import ekfservo.simulator as sim
from conftest import SCENARIOS, scenario
from ekfservo.control import pbvs_law, relative_pose
from ekfservo.lie import Pose, exp_so3, log_so3, rotation_to_quaternion
from ekfservo.metrics import nees, te_re, uncertainty_correlation
from oracles import (
    comparison_reference,
    nees_reference,
    rotation_to_quaternion_reference,
    run_tree_reference,
    same_bits,
    shuffled_stacks,
    te_re_reference,
    uncertainty_correlation_reference,
)

pytestmark = pytest.mark.oracle

SHIPPED = ("adverse", "consistency", "correlation", "noise_free", "nominal",
           "occlusion")


def _rotations(rng, n):
    """Rotations whose angles cover log_so3's three branches: below 1e-7,
    general, and within 1e-4 of pi (exact half turns included)."""
    axes = rng.standard_normal((4 * n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.concatenate([
        np.exp(rng.uniform(np.log(1e-12), np.log(1e-6), n)),
        rng.uniform(0.0, np.pi, n),
        np.pi - np.exp(rng.uniform(np.log(1e-15), np.log(1e-3), n)),
        np.full(n, np.pi)])
    mats = exp_so3(axes * angles[:, None])
    half = 3 * n + np.arange(n)  # exact symmetric half turns
    mats[half] = (2.0 * axes[half, :, None] * axes[half, None, :]
                  - np.eye(3))
    return mats


def test_log_so3_stacked_bit_identical():
    rng = np.random.default_rng(40)
    mats = _rotations(rng, 500)
    # drifted off SO(3), as composed rotations are before re-orthonormalizing
    mats = np.concatenate([mats, mats[::5] + 1e-9 * rng.standard_normal(
        (len(mats[::5]), 3, 3))])
    angles = np.array([np.linalg.norm(log_so3(c)) for c in mats])
    assert (angles < 1e-7).sum() > 300
    assert (angles > np.pi - 1e-4).sum() > 300
    assert ((angles >= 1e-7) & (angles <= np.pi - 1e-4)).sum() > 300
    for stack in shuffled_stacks(rng, mats) + [mats, mats[:0]]:
        got = log_so3(stack)
        assert got.shape == (len(stack), 3)
        for row, c in zip(got, stack, strict=True):
            assert same_bits(row, log_so3(c))


def test_rotation_to_quaternion_stacked_bit_identical():
    """All four branches: positive trace, and each diagonal entry largest."""
    rng = np.random.default_rng(41)
    mats = _rotations(rng, 500)
    branches = {-1 if np.trace(c) > 0.0 else int(np.argmax(np.diag(c)))
                for c in mats}
    assert branches == {-1, 0, 1, 2}
    for stack in shuffled_stacks(rng, mats) + [mats, mats[:0]]:
        got = rotation_to_quaternion(stack)
        assert got.shape == (len(stack), 4)
        for row, c in zip(got, stack, strict=True):
            assert same_bits(row, rotation_to_quaternion_reference(c))
    assert same_bits(rotation_to_quaternion(mats[3]),
                     rotation_to_quaternion_reference(mats[3]))


def test_relative_pose_servo_law_and_te_re_stacked_bit_identical():
    """Stacks of current poses against one desired pose, some drifted off
    SO(3) far enough to be re-orthonormalized."""
    rng = np.random.default_rng(42)
    mats = _rotations(rng, 200)
    drift = rng.uniform(size=len(mats)) < 0.3
    mats[drift] += 1e-7 * rng.standard_normal((int(drift.sum()), 3, 3))
    trans = rng.standard_normal((len(mats), 3))
    redone = 0
    for desired_phi in rng.uniform(-1.0, 1.0, (8, 3)) * np.pi / np.sqrt(3):
        desired = Pose(exp_so3(desired_phi), rng.standard_normal(3))
        for idx in shuffled_stacks(rng, np.arange(len(mats)), width=50):
            rel = relative_pose(desired, Pose(mats[idx], trans[idx]))
            twists, errors = pbvs_law(rel, 0.7)
            te, re = te_re(Pose(mats[idx], trans[idx]), desired)
            for j, i in enumerate(idx.tolist()):
                current = Pose(mats[i], trans[i])
                one = relative_pose(desired, current)
                assert same_bits(rel.C[j], one.C)
                assert same_bits(rel.t[j], one.t)
                redone += not same_bits(one.C, desired.C @ mats[i].T)
                twist, error = pbvs_law(one, 0.7)
                assert same_bits(twists[j], twist)
                assert same_bits(errors[j], error)
                te_one, re_one = te_re_reference(current, desired)
                assert same_bits(te[j], te_one) and same_bits(re[j], re_one)
                assert te_re(current, desired) == (te_one, re_one)
    assert redone > 100


@pytest.fixture(scope="module")
def records():
    """Coupled-EKF records of every shipped scenario, by name."""
    return {name: sim.run_batch(replace(scenario(name), max_frames=60),
                                3).records
            for name in SHIPPED}


def test_nees_and_correlation_bit_identical(records):
    """Per scenario and pooled, with a record whose frames a per-frame
    baseline leaves non-finite. noise_free starts from an exactly known
    pose, so its first covariance is singular and the stacked solve falls
    back to per-frame solves; so does a record with one mid-episode
    covariance made singular."""
    gappy = copy.deepcopy(records["adverse"][0])
    gappy.P[::3] = np.nan
    gappy.entropy[::4] = np.nan
    # one mid-episode covariance exactly singular: the stacked solve raises
    # on a record whose singular frame is not the first
    singular = copy.deepcopy(gappy)
    k = 3 * (gappy.frames // 6) + 1  # past the middle, not a NaN frame
    singular.P[k, 2, :] = 0.0
    singular.P[k, :, 2] = 0.0
    assert nees([singular]).count == nees([gappy]).count - 1
    lam = {name: scenario(name).control.lam for name in SHIPPED}
    groups = [(recs, lam[name]) for name, recs in records.items()] + [
        ([gappy], lam["adverse"]), ([singular], lam["adverse"]),
        (sum(records.values(), [gappy]), lam["adverse"])]
    for recs, gain in groups:
        res = nees(recs)
        mean, count = nees_reference(recs)
        assert same_bits(res.mean, mean) and res.count == count
        assert same_bits(uncertainty_correlation(recs, gain),
                         uncertainty_correlation_reference(recs, gain))
    free = records["noise_free"]
    finite = sum(int(np.isfinite(r.P).all(axis=(1, 2)).sum()) for r in free)
    assert nees(free).count < finite


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", SHIPPED)
def test_cli_files_match_reference_writers(name, tmp_path, monkeypatch):
    """`ekfservo run` for each variant and `ekfservo compare`, two trials
    each, write exactly the files of the per-frame writers."""
    results = []

    def spy_run_batch(*args):
        results.append(sim.run_batch(*args))
        return results[-1]

    monkeypatch.setattr(cli, "run_batch", spy_run_batch)
    config = str(SCENARIOS / f"{name}.json")
    base = scenario(name)
    trials = 2
    common = ["--config", config, "--trials", str(trials)]
    for variant in sim.VARIANTS:
        out = tmp_path / variant
        assert cli.main(["run", "--variant", variant, "--out", str(out)]
                        + common) == 0
        expected, _ = run_tree_reference(
            results[-1].records, replace(base, variant=variant), config,
            trials)
        assert _tree(out) == expected, variant
    out = tmp_path / "compare"
    assert cli.main(["compare", "--out", str(out), "--parallelism", "2"]
                    + common) == 0
    summaries = {}
    expected = {}
    for variant, result in zip(("coupled-ekf", "pbvs-perframe"),
                               results[-2:], strict=True):
        files, summaries[variant] = run_tree_reference(
            result.records, replace(base, variant=variant), config, trials)
        expected.update({f"{variant}/{k}": v for k, v in files.items()})
    expected.update(comparison_reference(summaries))
    assert _tree(out) == expected
