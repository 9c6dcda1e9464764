"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantities (run with -s or -rA to see them all).

Scenario parameters live in the shipped scenarios/*.json files, so these
tests exercise exactly what the CLI runs.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import SCENARIOS, scenario
from ekfservo.cli import main as cli_main
from ekfservo.control import (
    ControlConfig,
    entropy,
    pbvs_law,
    relative_pose,
    velocity_jacobian,
)
from ekfservo.ekf import (
    FilterState,
    NoiseParams,
    measurement_jacobian,
    propagate,
)
from ekfservo.keypoints import fps_select, predict_keypoints
from ekfservo.lie import Pose, exp_so3, log_so3
from ekfservo.metrics import (
    length_ratio,
    nees,
    te_re,
    trajectory_length,
    uncertainty_correlation,
)
from ekfservo.simulator import (
    LOOK_DOWN,
    geodesic_reference_for,
    run_batch,
    run_episode,
)
from oracles import fd_pose_jacobian, fd_state_transition, random_rotvec, rel_error

pytestmark = pytest.mark.acceptance


def _report(num, name, ok, detail):
    import conftest

    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {verdict} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def _random_state(rng):
    pose = Pose(exp_so3(random_rotvec(rng, 0.9)) @ LOOK_DOWN,
                np.array([0.0, 0.0, 0.3]) + rng.uniform(-0.08, 0.08, 3))
    return FilterState(pose, 1e-4 * np.eye(6))


def test_criterion_1_jacobian_finite_difference_cross_checks(model, intr):
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    kps = fps_select(model, 8)
    noise = NoiseParams(0.01, 0.005)
    dt = 1.0 / 30.0
    worst_f = worst_h = worst_j = 0.0
    for _ in range(100):
        st = _random_state(rng)
        twist = rng.standard_normal(6) * np.array([0.1] * 3 + [0.4] * 3)

        def mean_map(p, twist=twist):
            return propagate(FilterState(p, np.zeros((6, 6))), twist, dt,
                             noise).mean

        r = exp_so3(-twist[3:] * dt)
        analytic_f = np.zeros((6, 6))
        analytic_f[:3, :3] = r
        analytic_f[3:, 3:] = r
        worst_f = max(worst_f,
                      rel_error(analytic_f, fd_state_transition(mean_map, st.mean)))

        blocks, ok = measurement_jacobian(st.mean, kps, intr)
        assert ok.all()
        uv0, _, _ = predict_keypoints(st.mean, kps, intr)
        u_meas = uv0 + 1.0

        def residual(p):
            uv, _, _ = predict_keypoints(p, kps, intr)
            return (u_meas - uv).ravel()

        worst_h = max(worst_h, rel_error(blocks.reshape(16, 6),
                                         fd_pose_jacobian(residual, st.mean, 16)))

        desired = Pose(LOOK_DOWN, np.array([0.0, 0.0, 0.15])
                       + rng.uniform(-0.05, 0.05, 3))
        cfg = ControlConfig(lam=0.7)
        _, error = pbvs_law(relative_pose(desired, st.mean), cfg.lam)
        jac = velocity_jacobian(error, st.mean, cfg)

        def vel(p):
            return pbvs_law(relative_pose(desired, p), cfg.lam)[0]

        worst_j = max(worst_j, rel_error(jac,
                                         fd_pose_jacobian(vel, st.mean, 6)))
    elapsed = time.perf_counter() - start
    ok = worst_f < 1e-4 and worst_h < 1e-4 and worst_j < 1e-4 and elapsed < 10.0
    _report(1, "Jacobian FD cross-checks", ok,
            f"rel err F={worst_f:.2e} H={worst_h:.2e} J={worst_j:.2e}, "
            f"{elapsed:.1f}s")
    assert worst_f < 1e-4
    assert worst_h < 1e-4
    assert worst_j < 1e-4
    assert elapsed < 10.0


def test_criterion_2_noise_free_exponential_convergence(model):
    start = time.perf_counter()
    sc = scenario("noise_free")
    rec = run_episode(sc)
    assert rec.converged and not rec.failure

    bound = math.exp(-sc.control.lam * sc.dt) * (1.0 + 1e-3)
    worst = 0.0
    for k in range(rec.frames - 1):
        r0 = relative_pose(rec.desired, Pose(rec.gt_C[k], rec.gt_t[k]))
        r1 = relative_pose(rec.desired, Pose(rec.gt_C[k + 1], rec.gt_t[k + 1]))
        for e0, e1 in ((np.linalg.norm(r0.t), np.linalg.norm(r1.t)),
                       (np.linalg.norm(log_so3(r0.C)),
                        np.linalg.norm(log_so3(r1.C)))):
            if e0 > 1e-9:
                worst = max(worst, e1 / e0)
    te, re = te_re(rec.final_gt, rec.desired)
    lr = length_ratio(rec.camera_positions(), geodesic_reference_for(rec, sc))
    elapsed = time.perf_counter() - start
    ok = (worst <= bound and te < 0.5 and re < 0.05 and lr < 1.02
          and elapsed < 5.0)
    _report(2, "noise-free exponential convergence", ok,
            f"decay {worst:.6f} <= {bound:.6f}, TE={te:.3f}mm, "
            f"RE={re:.4f}deg, LR={lr:.5f}, {elapsed:.1f}s")
    assert worst <= bound
    assert te < 0.5
    assert re < 0.05
    assert lr < 1.02
    assert elapsed < 5.0


def test_criterion_3_filter_consistency_500_trials():
    start = time.perf_counter()
    sc = scenario("consistency")
    res = run_batch(sc, 500)
    result = nees(res.records)
    elapsed = time.perf_counter() - start
    ok = 5.39 <= result.mean <= 6.64 and elapsed < 120.0
    _report(3, "filter consistency (NEES)", ok,
            f"mean NEES={result.mean:.3f} in [5.39, 6.64], "
            f"n={result.count}, {elapsed:.1f}s")
    assert 5.39 <= result.mean <= 6.64
    assert elapsed < 120.0


def test_criterion_4_robustness_ordering():
    start = time.perf_counter()
    sr = {}
    for cond in ("nominal", "adverse"):
        sc = scenario(cond)
        for variant in ("coupled-ekf", "pbvs-perframe"):
            res = run_batch(replace(sc, variant=variant), 100)
            sr[(cond, variant)] = res.summary.sr_percent
    elapsed = time.perf_counter() - start
    nom_c = sr[("nominal", "coupled-ekf")]
    nom_b = sr[("nominal", "pbvs-perframe")]
    adv_c = sr[("adverse", "coupled-ekf")]
    adv_b = sr[("adverse", "pbvs-perframe")]
    ok = (nom_c >= 95.0 and abs(nom_c - nom_b) <= 10.0
          and adv_c - adv_b >= 15.0 and elapsed < 300.0)
    _report(4, "robustness ordering", ok,
            f"nominal {nom_c:.0f}% vs {nom_b:.0f}%, "
            f"adverse {adv_c:.0f}% vs {adv_b:.0f}%, {elapsed:.0f}s")
    assert nom_c >= 95.0
    assert abs(nom_c - nom_b) <= 10.0
    assert adv_c - adv_b >= 15.0
    assert elapsed < 300.0


def test_criterion_5_occlusion_coasting():
    start = time.perf_counter()
    sc = scenario("occlusion")
    coupled = run_batch(replace(sc, variant="coupled-ekf"), 50)
    baseline = run_batch(replace(sc, variant="pbvs-perframe"), 50)
    elapsed = time.perf_counter() - start
    sr_c = coupled.summary.sr_percent
    sr_b = baseline.summary.sr_percent
    ok = sr_c >= 90.0 and sr_b < 50.0 and elapsed < 120.0
    _report(5, "occlusion coasting", ok,
            f"coupled {sr_c:.0f}% >= 90%, baseline {sr_b:.0f}% < 50%, "
            f"{elapsed:.0f}s")
    assert sr_c >= 90.0
    assert sr_b < 50.0
    assert elapsed < 120.0


@pytest.mark.claim
def test_entropy_policy_slows_blind_motion_without_losing_success():
    """The paper's uncertainty-aware control on occlusion_policy.json: 30
    coupled-ekf trials, the entropy policy on against the same seeds with
    it off. Success is no lower with it on, and the camera moves less,
    on average, while the keypoints are blacked out. The price is
    printed beside: the estimate error where the blackout ends (its last
    blind frame and the first frame back) and the length ratio."""
    sc = scenario("occlusion_policy")
    start, stop = sc.sensing.blackout_frames
    assert math.isfinite(sc.control.entropy_threshold)
    sr, blind = {}, {}
    off = replace(sc.control, entropy_threshold=math.inf)
    for policy in (True, False):
        res = run_batch(sc if policy else replace(sc, control=off), 30)
        sr[policy] = res.summary.sr_percent
        blind[policy] = 1000.0 * np.mean([
            trajectory_length(rec.camera_positions()[start:stop + 1])
            for rec in res.records])
        err = [1000.0 * np.mean([np.linalg.norm(rec.est_t[k] - rec.gt_t[k])
                                 for rec in res.records if rec.frames > k])
               for k in (stop - 1, stop)]
        print(f"policy {'on' if policy else 'off'}: SR {sr[policy]:.0f}%, "
              f"blind path {blind[policy]:.1f} mm, estimate error at frames "
              f"{stop - 1}/{stop} {err[0]:.2f}/{err[1]:.2f} mm, "
              f"LR {res.summary.lr_mean:.3f}")
    assert sr[True] >= sr[False]
    assert blind[True] < blind[False]


@pytest.mark.claim
def test_command_prior_closes_the_loop(monkeypatch):
    """The paper's loop closure: the commanded twist, handed to the filter
    as its motion prior, keeps tracking through blackout and outliers.
    30 coupled-ekf trials of occlusion and of adverse, with the command
    prior and again with a zero prior: `simulator.propagate` handed zero
    twists, its process noise raised to sigma_vp = k v_max sqrt(dt) and
    sigma_vw = k w_max sqrt(dt) so that a random walk covers the speed
    limits. At k = 1 the command prior wins SR by at least 30 points on
    both, and on occlusion it has the lower mean estimate error at the
    first frame back after the blackout; k = 3 is printed beside."""
    import ekfservo.simulator as sim

    real = sim.propagate

    def zero_twists(state, twist, dt, noise):
        return real(state, np.zeros_like(twist), dt, noise)

    sr, err = {}, {}
    for name in ("occlusion", "adverse"):
        sc = replace(scenario(name), variant="coupled-ekf")
        back = sc.sensing.blackout_frames[1]  # 0 where there is none
        for k in (None, 1.0, 3.0):
            run = sc
            if k is not None:
                monkeypatch.setattr(sim, "propagate", zero_twists)
                root_dt = math.sqrt(sc.dt)
                run = replace(sc, filter_noise=NoiseParams(
                    k * sc.control.v_max * root_dt,
                    k * sc.control.w_max * root_dt))
            res = run_batch(run, 30)
            monkeypatch.setattr(sim, "propagate", real)
            sr[name, k] = res.summary.sr_percent
            line = (f"{name}, {'command' if k is None else f'zero, k = {k:g}'}"
                    f" prior: SR {sr[name, k]:.0f}%")
            if back:
                err[name, k] = 1000.0 * np.mean([
                    np.linalg.norm(rec.est_t[back] - rec.gt_t[back])
                    for rec in res.records if rec.frames > back])
                line += (f", estimate error at frame {back}"
                         f" {err[name, k]:.2f} mm")
            print(line)
    for name in ("occlusion", "adverse"):
        assert sr[name, None] >= sr[name, 1.0] + 30.0
    assert err["occlusion", None] < err["occlusion", 1.0]


@pytest.mark.claim
def test_lowest_stop_error_at_equal_reliability():
    """The paper's accuracy claim, read as the accuracy a loop can reach
    and still hold: TE measures where the hold rule stops, so v_eps is
    swept over {0.012, 0.006, 0.003} on nominal and adverse, 30 trials per
    variant. On both, coupled-ekf's lowest mean TE among the settings with
    SR >= 95% is below pbvs-perframe's, or pbvs-perframe has no such
    setting."""
    for name in ("nominal", "adverse"):
        best = {}
        for variant in ("coupled-ekf", "pbvs-perframe"):
            best[variant] = math.inf
            for v_eps in (0.012, 0.006, 0.003):
                s = run_batch(replace(scenario(name), variant=variant,
                                      v_eps=v_eps), 30, 2).summary
                te = "-" if s.te_mm_mean is None else f"{s.te_mm_mean:.2f} mm"
                print(f"{name}, {variant}, v_eps {v_eps}: "
                      f"SR {s.sr_percent:.0f}%, TE {te}")
                if s.sr_percent >= 95.0:
                    best[variant] = min(best[variant], s.te_mm_mean)
        assert best["coupled-ekf"] < best["pbvs-perframe"]


def test_criterion_6_uncertainty_correlation():
    start = time.perf_counter()
    sc = scenario("correlation")
    res = run_batch(sc, 30)
    r = uncertainty_correlation(res.records, sc.control.lam)
    elapsed = time.perf_counter() - start
    ok = r >= 0.6 and elapsed < 60.0
    _report(6, "uncertainty correlation", ok,
            f"Pearson r={r:.3f} >= 0.6, {elapsed:.0f}s")
    assert r >= 0.6
    assert elapsed < 60.0


def test_criterion_7_entropy_arithmetic():
    expected = 3.0 * (1.0 + math.log(2.0 * math.pi))
    err_identity = abs(entropy(np.eye(6)) - expected)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6))
    cov = a @ a.T + np.eye(6)
    err_scaling = abs(entropy(4.0 * cov) - entropy(cov) - 6.0 * math.log(2.0))
    ok = err_identity < 1e-9 and err_scaling < 1e-9
    _report(7, "entropy arithmetic", ok,
            f"identity err={err_identity:.1e}, scaling err={err_scaling:.1e}")
    assert err_identity < 1e-9
    assert err_scaling < 1e-9


def test_criterion_8_cli_determinism(tmp_path):
    cfg = str(SCENARIOS / "nominal.json")
    outs = []
    for tag, par in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / tag
        rc = cli_main(["run", "--config", cfg, "--trials", "3", "--seed",
                       "123", "--out", str(out), "--parallelism", str(par)])
        assert rc == 0
        outs.append({str(p.relative_to(out)): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()})
    identical = outs[0] == outs[1] == outs[2]
    _report(8, "CLI determinism", identical,
            f"{len(outs[0])} files byte-identical across reruns and "
            "parallelism 1 vs 2")
    assert identical
