"""The contract between the program and the benchmark's tracer
(bench/tracer.py): every name it wraps exists where it looks, and the
servo loop, single or lockstep over a batch, and the geodesic rollout
call the counted control names as often as the benchmark's attribution
check expects. A rename or a fused step fails here, not only under
`bench/run.py --trace 1`."""
import importlib
from dataclasses import replace

import pytest

import ekfservo.cli
import ekfservo.config
import ekfservo.metrics
import ekfservo.pnp
import ekfservo.simulator as sim
from conftest import SCENARIOS, load_bench, scenario


def _counting(monkeypatch, names):
    """Count the calls made through ekfservo.simulator's names."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(sim, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(sim, name, spy)
    return counts


def test_traced_names_resolve():
    tracer = load_bench("tracer")
    pairs = [(mod, attr) for mod, attr, *_ in tracer.SPANS]
    pairs += [(mod, attr) for mod, attr, _ in tracer.COUNTERS]
    assert len(pairs) > 10
    for mod, attr in pairs:
        module = importlib.import_module(f"ekfservo.{mod}")
        assert callable(getattr(module, attr, None)), f"ekfservo.{mod}.{attr}"


@pytest.mark.parametrize("variant", ["coupled-ekf", "pbvs-perframe"])
def test_loop_calls_pbvs_law_once_per_recorded_frame(monkeypatch, variant):
    counts = _counting(monkeypatch, ("pbvs_law", "relative_pose"))
    rec = sim.run_episode(replace(scenario("adverse"), variant=variant,
                                  max_frames=40))
    assert rec.failure is None and rec.frames > 0
    assert counts == {"pbvs_law": rec.frames, "relative_pose": rec.frames}


def test_loop_without_servoing_calls_no_control(monkeypatch):
    counts = _counting(monkeypatch, ("pbvs_law", "relative_pose"))
    sc = replace(scenario("consistency"), max_frames=20)
    rec = sim.run_episode(sc)
    assert sc.variant == "none" and rec.frames == 20
    assert counts == {"pbvs_law": 0, "relative_pose": 0}


@pytest.mark.parametrize("variant", ["coupled-ekf", "pbvs-perframe"])
def test_batch_calls_control_once_per_recorded_trial_frame(monkeypatch,
                                                          variant):
    """The lockstep engine still runs the control step and the PnP
    refinement once per active trial and frame, through the simulator's
    names."""
    counts = _counting(monkeypatch,
                       ("pbvs_law", "relative_pose", "refine_pose"))
    res = sim.run_batch(replace(scenario("adverse"), variant=variant,
                                max_frames=40), 3)
    frames = sum(rec.frames for rec in res.records)
    # no failure, and no success whose geodesic rollout would add calls
    assert all(rec.failure is None and not rec.converged
               for rec in res.records)
    assert frames == 3 * 40
    refines = frames if variant == "pbvs-perframe" else 0
    assert counts == {"pbvs_law": frames, "relative_pose": frames,
                      "refine_pose": refines}


# explicit ids keep the rows' names stable
@pytest.mark.parametrize("variant, threshold", [
    ("coupled-ekf", None),
    ("pbvs-perframe", None),
    ("coupled-ekf", -33.40),
], ids=["coupled-ekf-True-True", "pbvs-perframe-True-False",
        "coupled-ekf-True-True-fires"])
def test_batch_clamps_once_per_recorded_trial_frame(monkeypatch, variant,
                                                     threshold):
    """control.us_per_frame sums the control spans, clamp_twist among
    them. In a lockstep batch, clamp_twist runs once per recorded
    trial-frame through the simulator's name, and the entropy policy,
    which scales the clamped commands, clamps none again. The count holds
    when a finite threshold makes the policy reduce some of the commands,
    too."""
    counts = _counting(monkeypatch, ("clamp_twist",))
    sc = scenario("adverse")
    if threshold is not None:
        sc = replace(sc, control=replace(sc.control,
                                         entropy_threshold=threshold))
    res = sim.run_batch(replace(sc, variant=variant, max_frames=40), 3)
    frames = sum(rec.frames for rec in res.records)
    assert all(rec.failure is None and not rec.converged
               for rec in res.records)
    assert frames == 3 * 40
    assert counts == {"clamp_twist": frames}
    if threshold is not None:
        fired = sum(int((rec.entropy > threshold).sum())
                    for rec in res.records)
        assert 0 < fired < frames


def test_batch_without_servoing_calls_no_control(monkeypatch):
    counts = _counting(monkeypatch,
                       ("pbvs_law", "relative_pose", "refine_pose"))
    res = sim.run_batch(replace(scenario("consistency"), max_frames=20), 3)
    assert res.summary.variant == "none"
    assert sum(rec.frames for rec in res.records) == 3 * 20
    assert counts == {"pbvs_law": 0, "relative_pose": 0, "refine_pose": 0}


@pytest.mark.parametrize("name, variant, max_frames", [
    ("adverse", "coupled-ekf", 40),
    ("adverse", "coupled-ekf", 450),
    ("consistency", "none", 20),
])
def test_lockstep_batch_updates_once_per_frame(monkeypatch, name, variant,
                                               max_frames):
    """The tracer times `simulator.update` per call (ekf.update_us). A
    lockstep EKF batch makes exactly one stacked call per frame it runs,
    however many trials are still active in it, so that figure is the
    cost of one frame's update of the batch. At full length the adverse
    trials converge at different frames and the active set shrinks."""
    counts = _counting(monkeypatch, ("update",))
    res = sim.run_batch(replace(scenario(name), variant=variant,
                                max_frames=max_frames), 3)
    assert all(rec.failure is None for rec in res.records)
    frames = [rec.frames for rec in res.records]
    if max_frames == 450:
        assert len(set(frames)) == 3
    assert counts == {"update": max(frames)}


@pytest.mark.parametrize("name, variant, max_frames", [
    ("adverse", "coupled-ekf", 40),
    ("adverse", "coupled-ekf", 450),
    ("adverse", "pbvs-perframe", 40),
    ("consistency", "none", 20),
])
def test_lockstep_batch_runs_control_chain_once_per_frame(monkeypatch, name,
                                                          variant,
                                                          max_frames):
    """control.us_per_frame also sums the spans of velocity_jacobian,
    velocity_covariance, entropy and apply_policy. A lockstep coupled-ekf
    batch calls each of them once per frame it runs, through the
    simulator's names, on a stack of the trials still active, so their
    time stays in the control layer however many trials share the frame.
    At full length the adverse trials converge at different frames and
    the stack shrinks. Without an EKF belief to servo on, none of them
    runs."""
    counts = _counting(monkeypatch, ("velocity_jacobian",
                                     "velocity_covariance", "entropy",
                                     "apply_policy"))
    res = sim.run_batch(replace(scenario(name), variant=variant,
                                max_frames=max_frames), 3)
    assert all(rec.failure is None for rec in res.records)
    frames = [rec.frames for rec in res.records]
    if max_frames == 450:
        assert len(set(frames)) == 3
    calls = max(frames) if variant == "coupled-ekf" else 0
    assert counts == dict.fromkeys(counts, calls)


def test_geodesic_rollout_calls_control_once_per_step(monkeypatch):
    sc = scenario("nominal")
    rec = sim.run_episode(replace(sc, max_frames=5))
    counts = _counting(monkeypatch,
                       ("relative_pose", "pbvs_law", "clamp_twist"))
    positions = sim.geodesic_reference(rec.initial_gt, rec.desired, sc)
    steps = len(positions) - 1
    assert steps > 10
    assert counts == dict.fromkeys(counts, steps)


def test_traced_run_attributes_rollouts_and_loop_calls(tmp_path):
    """bench/run.py's attribution check on a traced, converging servo-ekf
    `ekfservo run`: the control calls absorbed into metrics or cli are
    exactly the geodesic rollouts' steps, and those left to control are
    one pbvs_law per recorded trial-frame. Episode 0's rollout, computed
    for its length ratio, is reused for the series files, not rolled out
    again."""
    tracer = load_bench("tracer")
    modules = {"cli": ekfservo.cli, "config": ekfservo.config,
               "metrics": ekfservo.metrics, "pnp": ekfservo.pnp,
               "simulator": sim}
    with tracer.traced(modules, tracer.Trace()) as trace:
        assert ekfservo.cli.main([
            "run", "--config", str(SCENARIOS / "adverse.json"),
            "--variant", "coupled-ekf", "--trials", "2",
            "--out", str(tmp_path / "o")]) == 0
    agg = trace.aggregate()
    result = trace.result
    assert all(rec.converged and rec.failure is None
               for rec in result.records)
    assert result.summary.successes == 2 and result.reference is not None
    assert agg.calls["metrics.geodesic_reference_for"] == 2
    assert agg.calls["cli.geodesic_reference_for"] == 0
    assert agg.rollout_steps > 10
    for name in ("control.relative_pose", "control.pbvs_law",
                 "control.clamp_twist"):
        assert agg.absorbed_calls[name] == agg.rollout_steps, name
    assert agg.direct_calls("control.pbvs_law") == sum(
        rec.frames for rec in result.records)
