"""Closed-loop benchmark of `ekfservo run`.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {tracking,servo-ekf,servo-pnp}
                         [--seed N] [--seconds S] [--trace 0|1]

One caller, one process, `--parallelism 1`: each `ekfservo.cli.main(["run",
...])` call starts when the previous one returns, and writes into a
temporary directory under `.bench_tmp/`. Batch j runs trials with seeds
base + j*trials .. base + (j+1)*trials - 1, where the base seed is
`--seed` and defaults to the scenario file's seed. Calls continue until
`--seconds` have passed, and at least MIN_BATCHES are always made.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. The rates
frames_per_s and episodes_per_s are per reference second: each call's
host time is rescaled by a fixed kernel probed before and after it
(calibrate.py), because the shared host's own speed drifts by tens of
percent over minutes. The same rates in host seconds are printed
on a line of their own. `--trace 1` runs each batch twice, untraced and
traced (see tracer.py), in alternating order, and reports the per-layer
metrics, in host time. Both modes first time a fresh interpreter's set-up
(setup_probe.py) and run one unmeasured batch at the scenario's own seed,
whose summary must match bench/reference.json.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
every output check passed, 1 when one failed and 2 when the sources are
missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import Clock
from tracer import ROOT as ROOT_SPAN, Aggregate, Trace, traced

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
REFERENCE = BENCH_DIR / "reference.json"

MIN_BATCHES = 2      # made even when --seconds has run out
COUNT_BATCHES = 2    # counts are taken over this fixed prefix of batches
SETUP_RUNS = 5       # fresh interpreters per run; setup_s is their median
FLOAT_RTOL = 1e-6    # reference check for float summary fields
FLOAT_ATOL = 1e-9
INT_FIELDS = ("trials", "successes", "failures")


@dataclass(frozen=True)
class Workload:
    config: str
    variant: str
    trials: int  # episodes per `ekfservo run` call


WORKLOADS = {
    "tracking": Workload("scenarios/consistency.json", "none", 16),
    "servo-ekf": Workload("scenarios/adverse.json", "coupled-ekf", 6),
    "servo-pnp": Workload("scenarios/adverse.json", "pbvs-perframe", 2),
}

END_TO_END = {
    "frames_per_s": "1/s",
    "episodes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}

PER_LAYER = {
    "keypoints.measure_us": "us",
    "keypoints.visible_ratio": "count",
    "ekf.update_us": "us",
    "ekf.propagate_us": "us",
    "ekf.gate_accept_ratio": "count",
    "ekf.singular_innovations": "count",
    "pnp.refine_us": "us",
    "pnp.gn_iters_per_call": "count",
    "pnp.refine_none_ratio": "count",
    "control.us_per_frame": "us",
    "simulator.step_dynamics_us": "us",
    "simulator.episode_self_us_per_frame": "us",
    "simulator.frames": "count",
    "metrics.summarize_ms_per_episode": "ms",
    "metrics.geodesic_ms_per_call": "ms",
    "metrics.nees_us_per_frame": "us",
    "metrics.correlation_us_per_frame": "us",
    "cli.write_ms_per_episode": "ms",
    "config.load_ms": "ms",
    "setup.import_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


class SourcesMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


class Run:
    """What one benchmark run attempted, failed and found wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, text: str) -> None:
        self.problems.append(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed (default: the scenario file's seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # scenario paths, echoed in summary.json, are relative
    try:
        modules = _import_program()
    except SourcesMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    scenario = modules["config"].load_scenario(ROOT / wl.config)
    base_seed = scenario.seed if args.seed is None else args.seed
    _print_environment()

    run = Run()
    setup = _measure_setup(wl)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        _check_reference(modules, wl, args.workload, scenario.seed, tmp, run)
        if args.trace:
            metrics = _traced_run(modules, wl, scenario, base_seed,
                                  args.seconds, tmp, run)
            metrics["config.load_ms"] = 1e3 * setup["load_s"]
            metrics["setup.import_s"] = setup["import_s"]
            units = PER_LAYER
        else:
            metrics = _untraced_run(modules, wl, base_seed, args.seconds,
                                    tmp, run)
            metrics["setup_s"] = setup["setup_s"]
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        _remove_if_empty(TMP_ROOT)

    _check_declared(units, args.trace, run)
    for text in run.problems:
        print(f"CHECK FAILED: {text}")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"{args.workload} base_seed={base_seed} attempted={run.attempted} "
          f"failed={run.failed} error_rate={error_rate:.6g}")
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


def _import_program() -> dict:
    """Import ekfservo from this checkout's `src/`, never from elsewhere."""
    package = SRC / "ekfservo"
    if not (package / "__init__.py").is_file():
        raise SourcesMissing(f"no ekfservo sources under {SRC}")
    for wl in WORKLOADS.values():
        if not (ROOT / wl.config).is_file():
            raise SourcesMissing(f"missing scenario file {wl.config}")
    sys.path.insert(0, str(SRC))
    import ekfservo
    import ekfservo.cli
    import ekfservo.config
    import ekfservo.metrics
    import ekfservo.pnp
    import ekfservo.simulator

    if package.resolve() not in Path(ekfservo.__file__).resolve().parents:
        raise SourcesMissing(f"ekfservo imported from {ekfservo.__file__}")
    return {"cli": ekfservo.cli, "config": ekfservo.config,
            "metrics": ekfservo.metrics, "pnp": ekfservo.pnp,
            "simulator": ekfservo.simulator}


def _print_environment() -> None:
    import numpy
    import scipy

    print(f"python {platform.python_version()} numpy {numpy.__version__} "
          f"scipy {scipy.__version__} nproc {len(os.sched_getaffinity(0))}")


def _measure_setup(wl: Workload) -> dict:
    """Median over SETUP_RUNS fresh interpreters. setup_s is the wall time
    from process start to exit, in host seconds: calibrate.py's kernel
    does not track the speed of an interpreter's start (rescaled by it,
    the spread of setup_s grew); the phases come from the child."""
    walls, phases = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
             str(ROOT / wl.config)],
            capture_output=True, text=True, check=True, cwd=ROOT,
            timeout=120)
        walls.append(time.perf_counter() - start)
        phases.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {"setup_s": statistics.median(walls),
            "import_s": statistics.median(p["import_s"] for p in phases),
            "load_s": statistics.median(p["load_s"] for p in phases)}


def _argv(wl: Workload, seed: int, out: Path) -> list:
    return ["run", "--config", wl.config, "--variant", wl.variant,
            "--trials", str(wl.trials), "--seed", str(seed),
            "--parallelism", "1", "--out", str(out)]


def _call(modules, wl: Workload, seed: int, out: Path, run: Run,
          main=None) -> tuple[int, dict | None]:
    """One `ekfservo run` call: wall nanoseconds and the checked outputs
    (None when the call or the output check failed)."""
    main = main or modules["cli"].main
    run.attempted += wl.trials
    start = time.perf_counter_ns()
    try:
        rc = main(_argv(wl, seed, out))
    except Exception as exc:  # the batch is lost; count it and go on
        wall = time.perf_counter_ns() - start
        run.failed += wl.trials
        run.problem(f"seed {seed}: ekfservo run raised {exc!r}")
        return wall, None
    wall = time.perf_counter_ns() - start
    if rc != 0:
        run.failed += wl.trials
        run.problem(f"seed {seed}: ekfservo run exited with {rc}")
        return wall, None
    outputs = _read_outputs(modules, wl, seed, out, run)
    if outputs is None:
        run.failed += wl.trials
    else:
        run.failed += outputs["summary"]["failures"]
    shutil.rmtree(out, ignore_errors=True)
    return wall, outputs


def _read_outputs(modules, wl: Workload, seed: int, out: Path,
                  run: Run) -> dict | None:
    """Check the structure of one call's output tree; return the summary,
    the summary.json bytes and the frame count."""
    try:
        bad, outputs = _inspect_outputs(modules["cli"], wl, seed, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        bad, outputs = [f"unreadable outputs: {exc!r}"], None
    if bad:
        run.problem(f"seed {seed}: " + "; ".join(bad))
        return None
    return outputs


def _inspect_outputs(cli, wl: Workload, seed: int, out: Path):
    bad = []
    summary_bytes = (out / "summary.json").read_bytes()
    payload = json.loads(summary_bytes)
    summary, inv = payload["summary"], payload["invocation"]
    if summary["trials"] != wl.trials or inv["trials"] != wl.trials:
        bad.append(f"trials {summary['trials']} != {wl.trials}")
    if inv["base_seed"] != seed or summary["variant"] != wl.variant:
        bad.append("invocation does not echo seed and variant")
    if not (0 <= summary["successes"] <= summary["trials"]
            and 0 <= summary["failures"] <= summary["trials"]):
        bad.append("successes/failures out of range")
    if summary["sr_percent"] != 100.0 * summary["successes"] / wl.trials:
        bad.append("sr_percent disagrees with successes/trials")
    csv_rows = (out / "summary.csv").read_text().splitlines()
    if (len(csv_rows) != 2 or csv_rows[0] != cli.SUMMARY_HEADER
            or not csv_rows[1].startswith(f"{wl.variant},{wl.trials},")):
        bad.append("summary.csv malformed")
    episodes = sorted((out / "episodes").iterdir())
    if [p.name for p in episodes] != [f"episode_{i:04d}.csv"
                                      for i in range(wl.trials)]:
        bad.append("episode files missing or extra")
    episode_frames = []
    for path in episodes:
        lines = path.read_text().splitlines()
        n = len(lines) - 1
        if lines[0] != cli.EPISODE_HEADER or (
                n and not lines[-1].startswith(f"{n - 1},")):
            bad.append(f"{path.name} malformed")
        episode_frames.append(n)
    # the series files describe episode 0 again, one row per frame
    for name in ("series_pose_error.csv", "series_velocity.csv"):
        rows = len((out / name).read_text().splitlines()) - 1
        if rows != episode_frames[0]:
            bad.append(f"{name} has {rows} frames, episode 0 has "
                       f"{episode_frames[0]}")
    if not (out / "series_trajectory.csv").is_file():
        bad.append("series_trajectory.csv missing")
    return bad, {"summary": summary, "bytes": summary_bytes,
                 "episode_frames": episode_frames,
                 "frames": sum(episode_frames)}


def _check_reference(modules, wl: Workload, name: str, seed: int, tmp: Path,
                     run: Run) -> None:
    """Run one unmeasured batch at the scenario's seed and compare it with
    the recorded one: the summary's integer fields and every episode's
    frame count exactly, its float fields within FLOAT_RTOL/FLOAT_ATOL.
    Also warms the interpreter up."""
    _, outputs = _call(modules, wl, seed, tmp / "reference", run)
    if outputs is None:
        return
    digest = hashlib.sha256(outputs["bytes"]).hexdigest()
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = refs.get(name)
    if ref is None or ref["seed"] != seed or ref["trials"] != wl.trials:
        run.problem(f"no reference summary for {name} at seed {seed}")
        return
    mismatches = _summary_mismatches(ref["summary"], outputs["summary"])
    if outputs["episode_frames"] != ref["episode_frames"]:
        mismatches.append(f"episode frames {outputs['episode_frames']} != "
                          f"reference {ref['episode_frames']}")
    identical = digest == ref["summary_json_sha256"]
    print(f"reference: seed {seed} summary "
          f"{'matches' if not mismatches else 'DIFFERS'}, "
          f"byte-identical {'yes' if identical else 'no'}")
    if mismatches:
        _count_mismatch(outputs, wl, run)
        run.problem(f"reference summary mismatch: {'; '.join(mismatches)}")


def _count_mismatch(outputs: dict, wl: Workload, run: Run) -> None:
    """A batch whose outputs fail a check counts as failed as a whole; its
    own failed episodes were already counted."""
    run.failed += wl.trials - outputs["summary"]["failures"]


def _summary_mismatches(ref: dict, got: dict) -> list:
    out = []
    for key in sorted(set(ref) | set(got)):
        a, b = ref.get(key), got.get(key)
        if key in INT_FIELDS or isinstance(a, str) or a is None or b is None:
            ok = a == b
        else:
            ok = math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)
        if not ok:
            out.append(f"{key}: {b!r} != reference {a!r}")
    return out


def _batches(base_seed: int, wl: Workload, seconds: float):
    """Seeds of the successive batches, until time is up."""
    deadline = time.perf_counter() + seconds
    j = 0
    while j < MIN_BATCHES or time.perf_counter() < deadline:
        yield j, base_seed + j * wl.trials
        j += 1


def _untraced_run(modules, wl: Workload, base_seed: int, seconds: float,
                  tmp: Path, run: Run) -> dict:
    """Throughput over the whole timed window, in reference seconds
    (calibrate.py): the host's speed drifts between calls, and the total
    averages that better than a median of per-call rates does."""
    clock = Clock()
    frames = episodes = 0
    for j, seed in _batches(base_seed, wl, seconds):
        wall_ns, outputs = _call(modules, wl, seed, tmp / f"b{j}", run)
        clock.add(wall_ns / 1e9)
        episodes += wl.trials
        if outputs is not None:
            frames += outputs["frames"]
    print(f"host time: {frames / clock.host_s:.6g} frames/s, "
          f"{episodes / clock.host_s:.6g} episodes/s, "
          f"{clock.reference_s / clock.host_s:.4g} reference s per host s")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "frames_per_s": frames / clock.reference_s,
        "episodes_per_s": episodes / clock.reference_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_rate": 1.0 - run.failed / run.attempted,
    }


def _traced_run(modules, wl: Workload, scenario, base_seed: int,
                seconds: float, tmp: Path, run: Run) -> dict:
    total = Aggregate()
    prefix = Aggregate()
    wall = {"traced": 0, "untraced": 0}  # ns
    frames = episodes = 0
    counts = {"frames": 0, "visible": 0, "used": 0}
    for j, seed in _batches(base_seed, wl, seconds):
        order = ("untraced", "traced") if j % 2 == 0 else ("traced",
                                                           "untraced")
        found = {}
        for mode in order:
            out = tmp / f"b{j}-{mode}"
            if mode == "untraced":
                wall_ns, found[mode] = _call(modules, wl, seed, out, run)
                wall[mode] += wall_ns
                continue
            trace = Trace()
            with traced(modules, trace):
                root = trace.span_wrapper(*ROOT_SPAN, False,
                                          modules["cli"].main)
                wall_ns, found[mode] = _call(modules, wl, seed, out, run,
                                             main=root)
            wall[mode] += wall_ns
            agg = trace.aggregate()
            total.add(agg)
            if trace.result is not None:
                records = trace.result.records
                _check_attribution(agg, records, wl, seed, run)
                frames += sum(r.frames for r in records)
                episodes += len(records)
                if j < COUNT_BATCHES:
                    prefix.add(agg)
                    counts["frames"] += sum(r.frames for r in records)
                    counts["visible"] += sum(int(r.n_visible.sum())
                                             for r in records)
                    counts["used"] += sum(int(r.n_used.sum())
                                          for r in records)
        a, b = found.get("untraced"), found.get("traced")
        if a is not None and b is not None and a["bytes"] != b["bytes"]:
            _count_mismatch(b, wl, run)
            run.problem(f"seed {seed}: traced summary differs from untraced")
    _print_layer_shares(total, wall["traced"])
    return _layer_metrics(total, prefix, counts, frames, episodes, wall,
                          scenario, wl)


def _check_attribution(agg, records, wl: Workload, seed: int,
                       run: Run) -> None:
    """Checks that a wrongly absorbing span, or a missed one, would break.
    Each step of a geodesic rollout calls relative_pose, pbvs_law and
    clamp_twist through the simulator's names, and all those calls must
    count toward metrics or cli. The pbvs_law calls left to control are the
    episode loop's: one per recorded frame of a servo variant, none
    without servoing. An episode that failed may have called it once more
    than it recorded; it is already counted as failed, so that part is
    skipped for its batch."""
    for name in ("control.relative_pose", "control.pbvs_law",
                 "control.clamp_twist"):
        if agg.absorbed_calls[name] != agg.rollout_steps:
            run.problem(f"seed {seed}: {agg.absorbed_calls[name]} {name} "
                        f"calls counted toward metrics or cli, the geodesic "
                        f"rollouts made {agg.rollout_steps}")
    if any(r.failure for r in records):
        return
    frames = sum(r.frames for r in records) if wl.variant != "none" else 0
    direct = agg.direct_calls("control.pbvs_law")
    if direct != frames:
        run.problem(f"seed {seed}: {direct} control.pbvs_law calls counted "
                    f"toward control, the episodes servoed {frames} frames")


def _print_layer_shares(total, traced_ns: int) -> None:
    """Layer self times as shares of the traced wall time. Every span's
    self time goes to exactly one layer, so the layers sum to the root
    spans by construction; the unattributed remainder is the traced time
    outside the root span."""
    for layer, ns in sorted(total.layer_ns.items(), key=lambda kv: -kv[1]):
        print(f"layer {layer:10s} {100.0 * ns / traced_ns:6.2f}% "
              "of traced wall")
    unattributed = traced_ns - total.root_ns
    print(f"layer {'unattrib.':10s} {100.0 * unattributed / traced_ns:6.2f}%")


def _layer_metrics(total, prefix, counts, frames, episodes, wall,
                   scenario, wl) -> dict:
    def per(ns, n, scale):
        return ns / n / scale if n else 0.0

    def self_per_call(name, scale=1e3):
        return per(total.self_ns[name], total.calls[name], scale)

    refine_calls = prefix.calls["pnp.refine_pose"]
    control_ns = sum(total.direct_self_ns(n) for n in total.self_ns
                     if n.startswith("control."))
    uses_ekf = wl.variant in ("coupled-ekf", "none")
    return {
        "keypoints.measure_us": self_per_call("keypoints.measure"),
        "keypoints.visible_ratio": per(
            counts["visible"], counts["frames"] * scenario.n_keypoints, 1),
        "ekf.update_us": self_per_call("ekf.update"),
        "ekf.propagate_us": self_per_call("ekf.propagate"),
        "ekf.gate_accept_ratio": (per(counts["used"], counts["visible"], 1)
                                  if uses_ekf else 0.0),
        "ekf.singular_innovations": float(
            prefix.errors[("ekf.update", "SingularInnovation")]),
        "pnp.refine_us": self_per_call("pnp.refine_pose"),
        "pnp.gn_iters_per_call": per(
            prefix.counts["pnp.predict_keypoints"], refine_calls, 1),
        "pnp.refine_none_ratio": per(
            prefix.nones["pnp.refine_pose"], refine_calls, 1),
        "control.us_per_frame": per(control_ns, frames, 1e3),
        "simulator.step_dynamics_us": self_per_call(
            "simulator.step_dynamics"),
        "simulator.episode_self_us_per_frame": per(
            total.self_ns["simulator.run_episode"], frames, 1e3),
        "simulator.frames": float(counts["frames"]),
        "metrics.summarize_ms_per_episode": per(
            total.total_ns["metrics.summarize"], episodes, 1e6),
        "metrics.geodesic_ms_per_call": per(
            total.total_ns["metrics.geodesic_reference_for"],
            total.calls["metrics.geodesic_reference_for"], 1e6),
        "metrics.nees_us_per_frame": per(
            total.total_ns["metrics.nees"], frames, 1e3),
        "metrics.correlation_us_per_frame": per(
            total.total_ns["metrics.uncertainty_correlation"], frames, 1e3),
        "cli.write_ms_per_episode": per(total.layer_ns["cli"], episodes,
                                        1e6),
        "trace.overhead_pct": 100.0 * (wall["traced"] / wall["untraced"]
                                       - 1.0),
        "trace.unattributed_pct": 100.0 * (wall["traced"] - total.root_ns)
                                  / wall["traced"],
    }


def _check_declared(units: dict, trace: int, run: Run) -> None:
    """The metrics printed must be the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    if declared != units:
        run.problem("metrics differ from those declared in BENCHMARK.json")


def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
