"""Batch experiment front end.

Subcommands:
    run      one variant of a scenario, N trials -> episode logs, summary,
             plot-ready series
    compare  the filter-driven controller against the per-frame baseline on
             identical seeds -> side-by-side table

All outputs are plain text with fully deterministic content: running the
same invocation twice produces byte-identical trees at any parallelism.
Set EKFSERVO_LOG=debug|info|warning|error|critical to control log
verbosity.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, load_scenario
from .lie import Pose, rotation_to_quaternion
from .metrics import Summary, te_re
from .simulator import (
    VARIANTS,
    BatchResult,
    EpisodeRecord,
    InfeasibleScenario,
    Scenario,
    _quiet,
    geodesic_reference_for,
    run_batch,
)

logger = logging.getLogger(__name__)

EPISODE_HEADER = (
    "frame,gt_qw,gt_qx,gt_qy,gt_qz,gt_tx,gt_ty,gt_tz,"
    "est_qw,est_qx,est_qy,est_qz,est_tx,est_ty,est_tz,"
    "cmd_vx,cmd_vy,cmd_vz,cmd_wx,cmd_wy,cmd_wz,entropy,resid_rms"
)
SUMMARY_HEADER = ",".join(f.name for f in fields(Summary))
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


class UsageError(Exception):
    """A flag value found unusable before the first trial (exit 2)."""


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, value, least in (("--trials", args.trials, 0),
                               ("--parallelism", args.parallelism, 1),
                               ("--seed", args.seed, 0)):
        if value is not None and value < least:
            print(f"error: {flag} must be >= {least}", file=sys.stderr)
            return 2
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleScenario as exc:
        print(f"error: infeasible scenario: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # the per-frame arrays of every trial
        print("error: out of memory for max_frames x --trials frames; "
              "lower max_frames or --trials", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ekfservo",
        description="Closed-loop visual servoing batches and comparisons")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--trials", type=int, default=30)
        p.add_argument("--seed", type=int, default=None,
                       help="base seed (default: scenario file seed)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--parallelism", type=int, default=1)
        p.add_argument("--no-uncertainty-policy", action="store_true",
                       help="disable the entropy-gated velocity reduction")

    p_run = sub.add_parser("run", help="run one controller variant")
    common(p_run)
    p_run.add_argument("--variant", choices=VARIANTS, default=None,
                       help="controller variant (default: scenario file)")

    p_cmp = sub.add_parser("compare",
                           help="coupled-ekf vs pbvs-perframe on same seeds")
    common(p_cmp)
    p_cmp.set_defaults(variant=None)
    return parser


def _prepare_scenario(args) -> Scenario:
    scenario = load_scenario(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.variant:
        updates["variant"] = args.variant
    if args.no_uncertainty_policy:
        updates["control"] = replace(scenario.control,
                                     entropy_threshold=float("inf"))
    return replace(scenario, **updates) if updates else scenario


def _make_out(path: str) -> Path:
    """The --out directory, made once the flags and the config are valid
    and before the first trial, so that an unusable path ends the run
    before any trial runs."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out: {exc.strerror or exc}: {path}") from exc
    return out


def _cmd_run(args) -> int:
    scenario = _prepare_scenario(args)
    out = _make_out(args.out)
    result = run_batch(scenario, args.trials, args.parallelism)
    _write_run_outputs(out, scenario, result, args)
    logger.info("wrote %d episodes to %s", len(result.records), out)
    return 0


def _cmd_compare(args) -> int:
    base = _prepare_scenario(args)
    out = _make_out(args.out)
    summaries = {}
    for variant in ("coupled-ekf", "pbvs-perframe"):
        scenario = replace(base, variant=variant)
        result = run_batch(scenario, args.trials, args.parallelism)
        _write_run_outputs(out / variant, scenario, result, args)
        summaries[variant] = result.summary
    _write_json(out / "comparison.json",
                {v: s.to_dict() for v, s in summaries.items()})
    lines = [SUMMARY_HEADER] + [_summary_row(s) for s in summaries.values()]
    _write_text(out / "comparison.csv", "\n".join(lines) + "\n")
    return 0


def _write_run_outputs(out: Path, scenario: Scenario, result: BatchResult,
                       args) -> None:
    records, summary = result.records, result.summary
    (out / "episodes").mkdir(parents=True, exist_ok=True)
    for i, rec in enumerate(records):
        _write_text(out / "episodes" / f"episode_{i:04d}.csv",
                    _episode_csv(rec))
    payload = {
        "summary": summary.to_dict(),
        "invocation": {
            "config": str(args.config),
            "trials": args.trials,
            "base_seed": scenario.seed,
            "variant": scenario.variant,
            "uncertainty_policy": not args.no_uncertainty_policy,
        },
    }
    _write_json(out / "summary.json", payload)
    _write_text(out / "summary.csv",
                SUMMARY_HEADER + "\n" + _summary_row(summary) + "\n")
    if records:
        reference = result.reference
        if reference is None:
            try:
                reference = geodesic_reference_for(records[0], scenario)
            except (np.linalg.LinAlgError, FloatingPointError) as exc:
                logger.warning("episode 0's geodesic rollout raised %r; "
                               "series_trajectory.csv lacks it", exc)
                reference = np.empty((0, 3))
        _write_series(out, records[0], reference)


def _episode_csv(rec: EpisodeRecord) -> str:
    gt_q, est_q = np.split(
        rotation_to_quaternion(np.concatenate([rec.gt_C, rec.est_C])), 2)
    table = np.concatenate([gt_q, rec.gt_t, est_q, rec.est_t, rec.cmd,
                            rec.entropy[:, None], rec.resid_rms[:, None]],
                           axis=1)
    return _csv(EPISODE_HEADER, _rows(table))


def _write_series(out: Path, rec: EpisodeRecord, reference) -> None:
    """The pose error, commanded twist and camera path of one episode, and
    its geodesic reference path."""
    with _quiet():
        te, re = te_re(Pose(rec.gt_C, rec.gt_t), rec.desired)
    _write_text(out / "series_pose_error.csv",
                _csv("frame,te_mm,re_deg", _rows(np.stack([te, re], axis=1))))
    _write_text(out / "series_velocity.csv", _csv(
        "frame,cmd_vx,cmd_vy,cmd_vz,cmd_wx,cmd_wy,cmd_wz,entropy",
        _rows(np.concatenate([rec.cmd, rec.entropy[:, None]], axis=1))))
    _write_text(out / "series_trajectory.csv", _csv(
        "path,frame,x,y,z", _rows(rec.camera_positions(), "actual,")
        + _rows(reference, "geodesic,")))


def _rows(table: np.ndarray, prefix: str = "") -> list:
    """One CSV line per row of a float table: the prefix, the row index,
    then each value as _fmt writes it (repr of a float). Rows become
    Python floats one at a time, which keeps the peak memory of a long
    episode down."""
    return [f"{prefix}{k}," + ",".join(map(repr, row.tolist()))
            for k, row in enumerate(table)]


def _csv(header: str, lines: list) -> str:
    return "\n".join([header] + lines) + "\n"


def _summary_row(s: Summary) -> str:
    """Summary's fields in order: a str as is, an int by str, a float by
    _fmt, None as nan."""
    return ",".join(str(v) if isinstance(v, (str, int))
                    else _fmt(float("nan") if v is None else v)
                    for v in astuple(s))


def _fmt(x) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _setup_logging() -> None:
    """EKFSERVO_LOG names a level in any case; anything else is warning."""
    level = os.environ.get("EKFSERVO_LOG", "warning").upper()
    logging.basicConfig(level=level if level in LOG_LEVELS else "WARNING",
                        format="%(levelname)s %(name)s: %(message)s",
                        force=True)


if __name__ == "__main__":
    sys.exit(main())
