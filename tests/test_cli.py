import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import REPO, SCENARIOS
from ekfservo.cli import EPISODE_HEADER, SUMMARY_HEADER, main

NOMINAL = str(SCENARIOS / "nominal.json")


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_zero_trials_valid_empty_summary(tmp_path):
    """An empty batch still names the variant it would have run."""
    out = tmp_path / "out"
    rc = main(["run", "--config", NOMINAL, "--trials", "0",
               "--variant", "pbvs-perframe", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["summary"]["trials"] == 0
    assert summary["summary"]["variant"] == "pbvs-perframe"
    assert summary["summary"]["te_mm_mean"] is None
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == SUMMARY_HEADER
    assert rows[1].startswith("pbvs-perframe,0,0,0,")


def test_identical_invocations_byte_identical(tmp_path):
    args = ["run", "--config", NOMINAL, "--trials", "2", "--seed", "5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    t1, t2 = _tree(out1), _tree(out2)
    assert t1.keys() == t2.keys()
    for name in t1:
        assert t1[name] == t2[name], name


def test_parallelism_levels_byte_identical(tmp_path):
    base = ["run", "--config", NOMINAL, "--trials", "3", "--seed", "11"]
    out1, out2 = tmp_path / "p1", tmp_path / "p3"
    assert main(base + ["--out", str(out1), "--parallelism", "1"]) == 0
    assert main(base + ["--out", str(out2), "--parallelism", "3"]) == 0
    t1, t2 = _tree(out1), _tree(out2)
    assert t1 == t2


def test_malformed_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": }')
    rc = main(["run", "--config", str(bad), "--trials", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and ":1:" in err


def test_missing_field_exit_2(tmp_path, capsys):
    raw = json.loads(Path(NOMINAL).read_text())
    del raw["filter_noise"]
    raw["model_path"] = str(SCENARIOS.parent / "models" / "bracket.xyz")
    bad = tmp_path / "nofield.json"
    bad.write_text(json.dumps(raw))
    rc = main(["run", "--config", str(bad), "--trials", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "filter_noise" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("sensing", "blackout_frames", ["a", 3]),
    (None, "dt", True),
    ("sensing", "sigma_px", float("nan")),
    ("filter_noise", "sigma_vp", float("inf")),
    (None, "seed", -5),
    pytest.param(None, "dt", 10**400, id="None-dt-int_1e400"),
    # the filter squares these stds, and 1e300 squared is no float
    ("filter_noise", "sigma_vw", 1e300),
    ("init_prior", "sigma_phi", 1e300),
    # above 180 degrees the sampled angle only wraps
    ("desired_pose", "rotation_max_deg", 1e300),
    ("initial_pose", "rotation_max_deg", 1e300),
    ("initial_pose", "rotation_max_deg", 180.5),
])
def test_invalid_field_value_exit_2(tmp_path, capsys, section, key, value):
    raw = json.loads(Path(NOMINAL).read_text())
    raw["model_path"] = str(SCENARIOS.parent / "models" / "bracket.xyz")
    (raw if section is None else raw[section])[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    rc = main(["run", "--config", str(bad), "--trials", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    path = key if section is None else f"{section}.{key}"
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err


def test_unallocatable_max_frames_exit_1(tmp_path, capsys):
    """max_frames 10**15 asks for petabytes of per-frame arrays, which
    numpy refuses at once; the run ends in one error line, not a
    traceback."""
    raw = json.loads(Path(NOMINAL).read_text())
    raw["model_path"] = str(SCENARIOS.parent / "models" / "bracket.xyz")
    raw["max_frames"] = 10**15
    big = tmp_path / "big.json"
    big.write_text(json.dumps(raw))
    rc = main(["run", "--config", str(big), "--trials", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "max_frames" in err and "--trials" in err


@pytest.mark.parametrize("max_frames", [2**62, 10**18, 10**19])
def test_oversized_max_frames_exit_1(tmp_path, capsys, max_frames):
    """From max_frames 2**62 on, the per-frame arrays' shape is past the
    largest array numpy can describe, which it reports as a ValueError,
    not a MemoryError; the run ends in the same one error line as a
    budget that merely does not fit."""
    raw = json.loads(Path(NOMINAL).read_text())
    raw["model_path"] = str(SCENARIOS.parent / "models" / "bracket.xyz")
    raw["max_frames"] = max_frames
    big = tmp_path / "big.json"
    big.write_text(json.dumps(raw))
    rc = main(["run", "--config", str(big), "--trials", "2",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: out of memory for max_frames x --trials frames; lower "
        "max_frames or --trials\n")


def test_emitted_files_conform_to_schemas(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", NOMINAL, "--trials", "2", "--seed", "3",
                 "--out", str(out)]) == 0

    summary = json.loads((out / "summary.json").read_text())
    for key in ("variant", "trials", "successes", "failures", "sr_percent",
                "te_mm_mean", "te_mm_std", "re_deg_mean", "re_deg_std",
                "lr_mean", "lr_std", "correlation_r", "nees_mean"):
        assert key in summary["summary"]

    rows = (out / "summary.csv").read_text().strip().split("\n")
    assert rows[0] == SUMMARY_HEADER
    assert len(rows) == 2
    assert len(rows[1].split(",")) == len(SUMMARY_HEADER.split(","))

    for ep in sorted((out / "episodes").glob("*.csv")):
        lines = ep.read_text().strip().split("\n")
        assert lines[0] == EPISODE_HEADER
        width = len(EPISODE_HEADER.split(","))
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == width
            [float(f) for f in fields]  # every field parses as a number

    pose_err = (out / "series_pose_error.csv").read_text().strip().split("\n")
    assert pose_err[0] == "frame,te_mm,re_deg"
    vel = (out / "series_velocity.csv").read_text().strip().split("\n")
    assert vel[0] == "frame,cmd_vx,cmd_vy,cmd_vz,cmd_wx,cmd_wy,cmd_wz,entropy"
    traj = (out / "series_trajectory.csv").read_text().strip().split("\n")
    assert traj[0] == "path,frame,x,y,z"
    paths = {line.split(",")[0] for line in traj[1:]}
    assert paths == {"actual", "geodesic"}


def test_variant_and_policy_flags(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "--config", NOMINAL, "--trials", "1",
                 "--out", str(out), "--variant", "pbvs-perframe",
                 "--no-uncertainty-policy"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["invocation"]["variant"] == "pbvs-perframe"
    assert summary["invocation"]["uncertainty_policy"] is False
    # the memoryless baseline reports no filter-based statistics
    assert summary["summary"]["nees_mean"] is None


def test_policy_flag_equals_null_threshold(tmp_path):
    """The entropy policy has one switch: --no-uncertainty-policy sets
    control.entropy_threshold to inf, which a null threshold already is,
    so both write the same bytes. w_max 0.4 is no power of two, so a
    second clamp of the clamped command would trim a one-ulp overshoot
    (seeds 42-51 reach the angular limit)."""
    raw = json.loads(Path(NOMINAL).read_text())
    raw["model_path"] = str(SCENARIOS.parent / "models" / "bracket.xyz")
    raw["control"].update(entropy_threshold=None, w_max=0.4)
    cfg = tmp_path / "w04.json"
    cfg.write_text(json.dumps(raw))
    trees = []
    for flag in ([], ["--no-uncertainty-policy"]):
        out = tmp_path / f"o{len(trees)}"
        assert main(["run", "--config", str(cfg), "--trials", "10",
                     "--out", str(out)] + flag) == 0
        trees.append(_tree(out))
    on, off = trees
    echo = [json.loads(t.pop("summary.json")) for t in trees]
    assert [e["invocation"]["uncertainty_policy"] for e in echo] == [True,
                                                                     False]
    assert echo[0]["summary"] == echo[1]["summary"]
    assert len(on) == 14 and on.keys() == off.keys()
    for name in on:
        assert on[name] == off[name], name


def test_compare_writes_side_by_side_table(tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", NOMINAL, "--trials", "2",
                 "--seed", "9", "--out", str(out)]) == 0
    table = json.loads((out / "comparison.json").read_text())
    assert set(table) == {"coupled-ekf", "pbvs-perframe"}
    rows = (out / "comparison.csv").read_text().strip().split("\n")
    assert rows[0] == SUMMARY_HEADER
    assert rows[1].startswith("coupled-ekf,")
    assert rows[2].startswith("pbvs-perframe,")
    assert (out / "coupled-ekf" / "summary.json").exists()
    assert (out / "pbvs-perframe" / "summary.json").exists()


def test_compare_loads_config_once(tmp_path, monkeypatch):
    """compare reads its config file once and runs both variants from the
    one Scenario it gives."""
    import ekfservo.cli as cli
    loads = []
    real = cli.load_scenario

    def spy(path):
        loads.append(path)
        return real(path)

    monkeypatch.setattr(cli, "load_scenario", spy)
    assert main(["compare", "--config", NOMINAL, "--trials", "0",
                 "--out", str(tmp_path / "cmp")]) == 0
    assert loads == [NOMINAL]


def test_compare_variants_agree_without_noise(tmp_path):
    """With zero sensing noise and no dropout both pipelines converge to
    the same place; final errors agree to 1e-3."""
    out = tmp_path / "agree"
    cfg = str(SCENARIOS / "noise_free.json")
    assert main(["compare", "--config", cfg, "--trials", "2", "--seed", "4",
                 "--out", str(out)]) == 0
    table = json.loads((out / "comparison.json").read_text())
    a = table["coupled-ekf"]
    b = table["pbvs-perframe"]
    assert a["sr_percent"] == b["sr_percent"] == 100.0
    assert abs(a["te_mm_mean"] - b["te_mm_mean"]) < 1e-3
    assert abs(a["re_deg_mean"] - b["re_deg_mean"]) < 1e-3
    assert abs(a["lr_mean"] - b["lr_mean"]) < 1e-3


def test_compare_occlusion_favors_coupled(tmp_path):
    """With a full-dropout window the filter-driven variant coasts on its
    motion prior while the memoryless baseline loses the object."""
    out = tmp_path / "occl"
    cfg = str(SCENARIOS / "occlusion.json")
    assert main(["compare", "--config", cfg, "--trials", "6", "--seed", "77",
                 "--out", str(out)]) == 0
    table = json.loads((out / "comparison.json").read_text())
    assert (table["coupled-ekf"]["sr_percent"]
            > table["pbvs-perframe"]["sr_percent"])


def test_negative_trials_rejected(tmp_path, capsys):
    rc = main(["run", "--config", NOMINAL, "--trials", "-1",
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("command", ["run", "compare"])
def test_negative_seed_rejected(tmp_path, capsys, command):
    """numpy seeds only from non-negative integers; a negative base seed
    is a usage error, as a negative --trials is."""
    rc = main([command, "--config", NOMINAL, "--trials", "1",
               "--seed", "-1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_parallelism_below_one_rejected(tmp_path, capsys, command, value):
    rc = main([command, "--config", NOMINAL, "--trials", "1",
               "--parallelism", value, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "--parallelism must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_log_level_env_var(tmp_path, monkeypatch):
    import logging

    monkeypatch.setenv("EKFSERVO_LOG", "debug")
    assert main(["run", "--config", NOMINAL, "--trials", "0",
                 "--out", str(tmp_path / "o")]) == 0
    assert logging.getLogger().getEffectiveLevel() == logging.DEBUG
    monkeypatch.setenv("EKFSERVO_LOG", "warning")
    main(["run", "--config", NOMINAL, "--trials", "0",
          "--out", str(tmp_path / "o2")])
    assert logging.getLogger().getEffectiveLevel() == logging.WARNING
    # a level name in any case; other names in the logging module, such
    # as basic_format and _styles, are no levels: warning, no traceback
    for value, level in (("Error", logging.ERROR),
                         ("basic_format", logging.WARNING),
                         ("CRITICAL", logging.CRITICAL),
                         ("_styles", logging.WARNING)):
        monkeypatch.setenv("EKFSERVO_LOG", value)
        assert main(["run", "--config", NOMINAL, "--trials", "0",
                     "--out", str(tmp_path / "o3")]) == 0
        assert logging.getLogger().getEffectiveLevel() == level


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_unusable_out_exit_2_before_the_batch(tmp_path, capsys, monkeypatch,
                                              command, under):
    """An --out that is an existing file, or a path under one, ends in one
    error line and exit 2 before any trial runs."""
    import ekfservo.cli as cli

    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    out = blocker / "sub" if under else blocker

    def no_batch(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_batch", no_batch)
    rc = main([command, "--config", NOMINAL, "--trials", "2",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and err.count("\n") == 1
    assert str(out) in err and "Traceback" not in err
    assert blocker.read_text() == "keep\n"


def _loaded_by_cli_import(packages) -> str:
    """The modules of the given top-level packages in sys.modules after a
    fresh interpreter imports ekfservo.cli, as a printed sorted list."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, ekfservo.cli; "
            "print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] in {tuple(packages)!r}))")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_leaves_scipy_out():
    """scipy is a test-only dependency: importing the CLI must not load it."""
    assert _loaded_by_cli_import(["scipy"]) == "[]"


def test_cli_import_leaves_worker_pool_out():
    """The worker pool is built only for --parallelism > 1, so importing
    the CLI loads neither multiprocessing nor concurrent.futures."""
    assert _loaded_by_cli_import(["multiprocessing", "concurrent"]) == "[]"


def test_propagation_variant_exit_2(tmp_path, capsys):
    raw = json.loads(Path(NOMINAL).read_text())
    raw["model_path"] = str(SCENARIOS.parent / "models" / "bracket.xyz")
    raw["propagation_variant"] = "mixed-jr"
    bad = tmp_path / "old.json"
    bad.write_text(json.dumps(raw))
    rc = main(["run", "--config", str(bad), "--trials", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown field propagation_variant" in capsys.readouterr().err


def test_unknown_field_exit_2(tmp_path, capsys):
    raw = json.loads(Path(NOMINAL).read_text())
    raw["model_path"] = str(SCENARIOS.parent / "models" / "bracket.xyz")
    raw["sensing"]["dropout_prb"] = 0.9
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(raw))
    rc = main(["run", "--config", str(bad), "--trials", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "sensing.dropout_prb" in err and "sensing.dropout_prob" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, edit", [
    (None, {"dt": 1e300}),
    ("control", {"lambda": 1e300, "v_max": 1e300, "w_max": 1e300}),
], ids=["dt", "control"])
def test_numerical_trouble_fails_trials_not_the_run(tmp_path, capsys,
                                                    section, edit):
    """Finite but extreme settings make numpy raise in the dynamics step
    and in episode 0's geodesic rollout. Each trial fails with a label,
    the run exits 0 and writes every file, and series_trajectory.csv
    holds the actual path alone, with one warning and no numpy
    RuntimeWarning beside it."""
    raw = json.loads(Path(NOMINAL).read_text())
    raw["model_path"] = str(SCENARIOS.parent / "models" / "bracket.xyz")
    (raw if section is None else raw[section]).update(edit)
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "--config", str(cfg), "--trials", "2",
                   "--out", str(out)])
    assert rc == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["failures"] == 2
    assert sorted(_tree(out)) == [
        "episodes/episode_0000.csv", "episodes/episode_0001.csv",
        "series_pose_error.csv", "series_trajectory.csv",
        "series_velocity.csv", "summary.csv", "summary.json"]
    traj = (out / "series_trajectory.csv").read_text().strip().split("\n")
    assert {line.split(",")[0] for line in traj[1:]} == {"actual"}
    err = capsys.readouterr().err
    assert err.count("WARNING") == 1 and "geodesic" in err


def test_overflowing_initial_pose_sample_is_infeasible(tmp_path, capsys):
    """A camera 1 cm above an object 4 cm deep has keypoints behind it in
    every draw, so no initial pose is observable: the run ends in the
    infeasible-scenario error line alone, with no numpy RuntimeWarning."""
    raw = json.loads(Path(NOMINAL).read_text())
    raw["model_path"] = str(SCENARIOS.parent / "models" / "bracket.xyz")
    raw["initial_pose"].update(height=0.01, translation_var=0.0)
    cfg = tmp_path / "spin.json"
    cfg.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "--config", str(cfg), "--trials", "2",
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err == ("error: infeasible scenario: no fully "
                                       "observable initial pose in 100 draws\n")


def test_overflowing_actuation_noise_prints_no_warning(tmp_path, capsys):
    """actuation.sigma_v 1e300 throws the camera out to about 1e299 m,
    where no keypoint is visible and the trials run to max_frames. Their
    entropy, NEES and pose errors overflow to inf or nan in the summary
    and in the series files; the run exits 0 with every file written and
    prints neither a numpy RuntimeWarning nor anything else."""
    raw = json.loads(Path(NOMINAL).read_text())
    raw["model_path"] = str(SCENARIOS.parent / "models" / "bracket.xyz")
    raw["actuation"]["sigma_v"] = 1e300
    raw["max_frames"] = 40
    cfg = tmp_path / "shaky.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "--config", str(cfg), "--trials", "2",
                   "--out", str(out)])
    assert rc == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err == ""
    assert len(_tree(out)) == 7
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert (summary["successes"], summary["nees_mean"]) == (0, None)
    pose_error = (out / "series_pose_error.csv").read_text()
    assert "inf" in pose_error
