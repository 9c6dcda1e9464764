import json
import math
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from conftest import SCENARIOS
from ekfservo import config
from ekfservo.cli import main
from ekfservo.config import ConfigError, load_scenario
from ekfservo.control import ControlConfig
from ekfservo.keypoints import SensingProfile
from ekfservo.simulator import PoseSampler, Scenario

ALL_SCENARIOS = sorted(p.stem for p in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_shipped_scenarios_load(name):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    assert sc.model.diameter > 0
    assert sc.n_keypoints >= 4
    assert sc.dt > 0


def test_entropy_threshold_null_means_disabled():
    sc = load_scenario(SCENARIOS / "nominal.json")
    assert sc.control.entropy_threshold == math.inf


def test_required_fields_alone_take_the_defaults(tmp_path):
    """Every optional field falls back to its dataclass default, and
    those are the defaults README's table lists."""
    raw = _valid_dict()
    required = {key: raw[key] for key in ("model_path", "intrinsics",
                                          "filter_noise")}
    required["initial_pose"] = {"height": 0.3}
    required["desired_pose"] = {"height": 0.15}
    sc = load_scenario(_write(tmp_path, required))
    assert sc.sensing == SensingProfile()
    assert sc.control == ControlConfig()
    assert sc.initial_pose == PoseSampler(0.3)
    assert sc.desired_pose == PoseSampler(0.15)
    defaults = {f.name: f.default for f in fields(Scenario)
                if f.default is not MISSING}
    assert {name: getattr(sc, name) for name in defaults} == defaults
    # README's table
    assert (sc.seed, sc.dt, sc.max_frames, sc.n_keypoints) == (0, 1 / 30,
                                                               450, 8)
    assert (sc.actuation_sigma_v, sc.actuation_sigma_w) == (0.0, 0.0)
    assert (sc.init_sigma_t, sc.init_sigma_phi) == (0.0, 0.0)
    assert (sc.v_eps, sc.k_hold) == (1e-3, 10)
    assert sc.gate_level == 0.999
    assert sc.variant == "coupled-ekf"
    assert sc.control.entropy_threshold == math.inf
    assert sc.sensing.blackout_frames == (0, 0)
    assert (sc.initial_pose.translation_var,
            sc.initial_pose.rotation_max_deg) == (0.0, 0.0)


def _write(tmp_path, payload) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    return path


def _valid_dict():
    raw = json.loads((SCENARIOS / "nominal.json").read_text())
    raw["model_path"] = str(SCENARIOS.parent / "models" / "bracket.xyz")
    return raw


def test_malformed_json_reports_line(tmp_path):
    path = _write(tmp_path, '{"seed": 1,\n  "dt": }\n')
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert ":2:" in str(err.value)


def test_missing_required_field(tmp_path):
    raw = _valid_dict()
    del raw["intrinsics"]
    with pytest.raises(ConfigError) as err:
        load_scenario(_write(tmp_path, raw))
    assert "intrinsics" in str(err.value)


@pytest.mark.parametrize("section", ["intrinsics", "filter_noise",
                                     "initial_pose", "desired_pose"])
def test_null_required_section_is_missing(tmp_path, section):
    raw = _valid_dict()
    raw[section] = None
    with pytest.raises(ConfigError, match="missing required section "
                                          f"{section}"):
        load_scenario(_write(tmp_path, raw))


@pytest.mark.parametrize("section", ["actuation", "sensing", "control",
                                     "init_prior", "convergence"])
def test_null_optional_section_takes_defaults(tmp_path, section):
    """An optional section that is null reads as absent (README)."""
    raw = _valid_dict()
    raw[section] = None
    sc = load_scenario(_write(tmp_path, raw))
    read = {"actuation": (sc.actuation_sigma_v, sc.actuation_sigma_w),
            "sensing": sc.sensing, "control": sc.control,
            "init_prior": (sc.init_sigma_t, sc.init_sigma_phi),
            "convergence": (sc.v_eps, sc.k_hold)}
    default = {"actuation": (0.0, 0.0), "sensing": SensingProfile(),
               "control": ControlConfig(), "init_prior": (0.0, 0.0),
               "convergence": (1e-3, 10)}
    assert read[section] == default[section]


def test_missing_nested_field_pathed(tmp_path):
    raw = _valid_dict()
    del raw["filter_noise"]["sigma_vp"]
    with pytest.raises(ConfigError) as err:
        load_scenario(_write(tmp_path, raw))
    assert "filter_noise.sigma_vp" in str(err.value)


def test_wrong_type_reported(tmp_path):
    raw = _valid_dict()
    raw["sensing"]["sigma_px"] = "loud"
    with pytest.raises(ConfigError) as err:
        load_scenario(_write(tmp_path, raw))
    assert "sensing.sigma_px" in str(err.value)


def test_bad_domain_value_wrapped(tmp_path):
    raw = _valid_dict()
    raw["sensing"]["dropout_prob"] = 1.7
    with pytest.raises(ConfigError):
        load_scenario(_write(tmp_path, raw))


def test_missing_model_file(tmp_path):
    raw = _valid_dict()
    raw["model_path"] = "nowhere/missing.xyz"
    with pytest.raises(ConfigError) as err:
        load_scenario(_write(tmp_path, raw))
    assert "model_path" in str(err.value)


def test_model_path_relative_to_config(tmp_path):
    raw = _valid_dict()
    (tmp_path / "models").mkdir()
    src = (SCENARIOS.parent / "models" / "bracket.xyz").read_text()
    (tmp_path / "models" / "m.xyz").write_text(src)
    raw["model_path"] = "models/m.xyz"
    sc = load_scenario(_write(tmp_path, raw))
    assert sc.model.points.shape[0] > 4


def test_blackout_frames_roundtrip(tmp_path):
    raw = _valid_dict()
    raw["sensing"]["blackout_frames"] = [5, 25]
    sc = load_scenario(_write(tmp_path, raw))
    assert sc.sensing.blackout_frames == (5, 25)
    raw["sensing"]["blackout_frames"] = None  # keeps the empty default
    sc = load_scenario(_write(tmp_path, raw))
    assert sc.sensing.blackout_frames == (0, 0)
    raw["sensing"]["blackout_frames"] = [5]
    with pytest.raises(ConfigError):
        load_scenario(_write(tmp_path, raw))


@pytest.mark.parametrize("frames", [["a", 3], [5, 2.5], [True, 3], [5, None]])
def test_blackout_frames_must_be_integers(tmp_path, frames):
    raw = _valid_dict()
    raw["sensing"]["blackout_frames"] = frames
    with pytest.raises(ConfigError) as err:
        load_scenario(_write(tmp_path, raw))
    assert "sensing.blackout_frames" in str(err.value)


@pytest.mark.parametrize("section, key", [
    (None, "dt"), ("intrinsics", "fx"), ("intrinsics", "width"),
    ("control", "entropy_threshold"), ("sensing", "sigma_px")])
def test_bool_rejected_in_numeric_field(tmp_path, section, key):
    raw = _valid_dict()
    (raw if section is None else raw[section])[key] = True
    with pytest.raises(ConfigError) as err:
        load_scenario(_write(tmp_path, raw))
    path = key if section is None else f"{section}.{key}"
    assert f"field {path} " in str(err.value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("section, key", [
    ("sensing", "sigma_px"), ("filter_noise", "sigma_vp"),
    ("control", "entropy_threshold"), (None, "dt")])
def test_non_finite_number_rejected(tmp_path, section, key, value):
    raw = _valid_dict()
    (raw if section is None else raw[section])[key] = value
    with pytest.raises(ConfigError) as err:
        load_scenario(_write(tmp_path, raw))
    path = key if section is None else f"{section}.{key}"
    assert f"field {path} " in str(err.value)


def test_variant_field(tmp_path):
    raw = _valid_dict()
    raw["variant"] = "pbvs-perframe"
    assert load_scenario(_write(tmp_path, raw)).variant == "pbvs-perframe"
    raw["variant"] = "hybrid"
    with pytest.raises(ConfigError):
        load_scenario(_write(tmp_path, raw))


@pytest.mark.parametrize("section, key, hint", [
    ("sensing", "dropout_prb", "sensing.dropout_prob"),
    (None, "sed", "seed"),
    ("control", "lamda", "control.lambda"),
    ("init_prior", "zzz", None),
    (None, "notes", None),
])
def test_unknown_field_rejected(tmp_path, section, key, hint):
    raw = _valid_dict()
    (raw if section is None else raw[section])[key] = 0.9
    with pytest.raises(ConfigError) as err:
        load_scenario(_write(tmp_path, raw))
    path = key if section is None else f"{section}.{key}"
    msg = str(err.value)
    assert f"unknown field {path}" in msg
    if hint is None:
        assert "did you mean" not in msg
    else:
        assert f"did you mean {hint}?" in msg


@pytest.mark.parametrize("value", ["left", "mixed-jr"])
def test_propagation_variant_is_unknown(tmp_path, value):
    """The filter has one propagation path; the field that chose between
    two is gone, so a config that still sets it names it as unknown."""
    raw = _valid_dict()
    raw["propagation_variant"] = value
    with pytest.raises(ConfigError) as err:
        load_scenario(_write(tmp_path, raw))
    assert "unknown field propagation_variant" in str(err.value)


@pytest.mark.parametrize("key, value", [("covariance_fidelity", "honest"),
                                        ("fidelity_scale", 2.0)])
def test_covariance_fidelity_fields_are_unknown(tmp_path, key, value):
    """One factor, sensing.reported_scale, sets the reported covariance;
    the two keys it replaced are unknown, with no alias."""
    raw = _valid_dict()
    raw["sensing"][key] = value
    with pytest.raises(ConfigError) as err:
        load_scenario(_write(tmp_path, raw))
    assert f"unknown field sensing.{key}" in str(err.value)


@pytest.mark.parametrize("section, key, value", [
    (None, "z_min", 1e-3), ("sensing", "occluder_half", "left")])
def test_unset_fields_are_unknown(tmp_path, capsys, section, key, value):
    """z_min and sensing.occluder_half are no scenario keys: a file that
    sets either exits 2 naming it as unknown, and writes nothing."""
    raw = _valid_dict()
    (raw if section is None else raw[section])[key] = value
    rc = main(["run", "--config", str(_write(tmp_path, raw)), "--trials", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    path = key if section is None else f"{section}.{key}"
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"unknown field {path}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [True, False])
def test_uncertainty_policy_field_is_unknown(tmp_path, capsys, value):
    """control.entropy_threshold alone switches the entropy policy (null
    is off, and --no-uncertainty-policy sets it to inf); the file key that
    also switched it is unknown, and the run exits 2 naming it."""
    raw = _valid_dict()
    raw["uncertainty_policy"] = value
    rc = main(["run", "--config", str(_write(tmp_path, raw)), "--trials", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unknown field uncertainty_policy" in err
    assert not (tmp_path / "o").exists()


def test_unknown_field_in_optional_section_rejected(tmp_path):
    raw = _valid_dict()
    raw["actuation"] = {"sigma_vv": 0.1}
    with pytest.raises(ConfigError) as err:
        load_scenario(_write(tmp_path, raw))
    assert "unknown field actuation.sigma_vv" in str(err.value)


@pytest.mark.parametrize("section, key, value, path", [
    (None, "n_keypoints", 10000, "n_keypoints"),
    ("initial_pose", "translation_var", -0.1, "initial_pose.translation_var"),
    ("desired_pose", "rotation_max_deg", -5.0,
     "desired_pose.rotation_max_deg"),
    (None, "gate_level", 2.0, "gate_level"),
    (None, "gate_level", -0.5, "gate_level"),
    (None, "gate_level", 0.0, "gate_level"),
    # the list-valued blackout rows are named by their place (value9,
    # value10), so they stay the 10th and 11th rows
    ("convergence", "v_eps", 0.0, "convergence.v_eps"),
    ("convergence", "v_eps", -1e-3, "convergence.v_eps"),
    ("convergence", "k_hold", 0, "convergence.k_hold"),
    ("sensing", "blackout_frames", [10, 5], "sensing.blackout_frames"),
    ("sensing", "blackout_frames", [-1, 5], "sensing.blackout_frames"),
    ("actuation", "sigma_v", -0.1, "actuation.sigma_v"),
    ("actuation", "sigma_w", -0.1, "actuation.sigma_w"),
    ("init_prior", "sigma_t", -0.1, "init_prior.sigma_t"),
    ("init_prior", "sigma_phi", -0.1, "init_prior.sigma_phi"),
    ("sensing", "outlier_px", -40.0, "sensing.outlier_px"),
    ("initial_pose", "height", -0.3, "initial_pose.height"),
    ("initial_pose", "height", 0.0, "initial_pose.height"),
    ("desired_pose", "height", 0.0, "desired_pose.height"),
    # JSON integers have no size limit; this one overflows a float
    pytest.param(None, "dt", 10**400, "dt", id="None-dt-int_1e400-dt"),
    pytest.param("control", "v_max", 10**400, "control.v_max",
                 id="control-v_max-int_1e400-control.v_max"),
    (None, "seed", -5, "seed"),
    ("sensing", "reported_scale", 0.0, "sensing.reported_scale"),
    ("sensing", "reported_scale", -1.0, "sensing.reported_scale"),
    # stds that the filter squares: the square must be a finite float
    ("filter_noise", "sigma_vp", 1e300, "filter_noise.sigma_vp"),
    ("filter_noise", "sigma_vw", 1e300, "filter_noise.sigma_vw"),
    ("init_prior", "sigma_t", 1e300, "init_prior.sigma_t"),
    ("init_prior", "sigma_phi", 1e300, "init_prior.sigma_phi"),
    # above 180 degrees the sampled angle only wraps
    ("desired_pose", "rotation_max_deg", 180.5,
     "desired_pose.rotation_max_deg"),
    ("initial_pose", "rotation_max_deg", 1e300,
     "initial_pose.rotation_max_deg"),
])
def test_out_of_range_value_rejected_at_load(tmp_path, section, key, value,
                                             path):
    """Values that would crash a run, or run it silently with no effect,
    fail at load with the field path."""
    raw = _valid_dict()
    (raw if section is None else raw[section])[key] = value
    with pytest.raises(ConfigError) as err:
        load_scenario(_write(tmp_path, raw))
    # a type error, such as the oversized integers, says "field <path>"
    assert re.search(rf": (field )?{re.escape(path)} ", str(err.value))


@pytest.mark.parametrize("section, key, value", [
    (None, "n_keypoints", 22), (None, "gate_level", 1.0),
    ("convergence", "k_hold", 1), ("sensing", "blackout_frames", [5, 5]),
    ("initial_pose", "translation_var", 0.0), ("actuation", "sigma_v", 0.0),
    ("init_prior", "sigma_t", 0.0), ("sensing", "outlier_px", 0.0),
    ("filter_noise", "sigma_vp", 1e154), ("init_prior", "sigma_t", 1.3e154),
    ("initial_pose", "rotation_max_deg", 180.0),
    ("desired_pose", "rotation_max_deg", 180),
    # numpy seeds from any non-negative int; a seed is never a float
    pytest.param(None, "seed", 10**400, id="None-seed-int_1e400")])
def test_boundary_value_accepted(tmp_path, section, key, value):
    raw = _valid_dict()
    (raw if section is None else raw[section])[key] = value
    load_scenario(_write(tmp_path, raw))


def test_readme_table_lists_every_read_key(monkeypatch):
    """README's "Scenario configuration" table names exactly the keys that
    scenario_from_dict reads: a top-level key by its row, a section's keys
    by the `{key, ...}` list that opens the section's row."""
    read = set()

    def spy(real):
        def wrapper(self, key, *args, **kwargs):
            read.add(self._path(key))
            return real(self, key, *args, **kwargs)
        return wrapper

    for name in ("require", "optional", "section"):
        monkeypatch.setattr(config._Reader, name,
                            spy(getattr(config._Reader, name)))
    load_scenario(SCENARIOS / "nominal.json")
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Scenario configuration")[1].split("\n## ")[0]
    listed = set()
    for names, meaning in re.findall(r"^\| (`.*?) \| (.*) \|$", table, re.M):
        names = re.findall(r"`(\w+)`", names)
        listed.update(names)
        keys = re.match(r"`\{(.*?)\}`", meaning)
        if keys:  # "[start, stop)" and "(null = ...)" hold no key
            items = re.sub(r"\[[^\])]*[\])]|\([^)]*\)", "", keys.group(1))
            listed.update(f"{name}.{item.split(':')[0].strip()}"
                          for name in names for item in items.split(","))
    assert listed == read


def test_type_hints_resolved_once_per_settings_class():
    """Loads resolve each settings class's annotations once per process:
    over two loads, 6 calls of get_type_hints for the 6 classes, not one
    per section and load (14)."""
    config._hints.cache_clear()
    for _ in range(2):
        load_scenario(SCENARIOS / "adverse.json")
    assert config._hints.cache_info().misses == 6
