"""Scenario configuration: a single JSON file with one section per
subsystem. Paths inside the file resolve relative to the file's directory.

`scenario_from_dict` reads every field, with its type; README's
"Scenario configuration" table gives each one's meaning and default (the
dataclass default of the class that owns the field, which an optional
field that is absent or `null` keeps). Numbers must be finite (an
integer too large for a float is not, where a float is accepted), a bool
is not a number, and a key that no read asks for is an error.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from .camera import Intrinsics
from .control import ControlConfig
from .ekf import NoiseParams
from .keypoints import SensingProfile, load_object_points
from .simulator import PoseSampler, Scenario


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration."""


_UNSET = object()  # an optional key that is absent or null


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file, loading the object model."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return scenario_from_dict(raw, base_dir=path.parent, label=str(path))


def scenario_from_dict(raw: dict, base_dir=".", label: str = "<config>") -> Scenario:
    ctx = _Reader(raw, label)
    model_path = Path(base_dir) / ctx.require("model_path", str)
    try:
        model = load_object_points(model_path)
    except OSError as exc:
        raise ConfigError(f"{label}: model_path: cannot read {model_path}: "
                          f"{exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{label}: model_path: {exc}") from exc

    intr = ctx.section("intrinsics", required=True)
    sensing = ctx.section("sensing")
    noise = ctx.section("filter_noise", required=True)
    control = ctx.section("control")
    actuation = ctx.section("actuation")
    initial = ctx.section("initial_pose", required=True)
    desired = ctx.section("desired_pose", required=True)
    prior = ctx.section("init_prior")
    conv = ctx.section("convergence")

    blackout = sensing.optional("blackout_frames", list)
    if blackout is not _UNSET:
        if len(blackout) != 2 or not all(
                isinstance(f, int) and not isinstance(f, bool)
                for f in blackout):
            raise ConfigError(f"{label}: sensing.blackout_frames: expected "
                              "[start, stop] integers")
        blackout = tuple(blackout)

    scenario = ctx.build(
        Scenario,
        intrinsics=intr.build(
            Intrinsics,
            fx=intr.require("fx", (int, float)),
            fy=intr.require("fy", (int, float)),
            cx=intr.require("cx", (int, float)),
            cy=intr.require("cy", (int, float)),
            width=intr.require("width", int),
            height=intr.require("height", int),
        ),
        model=model,
        sensing=sensing.build(
            SensingProfile,
            sigma_px=sensing.optional("sigma_px", (int, float)),
            anisotropy=sensing.optional("anisotropy", (int, float)),
            dropout_prob=sensing.optional("dropout_prob", (int, float)),
            outlier_prob=sensing.optional("outlier_prob", (int, float)),
            outlier_px=sensing.optional("outlier_px", (int, float)),
            reported_scale=sensing.optional("reported_scale", (int, float)),
            blackout_frames=blackout,
        ),
        filter_noise=noise.build(
            NoiseParams,
            sigma_vp=noise.require("sigma_vp", (int, float)),
            sigma_vw=noise.require("sigma_vw", (int, float)),
        ),
        control=control.build(
            ControlConfig,
            lam=control.optional("lambda", (int, float)),
            entropy_threshold=control.optional("entropy_threshold",
                                               (int, float)),
            reduced_scale=control.optional("reduced_scale", (int, float)),
            v_max=control.optional("v_max", (int, float)),
            w_max=control.optional("w_max", (int, float)),
        ),
        initial_pose=_pose_sampler(initial),
        desired_pose=_pose_sampler(desired),
        n_keypoints=ctx.optional("n_keypoints", int),
        dt=ctx.optional("dt", (int, float)),
        max_frames=ctx.optional("max_frames", int),
        actuation_sigma_v=actuation.optional("sigma_v", (int, float)),
        actuation_sigma_w=actuation.optional("sigma_w", (int, float)),
        init_sigma_t=prior.optional("sigma_t", (int, float)),
        init_sigma_phi=prior.optional("sigma_phi", (int, float)),
        v_eps=conv.optional("v_eps", (int, float)),
        k_hold=conv.optional("k_hold", int),
        gate_level=ctx.optional("gate_level", (int, float)),
        variant=ctx.optional("variant", str),
        seed=ctx.optional("seed", int),
    )
    ctx.reject_unknown()
    return scenario


def _pose_sampler(section: "_Reader") -> PoseSampler:
    return section.build(
        PoseSampler,
        height=section.require("height", (int, float)),
        translation_var=section.optional("translation_var", (int, float)),
        rotation_max_deg=section.optional("rotation_max_deg", (int, float)),
    )


class _Reader:
    """Field access with path-qualified error messages. Every key asked
    for is remembered, so that reject_unknown can report the rest."""

    def __init__(self, data: dict, label: str, prefix: str = ""):
        self.data = data
        self.label = label
        self.prefix = prefix
        self.known = set()
        self.sections = []

    def _path(self, key: str) -> str:
        return f"{self.prefix}{key}"

    def require(self, key: str, types):
        self.known.add(key)
        if key not in self.data:
            raise ConfigError(
                f"{self.label}: missing required field {self._path(key)}")
        return self._typed(key, types)

    def optional(self, key: str, types):
        """The value of key, or _UNSET when it is absent or null, which
        `build` leaves out so that the field keeps its dataclass default."""
        self.known.add(key)
        if key not in self.data or self.data[key] is None:
            return _UNSET
        return self._typed(key, types)

    def _typed(self, key: str, types):
        """The value of key if it has one of types. A bool is not a number
        here, and a value of a field that takes a float must convert to a
        finite float (an int-only field, such as seed, is never one)."""
        value = self.data[key]
        kinds = types if isinstance(types, tuple) else (types,)
        numeric = int in kinds or float in kinds
        if (not isinstance(value, types)
                or numeric and isinstance(value, bool)):
            name = "/".join(t.__name__ for t in kinds)
            raise ConfigError(
                f"{self.label}: field {self._path(key)} must be {name}")
        if float in kinds:
            try:
                finite = math.isfinite(value)
            except OverflowError:  # JSON integers have no size limit
                raise ConfigError(
                    f"{self.label}: field {self._path(key)} must be finite, "
                    "not an integer too large for a float") from None
            if not finite:
                raise ConfigError(
                    f"{self.label}: field {self._path(key)} must be finite, "
                    f"not {value}")
        return value

    def build(self, cls, **fields):
        """cls(**fields) without the _UNSET fields, with fields read from
        this section. cls validates them, raising a ValueError whose
        message starts with the name of the field at fault; it becomes a
        ConfigError with the field's path, taken from the reader that read
        it: this one, or a section of it (a Scenario's k_hold is
        convergence.k_hold)."""
        try:
            return cls(**{k: v for k, v in fields.items() if v is not _UNSET})
        except ValueError as exc:
            name, _, rest = str(exc).partition(" ")
            owner = next((r for r in (self, *self.sections) if name in r.known),
                         self)
            raise ConfigError(
                f"{self.label}: {owner._path(name)} {rest}") from exc

    def section(self, key: str, required: bool = False) -> "_Reader":
        self.known.add(key)
        value = self.data.get(key)
        if value is None:  # absent or null
            if required:
                raise ConfigError(
                    f"{self.label}: missing required section {key}")
            return _Reader({}, self.label, prefix=f"{key}.")
        if not isinstance(value, dict):
            raise ConfigError(f"{self.label}: section {key} must be an object")
        reader = _Reader(value, self.label, prefix=f"{key}.")
        self.sections.append(reader)
        return reader

    def reject_unknown(self) -> None:
        """Raise ConfigError naming the first key, here or in a section,
        that no read asked for, with the closest known key as a hint."""
        for key in self.data:
            if key not in self.known:
                import difflib  # only here, so loading a valid file skips it

                close = difflib.get_close_matches(key, sorted(self.known), n=1)
                hint = f" (did you mean {self._path(close[0])}?)" if close else ""
                raise ConfigError(f"{self.label}: unknown field "
                                  f"{self._path(key)}{hint}")
        for reader in self.sections:
            reader.reject_unknown()
