"""Scenario configuration: a single JSON file with one section per
subsystem. Paths inside the file resolve relative to the file's directory.

The keys, their JSON types, their defaults and the required sections come
from `Scenario` and its settings dataclasses, walked field by field: a
field with no default is required, and a dataclass field is the section of
its name, required when its class has a required field. `_KEYS` names the
seven fields whose key is not their name. README's "Scenario
configuration" table gives each key's meaning and default, which an
optional key that is absent or `null` keeps. Numbers must be finite (an
integer too large for a float is not, where a float is accepted), a bool
is not a number, and a key that no read asks for is an error.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import get_origin, get_type_hints

from .keypoints import load_object_points
from .simulator import Scenario


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration."""


_UNSET = object()  # an optional key that is absent or null

# field -> its key, where that is not the field's name; "section.key" for
# a Scenario field that is read from a section
_KEYS = {
    "lam": "lambda",
    "actuation_sigma_v": "actuation.sigma_v",
    "actuation_sigma_w": "actuation.sigma_w",
    "init_sigma_t": "init_prior.sigma_t",
    "init_sigma_phi": "init_prior.sigma_phi",
    "v_eps": "convergence.v_eps",
    "k_hold": "convergence.k_hold",
}

_JSON_TYPES = {float: (int, float), int: int, str: str}


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
    scenario = _read(ctx, Scenario, model=model)
    ctx.reject_unknown()
    return scenario


def _read(reader: "_Reader", cls, **given):
    """cls built from the fields given and the rest read, in field order,
    with the JSON types of their annotations. A tuple field is an optional
    [start, stop] pair of integers."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name in given:
            continue
        kind = hints[f.name]
        section, _, key = _KEYS.get(f.name, f.name).rpartition(".")
        owner = reader.section(section) if section else reader
        if is_dataclass(kind):
            required = any(map(_required, fields(kind)))
            given[f.name] = _read(owner.section(key, required), kind)
        elif get_origin(kind) is tuple:
            given[f.name] = _int_pair(owner, key)
        else:
            read = owner.require if _required(f) else owner.optional
            given[f.name] = read(key, _JSON_TYPES[kind])
    return reader.build(cls, **given)


def _required(f) -> bool:
    return f.default is MISSING and f.default_factory is MISSING


def _int_pair(reader: "_Reader", key: str):
    pair = reader.optional(key, list)
    if pair is not _UNSET and (len(pair) != 2 or not all(
            isinstance(f, int) and not isinstance(f, bool) for f in pair)):
        raise ConfigError(f"{reader.label}: {reader._path(key)}: expected "
                          "[start, stop] integers")
    return pair if pair is _UNSET else tuple(pair)


class _Reader:
    """Field access with path-qualified error messages. Every key asked
    for is remembered, so that reject_unknown can report the rest."""

    def __init__(self, data: dict, label: str, prefix: str = ""):
        self.data = data
        self.label = label
        self.prefix = prefix
        self.known = set()
        self.sections = {}  # key -> its reader

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
            owner = next((r for r in (self, *self.sections.values())
                          if name in r.known), self)
            raise ConfigError(
                f"{self.label}: {owner._path(name)} {rest}") from exc

    def section(self, key: str, required: bool = False) -> "_Reader":
        """The reader of section key: the one already opened, if any, since
        one section may hold the keys of several fields."""
        if key in self.sections:
            return self.sections[key]
        self.known.add(key)
        value = self.data.get(key)
        if value is None:  # absent or null
            if required:
                raise ConfigError(
                    f"{self.label}: missing required section {key}")
            value = {}
        elif not isinstance(value, dict):
            raise ConfigError(f"{self.label}: section {key} must be an object")
        reader = self.sections[key] = _Reader(value, self.label,
                                              prefix=f"{key}.")
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
        for reader in self.sections.values():
            reader.reject_unknown()
