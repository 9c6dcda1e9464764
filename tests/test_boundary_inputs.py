"""Boundary inputs never end in a traceback: every numeric field of
nominal.json, set in turn to each value of a fixed grid, and object-model
files that are degenerate or hold non-finite tokens, each driven through
`cli.main` in-process with 2 trials of at most 20 frames.

Each invocation exits 0, 1 or 2 with no exception escaping and no numpy
RuntimeWarning; stderr holds only `error:` lines and logged `WARNING`
lines; and a run that exits 0 has written all 7 files.
"""
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import REPO, SCENARIOS
from ekfservo.cli import main

NOMINAL = json.loads((SCENARIOS / "nominal.json").read_text())
GRID = (0, -1, 1e-300, 1e300, -1e300, 10**18)
RUN_FILES = 7  # 2 episodes, summary.json/.csv and the 3 series files


def _numeric_paths(raw: dict, prefix=()) -> list:
    """Paths of the leaves that hold a number or null (an optional number,
    such as control.entropy_threshold); model_path and variant are not."""
    paths = []
    for key, value in sorted(raw.items()):
        if isinstance(value, dict):
            paths += _numeric_paths(value, prefix + (key,))
        elif value is None or (isinstance(value, (int, float))
                               and not isinstance(value, bool)):
            paths.append(prefix + (key,))
    return paths


FIELDS = _numeric_paths(NOMINAL)


def _run(tmp_path, capsys, raw: dict) -> int:
    """`ekfservo run --trials 2` on raw, checked as the module says."""
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "--config", str(cfg), "--trials", "2",
                   "--out", str(out)])
    assert rc in (0, 1, 2)
    assert [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert all(line.startswith(("error: ", "WARNING "))
               for line in err.splitlines()), err
    if rc == 0:
        assert len([p for p in out.rglob("*") if p.is_file()]) == RUN_FILES
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return rc


def _base(model_path: Path) -> dict:
    raw = json.loads(json.dumps(NOMINAL))
    raw["model_path"] = str(model_path)
    raw["max_frames"] = 20
    return raw


def test_grid_covers_every_numeric_field():
    assert len(FIELDS) == 36
    assert ("control", "entropy_threshold") in FIELDS
    assert ("max_frames",) in FIELDS


@pytest.mark.parametrize("path", FIELDS, ids=".".join)
def test_numeric_field_boundary_values(tmp_path, capsys, path):
    codes = {}
    for value in GRID:
        raw = _base(REPO / "models" / "bracket.xyz")
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        case = tmp_path / repr(value)
        case.mkdir()
        codes[value] = _run(case, capsys, raw)
    # a float in an int-only field is a type error, at load
    if path in (("max_frames",), ("n_keypoints",), ("seed",),
                ("convergence", "k_hold"), ("intrinsics", "width"),
                ("intrinsics", "height")):
        assert codes[1e300] == codes[1e-300] == 2


def _points(rows) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


_BRACKET = np.loadtxt(REPO / "models" / "bracket.xyz")
MODELS = {
    "coplanar": _points(np.c_[_BRACKET[:, :2], np.zeros(len(_BRACKET))]),
    "duplicates": _points(np.repeat(_BRACKET[:4], 6, axis=0)),
    "four_points": _points(_BRACKET[[0, 5, 12, 21]]),
    "nan_token": _points(_BRACKET) + "nan 0 0\n",
    "inf_token": _points(_BRACKET) + "0 inf 0\n",
    "neg_inf_token": "-inf 0 0\n" + _points(_BRACKET),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_degenerate_model_files(tmp_path, capsys, name):
    model = tmp_path / f"{name}.xyz"
    model.write_text(MODELS[name])
    for n_keypoints in (4, 8):
        raw = _base(model)
        raw["n_keypoints"] = n_keypoints
        case = tmp_path / str(n_keypoints)
        case.mkdir()
        _run(case, capsys, raw)
