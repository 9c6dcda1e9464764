"""The benchmark's reference batches (bench/reference.json) against the
program: for each workload of bench/run.py, the `ekfservo run` call that
its reference check makes gives the recorded summary.json bytes and
episode lengths. A change that moves the benchmark's outputs fails here,
not only under `bench/run.py`."""
import hashlib
import json

import pytest

import ekfservo.cli
from conftest import BENCH, REPO, load_bench
from ekfservo.config import load_scenario

REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.fixture(scope="module")
def bench_run():
    return load_bench("run")


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_bench_reference_holds(name, bench_run, tmp_path, monkeypatch):
    ref = REFERENCE[name]
    wl = bench_run.WORKLOADS[name]
    # the reference check runs at the scenario file's seed and width
    assert ref["seed"] == load_scenario(REPO / wl.config).seed
    assert ref["trials"] == wl.trials
    monkeypatch.chdir(REPO)  # summary.json echoes the relative config path
    out = tmp_path / "out"
    assert ekfservo.cli.main(bench_run._argv(wl, ref["seed"], out)) == 0
    digest = hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
    assert digest == ref["summary_json_sha256"]
    frames = [len(p.read_text().splitlines()) - 1
              for p in sorted((out / "episodes").iterdir())]
    assert frames == ref["episode_frames"]
