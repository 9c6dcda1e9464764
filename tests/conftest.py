import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ekfservo.camera import Intrinsics
from ekfservo.config import load_scenario
from ekfservo.keypoints import ObjectModel, load_object_points
from ekfservo.lie import Pose

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
BENCH = REPO / "bench"

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def model() -> ObjectModel:
    return load_object_points(REPO / "models" / "bracket.xyz")


@pytest.fixture(scope="session")
def intr() -> Intrinsics:
    return Intrinsics(460.0, 460.0, 320.0, 240.0, 640, 480)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def one_pose_stack(pose: Pose) -> Pose:
    """The stack of one pose, C (1, 3, 3) and t (1, 3), that the stacked
    kernels take for a single trial."""
    return Pose(pose.C[None], pose.t[None])


def load_bench(name: str):
    """bench/<name>.py, loaded from its file as the module bench_<name>.
    bench/ is on sys.path while it loads, since run.py imports its
    neighbours calibrate.py and tracer.py by plain name, and the module is
    in sys.modules, since dataclasses look it up; the names of bench/'s
    modules leave sys.modules afterwards."""
    before = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                      BENCH / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        for key in {spec.name, *(p.stem for p in BENCH.glob("*.py"))} - before:
            sys.modules.pop(key, None)
    return module


def scenario(name: str):
    return load_scenario(SCENARIOS / f"{name}.json")


@pytest.fixture(scope="session")
def nominal_scenario():
    return scenario("nominal")


@pytest.fixture(scope="session")
def noise_free_scenario():
    return scenario("noise_free")
