"""Width invariance under other kernel dispatches: in a subprocess whose
environment makes OpenBLAS or numpy pick other kernels, each trial of a
width-7 lockstep batch has the record digest of its seed run alone, for
every variant. The in-process oracles establish this only for the
dispatch the test process happens to get.

The record bits themselves may differ between dispatches; only the
invariance to the batch width is checked. A build that ignores or
rejects a setting (one without OpenBLAS's DYNAMIC_ARCH, or a numpy that
cannot drop those CPU features) skips that setting with the reason."""
import json
import os
import subprocess
import sys

import pytest

from conftest import REPO

pytestmark = pytest.mark.oracle

SETTINGS = {
    "openblas-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "numpy-x86-v2": {
        "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}

# Run in the subprocess: report the dispatch in effect, then the record
# digests of each variant's seeds, in one batch and one by one.
PROBE = r"""
import ctypes, dataclasses, hashlib, json, os, sys
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
from ekfservo.config import load_scenario
from ekfservo.lie import Pose
from ekfservo.simulator import VARIANTS, run_episodes

def corename():
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({p for p in fh.read().split() if "openblas" in p})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_",
                     "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None

def digest(record):
    h = hashlib.sha256()
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, Pose):
            value = (value.C, value.t)
        for part in value if isinstance(value, tuple) else (value,):
            h.update(part.tobytes() if isinstance(part, np.ndarray)
                     else repr(part).encode())
    return h.hexdigest()

name, frames, width = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
base = load_scenario(name)
out = {"corename": corename(),
       "disabled": [k for k, on in __cpu_features__.items() if not on],
       "digests": {}}
for variant in VARIANTS:
    sc = dataclasses.replace(base, variant=variant, max_frames=frames)
    seeds = [sc.seed + i for i in range(width)]
    batch = [digest(r) for r in run_episodes(sc, seeds)]
    alone = [digest(run_episodes(sc, [s])[0]) for s in seeds]
    out["digests"][variant] = [batch, alone]
print(json.dumps(out))
"""

SCENARIO = REPO / "scenarios" / "adverse.json"
FRAMES = 80
WIDTH = 7


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_width_invariance_under_dispatch(setting):
    env = dict(os.environ)
    env.update(SETTINGS[setting])
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SCENARIO), str(FRAMES),
         str(WIDTH)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        if "CPU feature" in proc.stderr:
            pytest.skip(f"{setting}: the build rejects the setting: "
                        f"{proc.stderr.strip().splitlines()[-1]}")
        pytest.fail(proc.stderr)
    out = json.loads(proc.stdout)
    if "OPENBLAS_CORETYPE" in SETTINGS[setting]:
        want = SETTINGS[setting]["OPENBLAS_CORETYPE"]
        if (out["corename"] or "").lower() != want.lower():
            pytest.skip(f"{setting}: OpenBLAS runs core "
                        f"{out['corename']!r}, not {want!r}")
    else:
        features = SETTINGS[setting]["NPY_DISABLE_CPU_FEATURES"].split()
        if not set(features) <= set(out["disabled"]):
            pytest.skip(f"{setting}: numpy still dispatches "
                        f"{sorted(set(features) - set(out['disabled']))}")
    for variant, (batch, alone) in out["digests"].items():
        assert len(batch) == WIDTH
        for i, (a, b) in enumerate(zip(batch, alone, strict=True)):
            assert a == b, (setting, variant, i)
