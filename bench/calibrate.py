"""Host speed probe for the benchmark's time base.

A shared 2-vCPU VM changes speed by tens of percent over minutes (a
fixed kernel ran 40% slower at the end of one minute than at its start),
which no length of run averages out. So the benchmark times a fixed
kernel, `kernel()`, between its timed calls and rescales each call's host
time to the speed at which the kernel takes REFERENCE_S: a "reference
second". The kernel is a mix like the program's own: small numpy matrix
products and solves, driven by Python loops. It lives here, not in the
program, so it stays the same when the program changes, and a program
speed-up still shows in full.
"""
from __future__ import annotations

import time

import numpy as np

# A round figure for one `kernel()` call on the 2-vCPU VM the baselines
# were taken on (Python 3.11, numpy 2.4), where it took 8 to 14 ms as the
# host's speed drifted. It only sets the scale of the reported rates.
REFERENCE_S = 0.010
REPS = 10  # kernel calls per probe; a probe reports their mean

_RNG = np.random.default_rng(20260218)
_A = _RNG.standard_normal((16, 6))
_P = np.eye(6) + 0.1 * np.ones((6, 6))
_Q = np.eye(16)
_X = [float(v) for v in _RNG.standard_normal(64)]


def kernel() -> float:
    """One unit of fixed work, about REFERENCE_S on the reference host."""
    acc = 0.0
    for i in range(400):
        s = _A @ _P @ _A.T + _Q
        k = np.linalg.solve(s, _A) @ _P
        acc += float(k[i % 16, i % 6])
        for v in _X:
            acc += v * v * 1e-9
    return acc


def probe() -> float:
    """Host seconds of one kernel call now: the mean of REPS calls, which
    like a timed call feels every stall of the host, not just the
    typical speed."""
    start = time.perf_counter()
    for _ in range(REPS):
        kernel()
    return (time.perf_counter() - start) / REPS


class Clock:
    """Converts host time to reference seconds, probing before the first
    and after every timed span; a span is scaled by the mean of the
    probes on either side of it."""

    def __init__(self):
        self._before = probe()
        self.host_s = 0.0
        self.reference_s = 0.0

    def add(self, host_s: float) -> None:
        after = probe()
        scale = REFERENCE_S / (0.5 * (self._before + after))
        self._before = after
        self.host_s += host_s
        self.reference_s += host_s * scale
