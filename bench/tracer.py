"""Outside-in span tracing of one `ekfservo run` call.

The tracer replaces, for the duration of one call, the module-level names
that `ekfservo.cli`, `ekfservo.simulator`, `ekfservo.metrics` and
`ekfservo.pnp` look up at call time. Each wrapper records a span
(name, start, end, parent) in memory; nothing inside `src/` changes.

Attribution: a span's self time is its duration minus the durations of
its direct children. Self time goes to the span's own layer, except that
a span nested inside an *absorbing* span goes to the absorbing span's
layer. `geodesic_reference` calls `clamp_twist`, `pbvs_law` and
`relative_pose` through `ekfservo.simulator`'s names, the same names the
episode loop uses; because `metrics.summarize` absorbs, that rollout
counts toward `metrics` and not `control`.

`lie` and `camera` get no spans: their calls are too small to wrap from
outside, so their time sits in the callers' spans.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name, layer, absorbing)
SPANS = (
    ("cli", "load_scenario", "config.load_scenario", "config", False),
    ("cli", "run_batch", "simulator.run_batch", "simulator", False),
    ("cli", "geodesic_reference_for", "cli.geodesic_reference_for", "cli",
     True),
    ("simulator", "run_episode", "simulator.run_episode", "simulator", False),
    ("simulator", "measure", "keypoints.measure", "keypoints", False),
    ("simulator", "propagate", "ekf.propagate", "ekf", False),
    ("simulator", "update", "ekf.update", "ekf", False),
    ("simulator", "refine_pose", "pnp.refine_pose", "pnp", False),
    ("simulator", "relative_pose", "control.relative_pose", "control", False),
    ("simulator", "pbvs_law", "control.pbvs_law", "control", False),
    ("simulator", "velocity_jacobian", "control.velocity_jacobian", "control",
     False),
    ("simulator", "velocity_covariance", "control.velocity_covariance",
     "control", False),
    ("simulator", "entropy", "control.entropy", "control", False),
    ("simulator", "clamp_twist", "control.clamp_twist", "control", False),
    ("simulator", "apply_policy", "control.apply_policy", "control", False),
    ("simulator", "step_dynamics", "simulator.step_dynamics", "simulator",
     False),
    ("metrics", "summarize", "metrics.summarize", "metrics", True),
    ("metrics", "geodesic_reference_for", "metrics.geodesic_reference_for",
     "metrics", True),
    ("metrics", "nees", "metrics.nees", "metrics", True),
    ("metrics", "uncertainty_correlation", "metrics.uncertainty_correlation",
     "metrics", True),
)

# Names counted without a span: one call per Gauss-Newton iteration.
COUNTERS = (
    ("pnp", "predict_keypoints", "pnp.predict_keypoints"),
)

ROOT = ("cli.main", "cli")
# The span whose return value (the BatchResult) the trace keeps.
RESULT_SPAN = "simulator.run_batch"
# Spans that return a geodesic rollout: one position per step, plus the
# final one. Each step calls relative_pose, pbvs_law and clamp_twist
# through `ekfservo.simulator`'s names.
ROLLOUT_SPANS = ("metrics.geodesic_reference_for",
                 "cli.geodesic_reference_for")


class Trace:
    """Spans and counters of one traced call, kept in memory."""

    def __init__(self):
        self.spans = []        # (name, start_ns, end_ns, parent index)
        self.counts = Counter()
        self.nones = Counter()  # calls that returned None, by span name
        self.errors = Counter()  # (span name, exception class name)
        self.result = None      # the BatchResult the traced call produced
        self.rollout_steps = 0  # steps of the geodesic rollouts returned
        self._stack = []
        self._layer = {}
        self._absorbing = set()

    def span_wrapper(self, name, layer, absorbing, fn):
        self._layer[name] = layer
        if absorbing:
            self._absorbing.add(name)
        spans, stack = self.spans, self._stack
        nones, errors = self.nones, self.errors
        clock = time.perf_counter_ns
        keep = name == RESULT_SPAN
        rollout = name in ROLLOUT_SPANS

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if out is None:
                nones[name] += 1
            elif keep:
                self.result = out
            elif rollout:
                self.rollout_steps += len(out) - 1
            return out

        return wrapper

    def counter_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def aggregate(self) -> "Aggregate":
        """Per-name calls, inclusive and self time, and per-layer
        attributed self time, all in nanoseconds."""
        agg = Aggregate()
        child_ns = [0] * len(self.spans)
        owner = [None] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            if parent >= 0:
                child_ns[parent] += dur
            # spans are appended in call order, so a parent precedes its
            # children and its owner is already known
            if parent >= 0 and owner[parent] in self._absorbing:
                owner[i] = owner[parent]
            else:
                owner[i] = name
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            own = dur - child_ns[i]
            agg.calls[name] += 1
            agg.total_ns[name] += dur
            agg.self_ns[name] += own
            agg.layer_ns[self._layer[owner[i]]] += own
            if parent < 0:
                agg.root_ns += dur
            elif self._layer[owner[i]] != self._layer[name]:
                agg.absorbed_ns[name] += own
                agg.absorbed_calls[name] += 1
        agg.rollout_steps = self.rollout_steps
        agg.counts.update(self.counts)
        agg.nones.update(self.nones)
        agg.errors.update(self.errors)
        return agg


class Aggregate:
    """Summed span statistics over one or more traced calls."""

    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.layer_ns = Counter()
        self.absorbed_ns = Counter()  # self time moved to an ancestor layer
        self.absorbed_calls = Counter()  # the spans whose time moved
        self.counts = Counter()
        self.nones = Counter()
        self.errors = Counter()
        self.root_ns = 0
        self.rollout_steps = 0

    def add(self, other: "Aggregate") -> None:
        for field in ("calls", "total_ns", "self_ns", "layer_ns",
                      "absorbed_ns", "absorbed_calls", "counts", "nones",
                      "errors"):
            getattr(self, field).update(getattr(other, field))
        self.root_ns += other.root_ns
        self.rollout_steps += other.rollout_steps

    def direct_self_ns(self, name: str) -> int:
        """Self time of `name` spans that were not absorbed elsewhere."""
        return self.self_ns[name] - self.absorbed_ns[name]

    def direct_calls(self, name: str) -> int:
        """Calls of `name` that were not absorbed elsewhere."""
        return self.calls[name] - self.absorbed_calls[name]


@contextmanager
def traced(modules: dict, trace: Trace):
    """Install the wrappers on `modules` (short name -> module) for the
    duration of the block, then restore the original names."""
    saved = []
    try:
        for mod, attr, name, layer, absorbing in SPANS:
            fn = getattr(modules[mod], attr)
            saved.append((modules[mod], attr, fn))
            setattr(modules[mod], attr,
                    trace.span_wrapper(name, layer, absorbing, fn))
        for mod, attr, name in COUNTERS:
            fn = getattr(modules[mod], attr)
            saved.append((modules[mod], attr, fn))
            setattr(modules[mod], attr, trace.counter_wrapper(name, fn))
        yield trace
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)

