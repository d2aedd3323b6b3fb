"""In-memory span tracer that wraps pipefollow's public functions from outside.

Each traced function is replaced, for the duration of a traced unit, at every
module attribute its callers look up (``sim.object_mask`` and
``features.object_mask`` both lead to ``features.object_mask``), so the
package source stays untouched.  A span records its parent on the same
thread; self time is a span's duration minus that of its children.  A
function that is missing from the package is simply not wrapped and reports
0 calls.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict

UNIT = "bench.unit"
LAYERS = ("sim", "imgproc", "features", "fis", "netpbm")


def _capture_key(args, kwargs, result):
    # (world, pose, camera, frame): everything a frame's pixels depend on
    return (args, tuple(sorted(kwargs.items())))


def _region_count(args, kwargs, result):
    return result.region_count


def _kept_regions(args, kwargs, result):
    return (args[0].region_count, result.region_count)


def _no_fire(args, kwargs, result):
    return result.no_fire


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# span name -> (lookup names that lead to it, observer of each call's result)
TARGETS = {
    "sim.tune": (("sim.tune",), None),
    "sim.mission_objective": (("sim.mission_objective",), None),
    "sim.run_mission": (("sim.run_mission",), None),
    "sim.render_view": (("sim.render_view",), _capture_key),
    "sim.step_auv": (("sim.step_auv",), None),
    "sim.drift_metrics": (("sim.drift_metrics",), None),
    "features.extract_features": (("features.extract_features",), None),
    "features.object_mask": (("features.object_mask", "sim.object_mask"), None),
    "features.band_features": (("features.band_features", "sim.band_features"), None),
    "imgproc.threshold_band": (("imgproc.threshold_band", "features.threshold_band"), None),
    "imgproc.label_regions": (("imgproc.label_regions", "features.label_regions"),
                              _region_count),
    "imgproc.remove_small_regions": (("imgproc.remove_small_regions",
                                      "features.remove_small_regions"), _kept_regions),
    "imgproc.largest_region": (("imgproc.largest_region", "features.largest_region"), None),
    "imgproc.region_mask": (("imgproc.region_mask", "features.region_mask"), None),
    "imgproc.BinaryImage.__post_init__": (("imgproc.BinaryImage.__post_init__",), None),
    "fis.infer": (("fis.infer",), _no_fire),
    "fis.with_term_parameters": (("fis.with_term_parameters",), None),
    "netpbm.read_pgm": (("netpbm.read_pgm",), _file_bytes),
}


def _resolve(lookup: str):
    """(owner object, attribute) for a lookup name such as 'imgproc.BinaryImage.x'."""
    module, *path, attr = lookup.split(".")
    try:
        owner = importlib.import_module(f"pipefollow.{module}")
    except ModuleNotFoundError:
        return None, attr
    for name in path:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []                      # (span_id, parent_id, name, start_ns, end_ns)
        self.observed = defaultdict(list)    # span name -> one observation per call
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, observe=None):
        """Run fn(*args, **kwargs) inside a span named name."""
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))
        if observe is not None:
            self.observed[name].append(observe(args, kwargs, result))
        return result

    def _wrap(self, name, fn, observe):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, (lookups, observe) in TARGETS.items():
            for lookup in lookups:
                owner, attr = _resolve(lookup)
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _frac(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, untraced_s: float) -> dict:
    """Per-layer metrics, in BENCHMARK.json units, from the spans of the traced units.

    Counts are per traced unit (mission, tuning call or frame); busy and self
    shares are of the traced units' wall time; untraced_s is the wall time of
    the same units run without tracing.
    """
    durations = defaultdict(list)          # name -> ns per call
    child_ns = defaultdict(int)            # span id -> ns covered by its children
    for span_id, parent, name, start, end in tracer.spans:
        durations[name].append(end - start)
        if parent is not None:
            child_ns[parent] += end - start
    self_ns = defaultdict(int)             # layer -> self time
    for span_id, parent, name, start, end in tracer.spans:
        self_ns[name.split(".")[0]] += end - start - child_ns[span_id]

    units = len(durations[UNIT])
    wall_ns = sum(durations[UNIT])
    obs = tracer.observed

    def calls(name):
        return _frac(len(durations[name]), units)

    def ms_p50(name):
        return _p50(durations[name]) / 1e6

    def us_p50(name):
        return _p50(durations[name]) / 1e3

    def busy(name):
        return _frac(sum(durations[name]), wall_ns)

    keys = obs["sim.render_view"]
    labeled = obs["imgproc.label_regions"]
    kept = obs["imgproc.remove_small_regions"]
    fires = obs["fis.infer"]
    metrics = {
        "sim.render_view.calls": calls("sim.render_view"),
        "sim.render_view.ms_p50": ms_p50("sim.render_view"),
        "sim.render_view.busy_frac": busy("sim.render_view"),
        "sim.capture_repeat_frac": _frac(len(keys) - len(set(keys)), len(keys)),
        "sim.mission_objective.ms_p50": ms_p50("sim.mission_objective"),
        "sim.drift_metrics.ms_p50": ms_p50("sim.drift_metrics"),
        "sim.step_auv.calls": calls("sim.step_auv"),
    }
    for stage in ("threshold_band", "label_regions", "remove_small_regions",
                  "largest_region", "region_mask"):
        metrics[f"imgproc.{stage}.ms_p50"] = ms_p50(f"imgproc.{stage}")
    metrics.update({
        "imgproc.regions_labeled_p50": _p50(labeled),
        "imgproc.region_keep_frac": _frac(sum(k for _, k in kept), sum(n for n, _ in kept)),
        "imgproc.binary_images_per_frame": _frac(
            len(durations["imgproc.BinaryImage.__post_init__"]),
            len(durations["features.object_mask"])),
        "features.object_mask.ms_p50": ms_p50("features.object_mask"),
        "features.object_mask.busy_frac": busy("features.object_mask"),
        "features.extract_features.ms_p50": ms_p50("features.extract_features"),
        "features.band_features.calls": calls("features.band_features"),
        "features.band_features.us_p50": us_p50("features.band_features"),
        "fis.infer.calls": calls("fis.infer"),
        "fis.infer.us_p50": us_p50("fis.infer"),
        "fis.infer.busy_frac": busy("fis.infer"),
        "fis.no_fire_frac": _frac(sum(fires), len(fires)),
        "fis.with_term_parameters.us_p50": us_p50("fis.with_term_parameters"),
        "netpbm.read_pgm.us_p50": us_p50("netpbm.read_pgm"),
        "netpbm.read_pgm.bytes": _p50(obs["netpbm.read_pgm"]),
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = _frac(self_ns[layer], wall_ns)
    metrics["trace_overhead_frac"] = _frac(wall_ns / 1e9, untraced_s) - 1.0
    return metrics
