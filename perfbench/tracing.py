"""Outside-in tracing of the package's layers.

:meth:`Tracer.install` replaces every public function of the layer modules
with a wrapper, in each module namespace where the function is looked up:
``postprocess.group_pixels`` inside ``postprocess``, and ``validate`` inside
``cli``, which imports it by name. A wrapper records a span (name, operation,
parent span, start, end) and, for a few functions, counts read from the
call's arguments and return value at the same boundary. Spans stay in
memory; :meth:`Tracer.dump` writes them when the run ends.

The span stack is shared by all threads. That is exact here because the
benchmark runs ``eval --threads 1``: the single worker thread runs while the
calling thread waits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "panopticore"
LAYERS = ("core", "tensor_io", "targets", "losses", "postprocess", "metrics")
ROOT = "cli"


def _group_pixels(a, result):
    thing = int(np.count_nonzero(a["thing_mask"]))
    ungrouped = int(np.count_nonzero(a["thing_mask"] & (result == 0)))
    return {
        "postprocess.thing_pixels": thing,
        "postprocess.pixel_center_pairs": thing * len(a["centers"]),
        "postprocess.ungrouped_void_pixels": ungrouped,
    }


def _match_detections(a, result):
    per_category: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    for _, category, _ in a["preds"]:
        per_category[int(category)][0] += 1
    for _, category, _ in a["gts"]:
        per_category[int(category)][1] += 1
    masks = [m for m, _, _ in a["preds"]] + [m for m, _, _ in a["gts"]]
    return {
        "metrics.ap.iou_pairs": sum(
            min(dt, a["max_dets"]) * gt for dt, gt in per_category.values()
        ),
        "metrics.ap.detections": len(a["preds"]),
        "metrics.ap.gt_instances": len(a["gts"]),
        "metrics.ap.mask_mb": sum(m.nbytes for m in masks) / 1e6,
    }


# Counts taken at a function's boundary, from its bound arguments and result.
COUNTERS = {
    "postprocess.group_pixels": _group_pixels,
    "postprocess.extract_centers": lambda a, r: {"postprocess.centers": len(r)},
    "postprocess.panoptic_inference": lambda a, r: {"postprocess.instances": len(r.instances)},
    "tensor_io.read_tensor": lambda a, r: {"tensor_io.read_tensor.mb": r.nbytes / 1e6},
    "tensor_io.write_tensor": lambda a, r: {"tensor_io.write_tensor.mb": a["grid"].nbytes / 1e6},
    "core.validate": lambda a, r: {
        "core.validate.mpix": a["array"].shape[0] * a["array"].shape[1] / 1e6
    },
    "targets.compute_mass_centers": lambda a, r: {"targets.instances": len(r)},
    "metrics.match_detections": _match_detections,
}


@dataclass
class Span:
    name: str
    op: int
    parent: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    # Time spent taking the counts; charged to no layer, so it shows only
    # in the tracing overhead.
    count_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self._op, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op: int):
        """Root span of one benchmark operation."""
        self._op = op
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
                span.count_s = time.perf_counter() - span.end
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != PACKAGE:
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def operation_metrics(self, op: int) -> dict[str, float]:
        """Per-layer self times (ms) and counts of one operation."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        child_time: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start + s.count_s
        out: dict[str, float] = defaultdict(float)
        root_wall = root_self = 0.0
        for i, s in spans:
            self_s = (s.end - s.start) - child_time[i]
            out[f"{s.name}.self_ms"] += self_s * 1000.0
            if s.name == ROOT:
                root_wall += s.end - s.start
                root_self += self_s
            for key, value in s.counts.items():
                out[key] += value
        out["op_wall_ms"] = root_wall * 1000.0
        out["covered_ms"] = (root_wall - root_self) * 1000.0
        return dict(out)

    def dump(self, path) -> None:
        rows = [
            {"name": s.name, "op": s.op, "parent": s.parent, "start": s.start,
             "end": s.end, "counts": s.counts}
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump(rows, f)
