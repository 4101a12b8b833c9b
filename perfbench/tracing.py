"""Per-layer spans for the traced run, recorded from outside the library.

Each traced layer is a module attribute of oklim replaced by a wrapper that
records a span: name, dimension, a size (points, ball pairs or restarts),
start, end and the index of the enclosing span.  oklim calls these functions
through module attributes (``green.green_eval_many``, ``sharp_energy`` inside
sharp, ``interaction_energy`` inside optimize, ...), so its internal calls
are caught as well.  Spans stay in memory and are written out when the run
ends; a layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import csv
import time

import numpy as np


def _points(args, kwargs):
    return args[0], len(np.atleast_2d(args[1] if len(args) > 1 else kwargs["X"]))


def _ball_pairs(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return config.dim, config.n * (config.n + 1) // 2


# (module, attribute, span name, (args, kwargs) -> (dim, size))
LAYERS = (
    ("green", "green_eval_many", "green.eval", _points),
    ("green", "green_grad_many", "green.grad", _points),
    ("green", "regular_part_at_zero", "green.g0", None),
    ("sharp", "sharp_energy", "sharp.energy", _ball_pairs),
    ("sharp", "second_order_quotient", "sharp.quotient", None),
    ("limits", "f0_energy", "limits.f0", None),
    ("limits", "e0", "limits.e0", None),
    ("optimize", "place", "optimize.place", None),
    ("optimize", "interaction_energy", "optimize.energy", None),
    ("optimize", "interaction_gradient", "optimize.gradient", None),
    ("cli", "main", "cli.main", None),
    ("cli", "load_point_configuration", "cli.load", None),
)


def _span_name(name, args, kwargs):
    # the direct mode sum is the independent oracle path: keep it apart
    if name == "sharp.energy":
        method = kwargs.get("method", args[2] if len(args) > 2 else "ewald")
        if method == "direct":
            return "sharp.direct"
    return name


class Tracer:
    """Installs the span wrappers on an imported oklim and removes them again."""

    def __init__(self, oklim):
        self.oklim = oklim
        self.spans = []  # [name, dim, size, start, end, parent, child_time]
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, describe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            dim, size = describe(args, kwargs) if describe else (None, None)
            span = [_span_name(name, args, kwargs), dim, size, 0.0, 0.0,
                    stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                if span[5] >= 0:
                    spans[span[5]][6] += span[4] - span[3]
            if name == "optimize.place":
                span[2] = result.restarts_used
            return result

        return traced

    def install(self):
        for module_name, attr, name, describe in LAYERS:
            module = getattr(self.oklim, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, describe))

    def remove(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "dim", "size", "start_s", "end_s", "parent"])
            for i, (name, dim, size, t0, t1, parent, _) in enumerate(self.spans):
                out.writerow([i, name, dim, size, repr(t0), repr(t1), parent])

    def layer_metrics(self, passes):
        """Per-pass counts and self times, and per-point / per-pair rates."""
        calls, self_s, size = {}, {}, {}
        for name, dim, n, t0, t1, _, child in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child)
            if dim is not None:
                key = (name, dim)
                s, z = self_s.get(key, 0.0), size.get(key, 0)
                self_s[key], size[key] = s + (t1 - t0 - child), z + n
            elif n is not None:
                size[name] = size.get(name, 0) + n

        def per_pass(table, key):
            return table.get(key, 0) / passes

        def rate(name, dim, scale):
            n = size.get((name, dim), 0)
            return scale * self_s.get((name, dim), 0.0) / n if n else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        points = {n: size.get((n, 2), 0) + size.get((n, 3), 0)
                  for n in ("green.eval", "green.grad")}
        return {
            "sharp.energy.calls": (per_pass(calls, "sharp.energy"), "count"),
            "sharp.energy.self_s": (per_pass(self_s, "sharp.energy"), "s"),
            "sharp.energy.2d.ms_per_pair": (rate("sharp.energy", 2, 1e3), "ms"),
            "sharp.energy.3d.ms_per_pair": (rate("sharp.energy", 3, 1e3), "ms"),
            "sharp.quotient.self_s": (per_pass(self_s, "sharp.quotient"), "s"),
            "sharp.direct.self_s": (per_pass(self_s, "sharp.direct"), "s"),
            "green.eval.calls": (per_pass(calls, "green.eval"), "count"),
            "green.eval.points": (points["green.eval"] / passes, "count"),
            "green.eval.2d.us_per_point": (rate("green.eval", 2, 1e6), "us"),
            "green.eval.3d.us_per_point": (rate("green.eval", 3, 1e6), "us"),
            "green.eval.self_s": (per_pass(self_s, "green.eval"), "s"),
            "green.g0.calls": (per_pass(calls, "green.g0"), "count"),
            "green.g0.self_s": (per_pass(self_s, "green.g0"), "s"),
            "green.grad.calls": (per_pass(calls, "green.grad"), "count"),
            "green.grad.points": (points["green.grad"] / passes, "count"),
            "green.grad.2d.us_per_point": (rate("green.grad", 2, 1e6), "us"),
            "green.grad.3d.us_per_point": (rate("green.grad", 3, 1e6), "us"),
            "green.grad.self_s": (per_pass(self_s, "green.grad"), "s"),
            "green.points_per_call": (ratio(points["green.eval"] + points["green.grad"],
                                            calls.get("green.eval", 0)
                                            + calls.get("green.grad", 0)), "points/call"),
            "optimize.place.self_s": (per_pass(self_s, "optimize.place"), "s"),
            "optimize.energy.calls": (per_pass(calls, "optimize.energy"), "count"),
            "optimize.gradient.calls": (per_pass(calls, "optimize.gradient"), "count"),
            "optimize.gradient_calls_per_restart": (
                ratio(calls.get("optimize.gradient", 0), size.get("optimize.place", 0)),
                "calls/restart"),
            "optimize.energy_calls_per_gradient": (
                ratio(calls.get("optimize.energy", 0), calls.get("optimize.gradient", 0)),
                "calls/call"),
            "limits.f0.self_s": (per_pass(self_s, "limits.f0"), "s"),
            "limits.e0.self_s": (per_pass(self_s, "limits.e0"), "s"),
            "cli.load.self_s": (per_pass(self_s, "cli.load"), "s"),
            "cli.main.self_s": (per_pass(self_s, "cli.main"), "s"),
        }
