"""Span tracing of the rigidflow engine, installed from outside the package.

`Tracer.install` replaces every public function of the traced modules with a
wrapper that records one span per call. Callers inside the package look
their callees up as module attributes (`losses.bilinear_sample_grad`,
`optimize.evaluate`, ...), so the wrapper is bound under every name in every
loaded rigidflow module that refers to the original function object.
`uninstall` restores the originals.

A span is (name, start_ns, end_ns, parent span, op id). Spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("camera", "sampling", "masks", "losses", "optimize")
# set-up only: traced so scene rendering shows against setup_s
EXTRA_FUNCTIONS = {"scenes": ("render",)}

# layer name of a function when it is not simply <module>.<function>
LAYER_ALIASES = {
    "camera.rodrigues": "camera.pose",
    "camera.so3_log": "camera.pose",
    "camera.pose_from_params": "camera.pose",
    "camera.params_from_pose": "camera.pose",
    "camera.compose": "camera.pose",
    "camera.invert": "camera.pose",
    "camera.rotation_jacobians": "camera.pose",
    "sampling.bilinear_sample": "sampling.sample",
    "sampling.bilinear_sample_grad": "sampling.sample_grad",
    "sampling.bilinear_scatter": "sampling.scatter",
    "sampling.downsample_image": "sampling.downsample",
    "sampling.downsample_depth": "sampling.downsample",
    "sampling.downsample_flow": "sampling.downsample",
    "sampling.image_pyramid": "sampling.pyramid",
    "sampling.depth_pyramid": "sampling.pyramid",
    "sampling.flow_pyramid": "sampling.pyramid",
    "sampling.downsample_image_adjoint": "sampling.pyramid_adjoint",
    "sampling.downsample_flow_adjoint": "sampling.pyramid_adjoint",
    "losses.photometric_loss": "losses.photometric",
    "losses.smoothness_loss": "losses.smoothness",
    "losses.fb_flow_loss": "losses.fb_flow",
    "losses.fb_depth_loss": "losses.fb_depth",
    "losses.cross_task_loss": "losses.cross",
}

# the three bilinear samplers each do the cell (clip/floor/weights) step once
SAMPLER_LAYERS = ("sampling.sample", "sampling.sample_grad", "sampling.scatter")
LOSS_TERM_LAYERS = (
    "losses.photometric",
    "losses.fb_flow",
    "losses.fb_depth",
    "losses.cross",
)


def public_functions(module):
    """(attribute name, function) for each public function defined in module."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((name, obj))
    return out


class Tracer:
    """Records spans and layer counters for wrapped engine calls."""

    def __init__(self):
        self.spans = []  # (layer, start_ns, end_ns, parent index, op id)
        self.op = -1  # -1 marks set-up; timed ops count from 0
        self.counters = defaultdict(int)
        self._stack = []
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self, package: str = "rigidflow") -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        targets = {}
        for modname in TRACED_MODULES:
            module = sys.modules[f"{package}.{modname}"]
            for name, fn in public_functions(module):
                targets[id(fn)] = (fn, f"{modname}.{name}")
        for modname, names in EXTRA_FUNCTIONS.items():
            module = sys.modules[f"{package}.{modname}"]
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn):
                    targets[id(fn)] = (fn, f"{modname}.{name}")
        wrappers = {key: self.wrap(fn, LAYER_ALIASES.get(qual, qual)) for key, (fn, qual) in targets.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and targets[id(value)][0] is value:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def wrap(self, fn, layer: str):
        """fn, recording one span per call under the given layer name."""
        observe = _OBSERVERS.get(layer)
        if observe is None and layer in LOSS_TERM_LAYERS:
            observe = _count_degenerate
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = self.op
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, op)
            if observe is not None and op >= 0:
                observe(self.counters, args, out)
            return out

        return traced

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time its children cover.

        Calls nest on one thread, so the children of a span are disjoint
        intervals inside it and their durations add up to their coverage.
        """
        covered = [0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_table(self):
        """Calls and self time per layer, split into set-up and timed ops."""
        table = defaultdict(lambda: {"setup_calls": 0, "setup_self_ns": 0, "calls": 0, "self_ns": 0})
        for (layer, _, _, _, op), self_ns in zip(self.spans, self.self_times()):
            row = table[layer]
            if op < 0:
                row["setup_calls"] += 1
                row["setup_self_ns"] += self_ns
            else:
                row["calls"] += 1
                row["self_ns"] += self_ns
        return dict(table)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for i, (layer, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{op}\t{layer}\t{start}\t{end}\n")


def _count_sampled(counters, args, out):
    # every sampler takes the sample coordinates xs as its second argument
    counters["px_sampled"] += int(np.size(args[1]))


def _count_fb_valid(counters, args, out):
    counters["fb_checked"] += int(np.size(out))
    counters["fb_passed"] += int(np.count_nonzero(out))


def _count_degenerate(counters, args, out):
    # each loss term returns its degenerate flag last
    if isinstance(out, tuple) and isinstance(out[-1], (bool, np.bool_)) and out[-1]:
        counters["degenerate"] += 1


_OBSERVERS = {
    **{layer: _count_sampled for layer in SAMPLER_LAYERS},
    "masks.fb_check": _count_fb_valid,
}
