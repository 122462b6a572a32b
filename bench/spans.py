"""Span tracing of emtrace's public functions, installed from outside the package.

Each traced function is replaced, in every emtrace module that binds it
(so re-imports such as ``channel.transfer`` are caught too), by a wrapper
that records a span: layer name, start, end and the span that called it.
Spans and counts stay in memory; :meth:`Tracer.write` stores the spans when
the run ends. A layer's self time is the sum over its spans of the span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# layer -> (module, attribute) of the functions whose spans make up the layer
LAYERS = {
    "scene.load": [("scene", "load_scene")],
    "bvh.build": [("bvh", "build")],
    "bvh.intersect": [("bvh", "Bvh.intersect")],
    "bvh.occluded": [("bvh", "Bvh.occluded")],
    "tracer.launch": [("tracer", "launch_candidates")],
    "tracer.enumerate": [("tracer", "enumerate_candidates")],
    "tracer.solve": [("tracer", "image_solve")],
    "tracer.paths_between": [("tracer", "compute_paths_between")],
    "em.transfer": [("em", "transfer")],
    "em.gains": [("em", "compute_gains")],
    "em.doppler": [("em", "apply_doppler")],
    "autodiff.gradient": [("autodiff", "Tape.gradient")],
    "channel.coverage": [("channel", "coverage_map"), ("channel", "point_path_gain")],
    "channel.cir": [("channel", "build_cir")],
    "channel.ofdm": [("channel", "frequency_response")],
    "optim.learn": [("optim", "learn_materials")],
    "optim.dataset": [("optim", "generate_dataset")],
}


# layer -> (counter, function of the call's result and its first argument)
COUNTS = {
    "tracer.launch": ("tracer.launched_candidates", lambda res, first: len(res)),
    "tracer.enumerate": ("tracer.enumerated_candidates", lambda res, first: len(res)),
    "tracer.solve": ("tracer.solve_accepted", lambda res, first: res is not None),
    "tracer.paths_between": ("tracer.paths", lambda res, first: len(res)),
    "autodiff.gradient": ("autodiff.tape_nodes", lambda res, first: first.num_nodes),
    "optim.learn": ("optim.iterations", lambda res, first: len(res.rows)),
}


class Tracer:
    def __init__(self, package: str = "emtrace"):
        self.package = package
        self.layer_names = list(LAYERS)
        self.spans = []  # (span id, parent id or -1, layer index, start, end)
        self._stack = []  # [span id, child duration] of the open spans
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._patches = []  # (owner, attribute, original)
        self._wrappers = {}  # (module, attribute) -> wrapper, built once

    # -- installation --------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def install(self):
        """Wrap every traced function wherever an emtrace module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for index, layer in enumerate(self.layer_names):
            for mod_name, attr in LAYERS[layer]:
                owner = sys.modules[f"{self.package}.{mod_name}"]
                if "." in attr:  # a method: patch it on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(index, layer, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(index, layer, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        optim = sys.modules[f"{self.package}.optim"]
        self._patch(optim, "EvalContext", self._counting(optim.EvalContext,
                                                         "optim.loss_evals"))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _counting(self, fn, counter):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, index, layer, fn):
        key = (layer, fn)
        if key in self._wrappers:
            return self._wrappers[key]
        spans, stack = self.spans, self._stack
        self_s, calls, counts = self.self_s, self.calls, self.counts
        counter, count_of = COUNTS.get(layer, (None, None))
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            spans.append(None)  # reserve the id; filled when the span ends
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                spans[span_id] = (span_id, parent, index, start, end)
            if counter is not None:
                counts[counter] += count_of(result, args[0] if args else None)
            return result

        traced.__wrapped__ = fn
        self._wrappers[key] = traced
        return traced

    # -- results ---------------------------------------------------------------

    def take(self):
        """(self seconds, calls, counts) since the last take, then reset them."""
        out = (dict(self.self_s), dict(self.calls), dict(self.counts))
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return out

    def write(self, path: str):
        """Store every span as a structured numpy array (.npy) plus the layer names."""
        dtype = [("id", "<i8"), ("parent", "<i8"), ("layer", "<i4"),
                 ("start", "<f8"), ("end", "<f8")]
        arr = np.array([s for s in self.spans if s is not None], dtype=dtype)
        with open(path, "wb") as fh:
            np.save(fh, arr)
        with open(path + ".layers", "w") as fh:
            fh.write("\n".join(self.layer_names) + "\n")
