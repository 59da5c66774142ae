"""Outside-in span tracing of the ariscf package, installed from the benchmark.

`Tracer.install()` replaces every public function in each ariscf module
namespace that holds it (a `from .x import y` binding is one more namespace
for the same function) and the public methods of the SAC classes with a
wrapper that records one span per call: name, start, end, parent span and op
id. Spans stay in memory; `write` dumps them at the end. `uninstall` puts the
original objects back, so untraced ops run the unmodified program.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("ariscf", "ariscf.scenario", "ariscf.ris", "ariscf.channel", "ariscf.estimation",
           "ariscf.perf", "ariscf.oracle", "ariscf.cli", "ariscf.sac", "ariscf.sac.agent",
           "ariscf.sac.env", "ariscf.sac.nets", "ariscf.sac.buffer")
CLASSES = (("ariscf.sac.env", "RisEnv"), ("ariscf.sac.agent", "SacAgent"),
           ("ariscf.sac.nets", "DenseNet"), ("ariscf.sac.buffer", "ReplayBuffer"))
LAYERS = ("cli", "scenario", "ris", "channel", "estimation", "perf", "oracle",
          "sac.env", "sac.agent", "sac.nets", "sac.buffer")


def _layer(module_name: str) -> str:
    return module_name.removeprefix("ariscf.")


class Tracer:
    def __init__(self):
        self.spans: list = []       # (name, start_ns, end_ns, parent_index, op, nested)
        self.op = -1
        self.layer_of: dict[str, str] = {}
        self.hooks: dict = {}       # span name -> callable(args, kwargs), run outside the span
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list = []
        self._wrappers: dict[int, object] = {}

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        self.layer_of[name] = layer
        spans, stack, depth, hooks = self.spans, self._stack, self._depth, self.hooks
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hook = hooks.get(name)
            if hook is not None:
                hook(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = depth[name] > 0
            stack.append(idx)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, nested)
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        function_names = set()
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or not obj.__module__.startswith("ariscf"):
                    continue
                wrapper = self._wrappers.get(id(obj))
                if wrapper is None:
                    name = f"{_layer(obj.__module__)}.{obj.__name__}"
                    function_names.add(name)
                    wrapper = self._wrap(obj, name, _layer(obj.__module__))
                    self._wrappers[id(obj)] = wrapper
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrapper)
        for mod_name, cls_name in CLASSES:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            layer = _layer(mod_name)
            for attr, obj in list(vars(cls).items()):
                static = isinstance(obj, staticmethod)
                fn = obj.__func__ if static else obj
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{attr}"
                if name in function_names:   # e.g. SacAgent.polyak_update vs polyak_update
                    name = f"{layer}.{cls_name}.{attr}"
                wrapper = self._wrap(fn, name, layer)
                self._patches.append((cls, attr, obj))
                setattr(cls, attr, staticmethod(wrapper) if static else wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._wrappers.clear()

    # -- analysis ------------------------------------------------------------

    def summarize(self, ops) -> dict:
        """Per-name totals over the spans of the given op ids.

        Returns {name: {"calls", "ns" (inclusive, outermost calls only),
        "self_ns" (duration minus the time child spans cover)}}.
        """
        ops = set(ops)
        child_ns = defaultdict(int)
        for name, start, end, parent, op, nested in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        for i, (name, start, end, parent, op, nested) in enumerate(self.spans):
            if op not in ops:
                continue
            t = totals[name]
            t["calls"] += 1
            if not nested:
                t["ns"] += end - start
            t["self_ns"] += end - start - child_ns.get(i, 0)
        return dict(totals)

    def write(self, path, meta: dict) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"meta": meta, "layer_of": self.layer_of,
                                 "fields": ["name", "start_ns", "end_ns", "parent", "op", "nested"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
