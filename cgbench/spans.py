"""In-memory span tracer installed around cgclutter's public API from outside.

Nothing in the package is edited.  `Tracer.install()` replaces every
public function of each layer module (its ``__all__``; ``main`` for the
CLI) and the ``__init__``, ``__call__`` and public methods of its public
classes with a wrapper that records a span.  A function is replaced in
its defining module and in every ``cgclutter`` module that imported it by
name, so ``cgclutter.cli.simulate`` is traced as well as
``cgclutter.texture.simulate``.  `uninstall()` restores the originals,
so untraced operations run the unmodified code.

Span names are ``<module>.<function>``, ``<module>.<Class>`` for a
constructor and ``<module>.<Class>.<method>`` for a method.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

LAYERS = ("bernstein", "mixing", "texture", "laws", "estimators", "speckle",
          "bessel", "cli")

# counters recorded at a span's boundary: span name -> (counter, fn(args, result))
COUNTERS = {
    "texture.poisson_arrivals": ("texture.arrivals", lambda a, r: len(r)),
    "texture.windowed_process": ("texture.change_points",
                                 lambda a, r: len(r.change_times)),
    "texture.sample_on_grid": ("texture.grid_points", lambda a, r: len(r)),
    "texture.TexturePath.export_grid_csv": ("texture.export_grid_csv.bytes",
                                            lambda a, r: os.path.getsize(a[1])),
    "texture.TexturePath.export_events_csv": ("texture.export_events_csv.bytes",
                                              lambda a, r: os.path.getsize(a[1])),
    "speckle.ClutterSeries.export_csv": ("speckle.export_csv.bytes",
                                         lambda a, r: os.path.getsize(a[1])),
}


def _targets(module_name):
    """(owner, attribute, span name) for every traced callable of a layer."""
    mod = importlib.import_module(f"cgclutter.{module_name}")
    names = getattr(mod, "__all__", None) or ["main"]
    out = []
    for name in names:
        obj = getattr(mod, name)
        if isinstance(obj, type):
            if issubclass(obj, BaseException):
                continue
            for attr, member in vars(obj).items():
                if not callable(member) or isinstance(member, (staticmethod, classmethod, type)):
                    continue
                if attr == "__init__":
                    out.append((obj, attr, f"{module_name}.{name}"))
                elif attr == "__call__" or not attr.startswith("_"):
                    out.append((obj, attr, f"{module_name}.{name}.{attr}"))
        elif callable(obj):
            out.append((mod, name, f"{module_name}.{name}"))
    return out


class Tracer:
    """Records spans as [name, start, end, parent index, op index] lists."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = -1
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                key = (self.op, counter[0])
                counts[key] = counts.get(key, 0) + counter[1](args, result)
            return result
        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cgclutter" or n.startswith("cgclutter."))]
        for layer in LAYERS:
            for owner, attr, span_name in _targets(layer):
                original = vars(owner)[attr]
                wrapper = self._wrap(span_name, original)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._restore.append((mod, alias, original))
                            setattr(mod, alias, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self):
        """Per span: (name, op, duration, self time, is top level)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], s[4], s[2] - s[1], s[2] - s[1] - child[i], s[3] < 0)
                for i, s in enumerate(self.spans)]
