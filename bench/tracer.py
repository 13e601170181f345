"""Span tracing of netsmith's public functions, installed from outside.

``Tracer.install`` rebinds every public function of the netsmith modules,
in every netsmith namespace that holds it, to a wrapper that records one
span per call: name, start, end and the enclosing span.  Spans are kept in
flat arrays in memory and written out once, at the end of the run.
``Tracer.uninstall`` puts the original functions back, so code outside a
traced section runs exactly as untraced code does.

A span's *self* time is its duration minus the durations of its direct
children; since spans nest strictly, the self times of all spans add up to
the time covered by the root spans.
"""
from __future__ import annotations

from array import array
import functools
import inspect
import sys
import time

import numpy as np

# Modules whose public functions are traced.  ``presets`` only supplies
# inputs and is left out; the package ``__init__`` re-exports names and is
# patched as a namespace, not as a layer.
LAYERS = ("lti_core", "smith_design", "packet_channel", "gain_analysis",
          "stability_criteria", "lmi_assembly", "sim_engine", "cli")


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    """In-memory span recorder with an on/off switch.

    Spans are recorded only while ``active`` is true, so checks the
    benchmark runs between items call the wrapped functions without
    leaving spans behind.  ``on_return`` maps a span name to a callable
    that receives the call's positional and keyword arguments and its
    result; it runs after the span has ended.
    """

    def __init__(self, on_return: dict | None = None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.active = False
        self.on_return = dict(on_return or {})
        self._patches: list[tuple] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        hook = self.on_return.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Rebind the public functions of every layer module of ``package``
        in every ``package`` namespace that imports them."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for fname, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == package.__name__
                      or key.startswith(package.__name__ + ".")]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(ns, attr, hit[1])
                    self._patches.append((ns, attr, val))

    def uninstall(self) -> None:
        for ns, attr, val in reversed(self._patches):
            setattr(ns, attr, val)
        self._patches.clear()

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict:
        """Per span name: call count, summed self time and summed
        duration (seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        parent = np.asarray(self.parent, dtype=np.int64)
        name = np.asarray(self.name, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_sum = np.bincount(name, weights=self_time, minlength=k)
        dur_sum = np.bincount(name, weights=dur, minlength=k)
        return {nm: {"calls": int(calls[i]), "self_s": float(self_sum[i]),
                     "total_s": float(dur_sum[i])}
                for i, nm in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span as arrays (name index, parent index, start,
        end) plus the name table."""
        np.savez(path, names=np.array(self.names),
                 name=np.asarray(self.name, dtype=np.int64),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 start=np.asarray(self.start, dtype=float),
                 end=np.asarray(self.end, dtype=float))
