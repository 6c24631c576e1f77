"""Spans around the public functions of mharq, recorded from outside.

A Tracer replaces every public function of the traced modules, at every
module attribute bound to it (``mharq.numerics.minimize_box`` and
``mharq.asymptotic.minimize_box`` alike), with a wrapper that records one
span per call: layer name, start, end, parent span and op id.  Spans live in
flat in-memory arrays and are written out once, at the end of the run.
``uninstall`` puts the original objects back, so untraced passes run the
program exactly as shipped.

A layer the program no longer has is reported as absent rather than as
zero time, so a change that deletes a function leaves the benchmark running.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter
from typing import Any, Callable

PACKAGE = "mharq"
# traced modules, in the order the layers stack
MODULES = ("cli", "asymptotic", "tradeoff", "numerics", "finite_snr", "netsim")

# Optional per-layer hooks: before(args, kwargs) may return replacement
# (args, kwargs); after(args, kwargs, result) records counters.
Hook = tuple[
    Callable[[tuple, dict], tuple[tuple, dict]] | None,
    Callable[[tuple, dict, Any], None] | None,
]


def public_functions(module) -> dict[str, Callable]:
    """Functions a module defines and exports (``__all__``, else no underscore)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Span recorder and function patcher for one traced run."""

    def __init__(self):
        self.layers: list[str] = []  # span name table, index = layer id
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("l")
        self.parents = array("l")
        self.op_ids = array("l")
        self.current = -1
        self.op = -1
        self.counters: dict[str, float] = {}
        self.hook_failures: set[str] = set()  # layers whose counters are unreliable
        self._originals: dict[int, tuple[str, Callable]] = {}
        self._patched: list[tuple[Any, str, Callable]] = []

    # -- counters ------------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- patching ------------------------------------------------------------

    def discover(self) -> None:
        """Collect the public functions of every traced module that exists."""
        for short in MODULES:
            module = sys.modules.get(f"{PACKAGE}.{short}")
            if module is None:
                continue
            for name, fn in public_functions(module).items():
                self._originals[id(fn)] = (f"{short}.{name}", fn)

    def present(self, layer: str) -> bool:
        return any(name == layer for name, _ in self._originals.values())

    def install(self, hooks: dict[str, Hook] | None = None) -> None:
        """Patch every module attribute that is bound to a traced function."""
        hooks = hooks or {}
        wrappers = {
            key: self._wrap(name, fn, hooks.get(name, (None, None)))
            for key, (name, fn) in self._originals.items()
        }
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is self._originals[id(value)][1]:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        self.current = -1

    def _layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def _wrap(self, name: str, fn: Callable, hook: Hook) -> Callable:
        layer = self._layer_id(name)
        before, after = hook
        starts, ends, names = self.starts, self.ends, self.names
        parents, op_ids = self.parents, self.op_ids
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                try:
                    args, kwargs = before(args, kwargs)
                except Exception:  # a hook that no longer fits the signature
                    tracer.hook_failures.add(name)
            span = len(starts)
            parent = tracer.current
            names.append(layer)
            parents.append(parent)
            op_ids.append(tracer.op)
            ends.append(0.0)
            tracer.current = span
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                tracer.current = parent
            if after is not None:
                try:
                    after(args, kwargs, result)
                except Exception:  # a hook that no longer fits the result
                    tracer.hook_failures.add(name)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- summaries -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per layer over every recorded span.

        Self time is a span's duration minus the durations of its direct
        children.  A span nested inside a span of the same layer (recursion)
        adds to calls but not again to total time.
        """
        import numpy as np

        n = len(self.starts)
        out = {layer: {"calls": 0.0, "total_s": 0.0, "self_s": 0.0} for layer in self.layers}
        if n == 0:
            return out
        starts = np.array(self.starts, dtype=np.float64)
        ends = np.array(self.ends, dtype=np.float64)
        names = np.asarray(self.names, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = ends - starts
        has_parent = parents >= 0
        child_sum = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=n
        )
        self_time = dur - child_sum
        nested_same = np.zeros(n, dtype=bool)
        anc = parents.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            nested_same[live] |= names[anc[live]] == names[live]
            anc[live] = parents[anc[live]]
        k = len(self.layers)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names[~nested_same], weights=dur[~nested_same], minlength=k)
        selfs = np.bincount(names, weights=self_time, minlength=k)
        for i, layer in enumerate(self.layers):
            out[layer] = {
                "calls": float(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(selfs[i]),
            }
        return out

    def write(self, path) -> None:
        """Write every span as arrays (numpy .npz) with the layer name table."""
        import numpy as np

        np.savez(
            path,
            layers=np.array(self.layers, dtype=str),
            name=np.asarray(self.names, dtype=np.int32),
            start=np.array(self.starts, dtype=np.float64),
            end=np.array(self.ends, dtype=np.float64),
            parent=np.asarray(self.parents, dtype=np.int64),
            op=np.asarray(self.op_ids, dtype=np.int32),
        )
