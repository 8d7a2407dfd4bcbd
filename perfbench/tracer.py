"""In-memory span tracer that wraps the package's public functions.

The program's source is left untouched.  While a :class:`Tracer` is
installed, every public function of the metered modules is replaced, in
every ``spin_stirling`` module namespace that holds it, by a wrapper that
records a span ``(id, parent id, key, start, end, counts)``.  Calls inside
a module go through that module's globals, so they are caught too (for
example ``phasemap.export_to_path`` calling ``phasemap.export``).

``_kernels`` functions call each other, and only the outermost entry into
the kernel layer is metered.  Callers reach the kernels through the
module binding ``_kernels`` (or a name imported from it), so the tracer
rebinds those to a wrapped proxy and leaves the kernel module's own
globals alone: a kernel's internal calls never see a wrapper.

Spans opened on a worker thread whose own stack is empty (the sweep's
thread pool) take as parent the innermost open span of the thread that
installed the tracer.  Self time is a span's duration minus the union of
its children's intervals, so overlapping parallel children are not
subtracted twice.  The parallel children's own self times still add up,
so with the sweep's pool on, the summed self time can exceed the op's
wall time slightly and the unattributed share can read a little below 0.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
import types
from collections import defaultdict

import numpy as np

# ``_kernels`` is reported under the layer name ``kernels``.
from package import MODULES as LAYERS


def layer_name(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _array_bytes(value) -> int:
    if isinstance(value, tuple):
        return sum(_array_bytes(v) for v in value)
    return int(np.asarray(value).nbytes)


def _max_size(value) -> int:
    if isinstance(value, tuple):
        return max((_max_size(v) for v in value), default=0)
    return int(np.size(value))


def _kernel_counts(args, kwargs, result):
    # Work done by one outermost kernel call, computed from array sizes:
    # elements evaluated (largest output) and bytes read plus written at
    # the call boundary.  Cache traffic inside numpy is not seen.
    operands = tuple(args) + tuple(kwargs.values())
    return {
        "elements": _max_size(result),
        "bytes": _array_bytes(operands) + _array_bytes(result),
    }


def _len_counter(name):
    def count(args, kwargs, result):
        return {name: len(result)}

    return count


# Work counts recorded at the boundary of particular functions.
_COUNTERS = {
    "phasemap.sweep": _len_counter("cells"),
    "phasemap.read_cells": _len_counter("cells"),
    "phasemap.export": _len_counter("bytes"),
    "magnetometry.engine_curve": _len_counter("points"),
    "magnetometry.fit_bleaney_bowers": lambda a, k, r: {"iterations": r.iterations},
}


class Tracer:
    """Installs span-recording wrappers; collects the spans of each op."""

    def __init__(self, modules: dict[str, types.ModuleType]):
        """``modules``: the package's modules, keyed by their short name."""
        self._modules = modules
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[types.ModuleType, str, object]] = []
        self._main_stack: list[int] = []
        self.spans: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, fn, counter):
        spans = self.spans
        ids = self._ids
        main_stack = self._main_stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else 0
            sid = next(ids)
            stack.append(sid)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                counts = None
                if counter is not None and result is not None:
                    counts = counter(args, kwargs, result)
                spans.append((sid, parent, key, t0, t1, counts))

        return traced

    def _public_functions(self, module):
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name, None)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield name, fn

    def install(self) -> None:
        """Patch every metered function; idempotent only via uninstall."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main_stack
        # Keyed by id() because module namespaces also hold unhashable
        # values; the stored original confirms the identity.
        wrappers: dict[int, tuple[object, object]] = {}
        kernels = self._modules.get("_kernels")
        proxy = None
        for layer in LAYERS:
            module = self._modules.get(layer)
            if module is None:
                continue
            for name, fn in self._public_functions(module):
                key = f"{layer_name(layer)}.{name}"
                counter = _kernel_counts if module is kernels else _COUNTERS.get(key)
                wrappers[id(fn)] = (fn, self._wrap(key, fn, counter))
        if kernels is not None:
            proxy = types.ModuleType(kernels.__name__, kernels.__doc__)
            proxy.__dict__.update(vars(kernels))
            for name, fn in self._public_functions(kernels):
                setattr(proxy, name, wrappers[id(fn)][1])
        for module in self._modules.values():
            if module is kernels:
                continue
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if value is kernels and proxy is not None:
                    replacement = proxy
                elif entry is not None and entry[0] is value:
                    replacement = entry[1]
                else:
                    continue
                self._patches.append((module, name, value))
                setattr(module, name, replacement)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()
        self._local.stack = None

    def take_spans(self) -> list[tuple]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of each span: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    bounds = {}
    for sid, parent, _key, t0, t1, _counts in spans:
        bounds[sid] = (t0, t1)
        children[parent].append((t0, t1))
    result = {}
    for sid, (t0, t1) in bounds.items():
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        result[sid] = (t1 - t0) - covered
    return result


class LayerTotals:
    """Per-function and per-layer sums over the traced ops of one run.

    Keys are ``<layer>.<function>``.  ``counts`` holds the work counts
    recorded at function boundaries, keyed ``(key, count name)``;
    ``children`` counts direct calls, keyed ``(caller key, callee key)``,
    for ratios measured where the work happens (bisection work
    evaluations, Jacobian evaluations).
    """

    def __init__(self) -> None:
        self.ops = 0
        self.op_wall_s = 0.0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.children: dict[tuple[str, str], int] = defaultdict(int)

    def add_op(self, spans: list[tuple], op_wall_s: float, scale: float = 1.0) -> None:
        """Add one traced op; its times are multiplied by ``scale``."""
        self.ops += 1
        self.op_wall_s += op_wall_s * scale
        selfs = self_times(spans)
        keys = {sid: key for sid, _p, key, *_rest in spans}
        for sid, parent, key, _t0, _t1, counts in spans:
            self.calls[key] += 1
            self.self_s[key] += selfs[sid] * scale
            for name, value in (counts or {}).items():
                self.counts[key, name] += value
            if parent in keys:
                self.children[keys[parent], key] += 1

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(layer + "."))

    def layer_count(self, layer: str, name: str) -> int:
        return sum(
            v for (k, n), v in self.counts.items()
            if n == name and k.startswith(layer + ".")
        )

    def child_count(self, caller: str, callee_prefix: str) -> int:
        return sum(
            v for (k, c), v in self.children.items()
            if k == caller and c.startswith(callee_prefix)
        )
