"""Spans around the public functions of the cpb modules, from benchmark code.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span, in every cpb module namespace that
holds the function.  The modules call each other (and themselves) through
those namespaces, so nested calls nest their spans.  ``Tracer.restore``
puts the original functions back.  Spans stay in memory, one array per
field, until ``write``.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

# Layer modules, in the order the per-layer metrics name them.
LAYERS = ("cli", "continuous", "discrete", "verify", "core", "timescale")


def _history_size(args, kwargs, result):
    """k for a continuous history argument, n for a discrete one."""
    for value in (*args, *kwargs.values()):
        if hasattr(value, "horizon_slot"):
            return value.horizon_slot
        if hasattr(value, "arrivals"):
            return len(value.arrivals)
    return -1


# Size recorded with a span, per traced function.
SIZERS = {
    "continuous.intensity": _history_size,
    "continuous.posterior_survival": _history_size,
    "discrete.posterior_survival": _history_size,
    "continuous.sample_path": lambda a, kw, r: len(r.arrival_times) if r is not None else -1,
    "discrete.sample_discrete_path": lambda a, kw, r: a[1] if len(a) > 1 else kw.get("horizon", -1),
}


def public_functions(module):
    """Functions a module defines and exports (its __all__, else no leading _)."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Spans in columns: span i has name names[codes[i]], start[i], end[i],
    parent[i] (-1 for a root span), command[i] (the benchmark command that
    caused it) and size[i] (arrivals k or slots n of its input, -1 if none).
    """

    def __init__(self):
        self.names: list[str] = []
        self.codes = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.command = array("l")
        self.size = array("l")
        self.errors: dict[int, str] = {}
        self.current_command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id of original -> wrapper

    def __len__(self) -> int:
        return len(self.codes)

    def seconds(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def name(self, i: int) -> str:
        return self.names[self.codes[i]]

    def _wrap(self, name: str, fn):
        sizer = SIZERS.get(name)
        code = len(self.names)
        self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.codes)
            self.codes.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.command.append(self.current_command)
            self.end.append(0.0)
            self.size.append(-1)
            stack.append(index)
            result = None
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                self.errors[index] = type(exc).__name__
                raise
            finally:
                self.end[index] = perf_counter()
                stack.pop()
                if sizer is not None:
                    self.size[index] = sizer(args, kwargs, result)

        return traced

    def install(self, package: str = "cpb"):
        """Wrap every public function of the layer modules, plus scipy's quad.

        The wrappers are made on the first call and reused after a restore.
        """
        import scipy.integrate

        if not self._wrappers:
            for layer in LAYERS:
                for name, fn in public_functions(sys.modules[f"{package}.{layer}"]):
                    self._wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
            # the weibull segment integral, measured at the scipy boundary
            quad = scipy.integrate.quad
            self._wrappers[id(quad)] = self._wrap("continuous.quad", quad)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for module in [*modules, scipy.integrate]:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def self_seconds(self) -> array:
        """Each span's duration minus the time its direct children cover."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path: Path):
        with gzip.open(path, "wt", newline="") as stream:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(["index", "name", "start", "end", "parent", "command", "size", "error"])
            for i in range(len(self)):
                writer.writerow([i, self.name(i), repr(self.start[i]), repr(self.end[i]), self.parent[i],
                                 self.command[i], self.size[i], self.errors.get(i, "")])
