"""Span tracing of cavqmem's layers from outside the package.

`Tracer.install` wraps every public function of the layer modules and
rebinds each name that refers to it anywhere in the package (so
`metrics.build_grid` and `statesim.t_elements`, imported by name, are traced
too).  A span is (op, id, parent, name, start, end, work): `op` is the
request the span belongs to, `parent` the id of the enclosing span (-1 at a
request's root), and `work` a count measured at the boundary (wavenumbers
for scattering calls, bytes for `cli.write_csv`).  Spans stay in memory
until `write` and `summary`; spans of one request share `op`.

`peak_pass` is the separate tracemalloc pass for per-call peak memory; it
never runs together with timing.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "cavqmem"

#: The package modules that do work, in dependency order.
LAYERS = ("params", "spectral", "scattering", "metrics", "statesim", "cli")


def _k_size(args, kwargs) -> int:
    k = args[0] if args else kwargs.get("k")
    return int(np.size(k))


def _file_size(args, kwargs) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _modules() -> list:
    return [importlib.import_module(f"{PACKAGE}.{name}")
            for name in LAYERS + ("errors",)] + [importlib.import_module(PACKAGE)]


def _public_functions() -> dict:
    """{function: "layer.name"} for every public function a layer defines."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                out[obj] = f"{layer}.{name}"
    return out


def _rebind(replacement: dict) -> list:
    """Point every package-level name bound to a key at its replacement;
    returns the (module, name, original) triples that undo it."""
    undo = []
    for module in _modules():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replacement:
                setattr(module, attr, replacement[obj])
                undo.append((module, attr, obj))
    return undo


class Tracer:
    """Records one span per call into a layer's public function."""

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self.ops = array("q")
        self.parents = array("q")
        self.codes = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.works = array("q")
        self._stack = [-1]
        self._undo: list = []

    def _wrap(self, name: str, fn, work=None):
        code = len(self.names)
        self.names.append(name)
        ops, parents, codes = self.ops, self.parents, self.codes
        starts, ends, works, stack = self.starts, self.ends, self.works, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(starts)
            ops.append(tracer.op)
            parents.append(stack[-1])
            codes.append(code)
            starts.append(0.0)
            ends.append(0.0)
            works.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
                if work is not None:
                    works[sid] = work(args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrapped = {}
        for fn, name in _public_functions().items():
            if name.startswith("scattering."):
                work = _k_size
            elif name == "cli.write_csv":
                work = _file_size
            else:
                work = None
            wrapped[fn] = self._wrap(name, fn, work)
        self._undo = _rebind(wrapped)

    def uninstall(self) -> None:
        for module, attr, obj in self._undo:
            setattr(module, attr, obj)
        self._undo = []

    def __len__(self) -> int:
        return len(self.starts)

    def write(self, path: str) -> None:
        """A JSON header line naming the fields and the span names, then one
        line per span: op id parent name-index start end work, with start
        and end in nanoseconds from the first span's start."""
        t0 = self.starts[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "fields": ["op", "id", "parent", "name", "start_ns", "end_ns",
                           "work"],
                "names": self.names}) + "\n")
            for sid in range(len(self)):
                handle.write(f"{self.ops[sid]} {sid} {self.parents[sid]} "
                             f"{self.codes[sid]} "
                             f"{round((self.starts[sid] - t0) * 1e9)} "
                             f"{round((self.ends[sid] - t0) * 1e9)} "
                             f"{self.works[sid]}\n")

    def summary(self) -> dict:
        """Per-name calls, self and total seconds, boundary work, plus the
        counts that only make sense by ancestry: grid builds and wavenumber
        evaluations made on behalf of `metrics`, and scattering work counted
        once at the outermost scattering call."""
        n = len(self)
        layer = [name.split(".", 1)[0] for name in self.names]
        child_time = [0.0] * n
        under_metrics = [False] * n
        per_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                        "total_s": 0.0, "work": 0})
        grid_builds_in_metrics = k_evals = k_evals_in_metrics = 0
        for sid in range(n):
            parent = self.parents[sid]
            dur = self.ends[sid] - self.starts[sid]
            if parent >= 0:
                child_time[parent] += dur
                under_metrics[sid] = (layer[self.codes[parent]] == "metrics"
                                      or under_metrics[parent])
        for sid in range(n):
            code = self.codes[sid]
            name = self.names[code]
            dur = self.ends[sid] - self.starts[sid]
            rec = per_name[name]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child_time[sid]
            rec["work"] += self.works[sid]
            if name == "spectral.build_grid" and under_metrics[sid]:
                grid_builds_in_metrics += 1
            parent = self.parents[sid]
            if layer[code] == "scattering" and (
                    parent < 0 or layer[self.codes[parent]] != "scattering"):
                k_evals += self.works[sid]
                if under_metrics[sid]:
                    k_evals_in_metrics += self.works[sid]
        return {"spans": n, "by_name": dict(per_name),
                "metrics_grid_builds": grid_builds_in_metrics,
                "scattering_k_evals": k_evals,
                "metrics_k_evals": k_evals_in_metrics}


def peak_pass(run_ops, names: tuple[str, ...]) -> dict:
    """Largest tracemalloc peak (bytes) of one call to each named function
    while `run_ops()` executes; 0 for a function that was never called.
    The named functions must not call each other."""
    peaks = {name: 0 for name in names}
    by_fn = {fn: name for fn, name in _public_functions().items()
             if name in names}

    def watch(name, fn):
        def watched(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                peaks[name] = max(peaks[name], peak)
        return watched

    undo = _rebind({fn: watch(name, fn) for fn, name in by_fn.items()})
    tracemalloc.start()
    try:
        run_ops()
    finally:
        tracemalloc.stop()
        for module, attr, obj in undo:
            setattr(module, attr, obj)
    return peaks
