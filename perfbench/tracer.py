"""Span tracing of nordcodes from the outside.

``Tracer.install()`` wraps the public functions and methods of every layer
module (plus ``__init__``, ``__post_init__`` and the arithmetic operators) and
rebinds every module-level reference to them.  Every call is counted.  A call
that enters a layer from another module (or from the benchmark) is timed:

* ``span`` functions record one span each: job, name, parent span, start,
  end and self time.
* ``agg`` functions are per-element methods that run too often for one span
  per call; their calls are timed in aggregate per job (count, total, self)
  but still sit on the frame stack, so their callees' time is charged to them.
* ``leaf`` functions are ``agg`` functions that call nothing outside their own
  module (``Field`` scalar ops, profile lookups, valuation pairs); they skip
  the frame stack.

Self time is a frame's duration minus the durations of its direct children,
so per job the self times of all frames, plus the job root's own, add up to
the root frame's wall time: an identity of the bookkeeping.  Spans stay in
memory until ``dump``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("field", "linalg", "semigroup", "bounds", "hermitian", "codes", "models", "cli")

_DUNDERS = {"__init__", "__post_init__", "__call__", "__add__", "__sub__", "__mul__",
            "__neg__", "__truediv__", "__pow__"}

_AGG_CLASSES = {"hermitian.TwoPointFunction"}
_LEAF_CLASSES = {"field.Field", "field.FieldElement", "hermitian.ValuationPair"}
_LEAF_NAMES = {
    "hermitian.HermitianCurve.monomial_valuations",
    "semigroup.GoodBasisProfile.sigma",
    "semigroup.GoodBasisProfile.lambda_sigma",
    "semigroup.GoodBasisProfile.lambda_rho",
    "semigroup.GoodBasisProfile.s_index",
    "semigroup.GoodBasisProfile.rho_gaps",
    "semigroup.GoodBasisProfile.sigma_gaps",
}


def _rref_hook(tr, args, result):
    rows = args[0]
    tr.extra["rref_rows"] += len(rows)
    tr.extra["rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)
    tr.extra["rref_pivots"] += len(result[1])


def _nset_hook(tr, args, result):
    tr.extra["nset_pairs"] += args[1] + 2


def _axiom_hook(tr, args, result):
    tr.extra["sample_size"] += result.sample_size


_HOOKS = {"linalg.rref": _rref_hook, "bounds.n_set": _nset_hook,
          "models.axiom_check": _axiom_hook}


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # fid -> "layer.Qual.name"
        self.calls: list[int] = []  # fid -> calls, including same-module ones
        self.agg_count: list[int] = []
        self.agg_total: list[float] = []
        self.agg_self: list[float] = []
        self.extra = {"rref_rows": 0, "rref_cells": 0, "rref_pivots": 0,
                      "nset_pairs": 0, "sample_size": 0, "messages": 0}
        self.stack: list[list] = []  # frames: [start, child time, span index]
        self.spans: list = []  # (job, fid, parent span, start, end, self)
        self.jobs: list[dict] = []
        self.job = -1

    # -- wrapping ---------------------------------------------------------

    def _register(self, name: str) -> int:
        self.names.append(name)
        for lst, zero in ((self.calls, 0), (self.agg_count, 0), (self.agg_total, 0.0),
                          (self.agg_self, 0.0)):
            lst.append(zero)
        return len(self.names) - 1

    def _wrap(self, name: str, fn, module_globals: dict, mode: str):
        fid = self._register(name)
        calls, stack, spans = self.calls, self.stack, self.spans
        agg_count, agg_total, agg_self = self.agg_count, self.agg_total, self.agg_self
        clock, getframe, hook = time.perf_counter, sys._getframe, _HOOKS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                calls[fid] += 1
                return _TracedGen(tracer, fid, fn(*args, **kwargs))
            return gen_wrapper

        if mode == "leaf":
            def leaf_wrapper(*args, **kwargs):
                calls[fid] += 1
                if not stack or getframe(1).f_globals is module_globals:
                    return fn(*args, **kwargs)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack[-1][1] += dur
                    agg_count[fid] += 1
                    agg_total[fid] += dur
                    agg_self[fid] += dur
            return leaf_wrapper

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if not stack or getframe(1).f_globals is module_globals:
                result = fn(*args, **kwargs)
            else:
                parent = stack[-1]
                if mode == "span":
                    idx = len(spans)
                    spans.append(None)
                    frame = [0.0, 0.0, idx]
                else:
                    frame = [0.0, 0.0, parent[2]]
                stack.append(frame)
                frame[0] = start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - start
                    parent[1] += dur
                    if mode == "span":
                        spans[idx] = (tracer.job, fid, parent[2], start, end, dur - frame[1])
                    else:
                        agg_count[fid] += 1
                        agg_total[fid] += dur
                        agg_self[fid] += dur - frame[1]
            if hook is not None:
                hook(tracer, args, result)
            return result
        return wrapper

    def _wrap_class(self, layer: str, cls, module_globals: dict):
        cls_name = f"{layer}.{cls.__name__}"
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{cls_name}.{attr}"
            mode = ("leaf" if cls_name in _LEAF_CLASSES or name in _LEAF_NAMES
                    else "agg" if cls_name in _AGG_CLASSES else "span")
            if isinstance(val, property):
                new = property(self._wrap(name, val.fget, module_globals, mode),
                               val.fset, val.fdel, val.__doc__)
            elif isinstance(val, (classmethod, staticmethod)):
                new = type(val)(self._wrap(name, val.__func__, module_globals, mode))
            elif inspect.isfunction(val):
                new = self._wrap(name, val, module_globals, mode)
            else:
                continue
            setattr(cls, attr, new)

    def install(self):
        """Wrap every layer; call once per process.  Names that modules
        outside nordcodes imported from it earlier are not rebound."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"nordcodes.{layer}")
            g = vars(mod)
            for attr, obj in list(g.items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj, g)
                elif callable(obj) and not attr.startswith("_"):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj, g, "span"))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "nordcodes" or mod_name.startswith("nordcodes."):
                for attr, obj in list(vars(mod).items()):
                    hit = replaced.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(mod, attr, hit[1])

    # -- jobs ---------------------------------------------------------------

    def run_job(self, fn):
        """Run fn() as one job under a root frame; returns fn's result."""
        self.job += 1
        root_idx = len(self.spans)
        self.spans.append(None)
        frame = [0.0, 0.0, root_idx]
        self.stack.append(frame)
        frame[0] = start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[root_idx] = (self.job, -1, -1, start, end, end - start - frame[1])
            aggregates = {}
            for fid, count in enumerate(self.agg_count):
                if count:
                    aggregates[fid] = (count, self.agg_total[fid], self.agg_self[fid])
                    self.agg_count[fid] = 0
                    self.agg_total[fid] = self.agg_self[fid] = 0.0
            self.jobs.append({"wall": end - start, "root_self": end - start - frame[1],
                              "aggregates": aggregates, "first_span": root_idx})

    def job_self_times(self, job: int):
        """(self time per layer, covered time) for one job.  The covered time
        is the sum of all self times, the root's included; by construction it
        equals the root frame's wall up to rounding."""
        info = self.jobs[job]
        per_layer = dict.fromkeys(LAYERS, 0.0)
        end = self.jobs[job + 1]["first_span"] if job + 1 < len(self.jobs) else len(self.spans)
        for _, fid, _, _, _, self_t in self.spans[info["first_span"] + 1:end]:
            per_layer[self.layer(fid)] += self_t
        for fid, (_, _, self_t) in info["aggregates"].items():
            per_layer[self.layer(fid)] += self_t
        return per_layer, sum(per_layer.values()) + info["root_self"]

    def layer(self, fid: int) -> str:
        return self.names[fid].split(".", 1)[0]

    def inclusive(self, name: str) -> float:
        """Total duration of the spans and aggregated frames of one function."""
        fids = {i for i, n in enumerate(self.names) if n == name}
        total = sum(e - s for _, fid, _, s, e, _ in self.spans if fid in fids)
        for info in self.jobs:
            total += sum(v[1] for fid, v in info["aggregates"].items() if fid in fids)
        return total

    def count(self, suffix: str, layer: str) -> int:
        """Calls to every function of a layer whose name ends with suffix."""
        return sum(c for n, c in zip(self.names, self.calls)
                   if n.startswith(layer + ".") and n.endswith(suffix))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "jobs": [{**j, "aggregates": {str(k): v for k, v in j["aggregates"].items()}}
                                for j in self.jobs]}, fh)


class _TracedGen:
    """Generator proxy: counts yielded messages and frames every resumption
    as an aggregated call, whoever resumes it."""

    __slots__ = ("tracer", "fid", "it")

    def __init__(self, tracer, fid, it):
        self.tracer, self.fid, self.it = tracer, fid, it

    def __iter__(self):
        return self

    def __next__(self):
        tr = self.tracer
        if not tr.stack:
            item = next(self.it)
            tr.extra["messages"] += 1
            return item
        parent = tr.stack[-1]
        frame = [0.0, 0.0, parent[2]]
        tr.stack.append(frame)
        frame[0] = start = time.perf_counter()
        try:
            item = next(self.it)
        finally:
            end = time.perf_counter()
            tr.stack.pop()
            dur = end - start
            parent[1] += dur
            tr.agg_count[self.fid] += 1
            tr.agg_total[self.fid] += dur
            tr.agg_self[self.fid] += dur - frame[1]
        tr.extra["messages"] += 1
        return item
