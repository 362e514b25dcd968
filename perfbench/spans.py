"""In-memory span tracing of flatperm's public names, for the traced run.

``Tracer.install`` wraps, in every loaded ``flatperm`` module namespace,
each public module-level function of the eight layer modules, plus the
arithmetic dunders and ``exact_div`` set on ``QPoly``.  Each call records a
span (name, start, end, parent) in flat lists; ``uninstall`` restores the
original objects and ``aggregate`` turns the spans into per-layer metrics.

The wrappers return what the wrapped call returns and let every exception
through unchanged.  Generator functions are timed across their iteration:
each resume is a span segment of the same name, and only the first segment
counts as a call.  A span nested inside another of the same group (such as
the recursive call in ``closed_forms.total_occurrences``) is not counted
twice in the group's inclusive time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import sys
from time import perf_counter

LAYERS = ("cli", "verification", "recurrences", "qpoly", "perm_core",
          "closed_forms", "series", "bijections")

# Fixed here, not read from the program, so that the split stays put if
# the program's own Kronecker threshold moves.
MUL_LARGE_PRODUCTS = 4096

_QPOLY_ADDSUB = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")
_QPOLY_OTHER = ("__pow__", "exact_div")

# Metric groups over span names.  Each group reports `calls` and `s`.
GROUPS = {
    "recurrences.distribution_table":
        lambda name: name == "recurrences.distribution_table",
    "recurrences.refined_g1k": lambda name: name == "recurrences.refined_g1k",
    "qpoly.mul_large": lambda name: name == "qpoly.mul_large",
    "qpoly.mul_small": lambda name: name == "qpoly.mul_small",
    "qpoly.addsub": lambda name: name in {"qpoly." + d for d in _QPOLY_ADDSUB},
    "qpoly.exact_div": lambda name: name == "qpoly.exact_div",
    "qpoly.q_binomial": lambda name: name == "qpoly.q_binomial",
    "perm_core.brute": lambda name: name.startswith("perm_core.brute_"),
    "verification.run_suite": lambda name: name == "verification.run_suite",
    "cli.main": lambda name: name == "cli.main",
}
for _layer in LAYERS:
    GROUPS[_layer] = (lambda layer: lambda name:
                      name.split(".", 1)[0] == layer)(_layer)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # one entry per span segment, appended on entry
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_counts: list[int] = []  # 1 for a call, 0 for a resume
        self.stack: list[int] = [-1]
        self.counters = {"qpoly.mul.coeff_products": 0,
                         "perm_core.brute.hosts_nominal": 0,
                         "verification.checks": 0,
                         "verification.checks_failed": 0}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int, counts: int = 1) -> int:
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_counts.append(counts)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def _exit(self, i: int):
        self.span_end[i] = perf_counter()
        self.stack.pop()

    # -- wrappers -------------------------------------------------------

    def _wrap_function(self, name: str, fn):
        nid = self._nid(name)
        enter, exit_ = self._enter, self._exit
        post = self._post_hook(name)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                counts = 1
                while True:
                    i = enter(nid, counts)
                    counts = 0
                    try:
                        item = next(gen)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        exit_(i)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                i = enter(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(i)
                if post is not None:
                    post(args, kwargs, result)
                return result
        return functools.wraps(fn)(wrapper)

    def _post_hook(self, name: str):
        counters = self.counters
        if name.startswith("perm_core.brute_"):
            def hosts(args, kwargs, result):
                n = args[0] if args else kwargs["n"]
                counters["perm_core.brute.hosts_nominal"] += math.factorial(n)
            return hosts
        if name == "verification.run_suite":
            def checks(args, kwargs, report):
                counters["verification.checks"] += len(report.results)
                counters["verification.checks_failed"] += sum(
                    not r.passed for r in report.results)
            return checks
        return None

    def _wrap_mul(self, fn, qpoly_cls):
        large, small = self._nid("qpoly.mul_large"), self._nid("qpoly.mul_small")
        enter, exit_, counters = self._enter, self._exit, self.counters

        def wrapper(self_, other):
            if isinstance(other, qpoly_cls):
                products = len(self_.coeffs) * len(other.coeffs)
            elif isinstance(other, int):
                products = len(self_.coeffs) if other else 0
            else:
                products = 0
            counters["qpoly.mul.coeff_products"] += products
            i = enter(large if products > MUL_LARGE_PRODUCTS else small)
            try:
                return fn(self_, other)
            finally:
                exit_(i)
        return functools.wraps(fn)(wrapper)

    # -- install / uninstall ----------------------------------------------

    def install(self):
        """Wrap the public names in every loaded flatperm namespace."""
        for layer in LAYERS:
            importlib.import_module("flatperm." + layer)
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "flatperm" or name.startswith("flatperm.")}
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules["flatperm." + layer]
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replacements[id(obj)] = self._wrap_function(
                        f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._replace(mod, attr, wrapper)

        qpoly_cls = modules["flatperm.qpoly"].QPoly
        for attr in ("__mul__", "__rmul__"):
            self._replace(qpoly_cls, attr,
                          self._wrap_mul(vars(qpoly_cls)[attr], qpoly_cls))
        for attr in _QPOLY_ADDSUB + _QPOLY_OTHER:
            self._replace(qpoly_cls, attr, self._wrap_function(
                "qpoly." + attr, vars(qpoly_cls)[attr]))

    def _replace(self, owner, attr: str, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- output -----------------------------------------------------------

    def write(self, path: str):
        """Write every span as CSV: id,name,start,end,parent (gzipped)."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("id,name,start,end,parent\n")
            names = self.names
            for i, (nid, start, end, parent) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent)):
                out.write(f"{i},{names[nid]},{start:.9f},{end:.9f},{parent}\n")

    def aggregate(self) -> dict[str, float]:
        """Per-group calls and inclusive s, per-layer self_s, counters."""
        group_names = list(GROUPS)
        masks = []
        for name in self.names:
            mask = 0
            for bit, group in enumerate(group_names):
                if GROUPS[group](name):
                    mask |= 1 << bit
            masks.append(mask)
        layer_of = [LAYERS.index(name.split(".", 1)[0]) for name in self.names]

        n_spans = len(self.span_start)
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        child_time = [0.0] * n_spans
        # groups open among a span's ancestors; spans are in entry order, so
        # a parent always precedes its children
        ancestors = [0] * n_spans
        calls = [0] * len(group_names)
        inclusive = [0.0] * len(group_names)
        self_time = [0.0] * len(LAYERS)
        for i in range(n_spans):
            mask = masks[self.span_name[i]]
            parent = self.span_parent[i]
            if parent >= 0:
                ancestors[i] = ancestors[parent] | masks[self.span_name[parent]]
                child_time[parent] += durations[i]
            counted = self.span_counts[i]
            fresh = mask & ~ancestors[i]
            bit = 0
            while mask:
                if mask & 1:
                    calls[bit] += counted
                    if fresh >> bit & 1:
                        inclusive[bit] += durations[i]
                mask >>= 1
                bit += 1
        for i in range(n_spans):
            self_time[layer_of[self.span_name[i]]] += durations[i] - child_time[i]

        metrics: dict[str, float] = {}
        for bit, group in enumerate(group_names):
            metrics[group + ".calls"] = calls[bit]
            metrics[group + ".s"] = inclusive[bit]
        for index, layer in enumerate(LAYERS):
            metrics[layer + ".self_s"] = self_time[index]
        metrics.update(self.counters)
        return metrics
