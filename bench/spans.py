"""Span tracing of localvertex, installed from outside the package.

``install()`` replaces every traced callable with a wrapper that records
a span (name, start, end, parent) and puts the wrapper back at every name
a caller looks the callable up by: the defining module, every module that
imported it by name, the package's re-exports, module-level dicts of
callables (the CLI's task table), and the class dict for methods,
including reflected aliases such as ``__radd__ = __add__``.  Spans stay in
memory until ``Tracer.metrics()`` reduces them after the job.

Traced: the public functions and methods of qfield, series, symmfun,
vertex, rationality, gwtheory and cli, the arithmetic dunders of QRat and
TruncSeries, and ``gwtheory._exp_u_mixed``.  Not traced: ``partitions``
(under 1 % everywhere) and ``GaussianRational`` (tens of thousands of
calls per ``tilde_pt0`` job; wrapping them would distort the trace, so
their time lands in the caller, ``gwtheory.to_u_series``).
"""

from __future__ import annotations

import functools
import time
from array import array

MODULES = ("qfield", "series", "symmfun", "vertex", "rationality", "gwtheory", "cli")
SKIP_CLASSES = {"GaussianRational"}
ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
)
PRIVATE_TRACED = {"gwtheory._exp_u_mixed"}

# metric group -> span names; see Tracer.metrics for how each is reduced
GROUPS = {
    "qfield.add": ("qfield.QRat.__add__", "qfield.QRat.__radd__"),
    "qfield.mul": (
        "qfield.QRat.__mul__", "qfield.QRat.__rmul__", "qfield.QRat.__truediv__",
        "qfield.QRat.__rtruediv__", "qfield.QRat.reciprocal",
    ),
    "series.mul": ("series.TruncSeries.__mul__", "series.TruncSeries.__rmul__"),
    "series.exp": ("series.TruncSeries.exp",),
    "series.log": ("series.TruncSeries.log",),
    "series.inverse": ("series.TruncSeries.inverse",),
    "vertex.s_build": ("vertex.s_closed",),
    "vertex.scache": ("vertex.SCache.get",),
    "vertex.z": ("vertex.z_hirzebruch",),
    "gwtheory.log_z": ("gwtheory.log_z",),
    "gwtheory.u_expand": ("gwtheory.to_u_series",),
    "gwtheory.tilde_exp": ("gwtheory._exp_u_mixed",),
}
LAYER_GROUPS = ("symmfun", "rationality", "cli")


class Tracer:
    """Spans in flat arrays: span i has name[i], start[i], end[i], parent[i]."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.lru_caches = []

    def wrap(self, span_name, fn):
        name_id = len(self.names)
        self.names.append(span_name)
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def metrics(self) -> dict:
        """Reduce the spans to the per-layer metrics named in BENCHMARK.json.

        ``.calls`` counts the outermost spans of a group (no ancestor in the
        same group) and ``.s`` sums their durations; ``.self_s`` sums, over
        every span of the group, its duration minus its direct children's.
        """
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        label = [self.names[k] for k in self.name]

        group_of = {}
        for group, members in GROUPS.items():
            for member in members:
                group_of[member] = group
        for layer in LAYER_GROUPS:
            for span_name in self.names:
                if span_name.startswith(layer + "."):
                    group_of[span_name] = layer
        span_group = [group_of.get(name) for name in label]

        calls, incl, self_s = {}, {}, {}
        for i in range(n):
            group = span_group[i]
            if group is None:
                continue
            self_s[group] = self_s.get(group, 0.0) + dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and span_group[p] != group:
                p = self.parent[p]
            if p < 0:
                calls[group] = calls.get(group, 0) + 1
                incl[group] = incl.get(group, 0.0) + dur[i]

        # an S-cache get is a hit when no S-build ran inside it
        built = set()
        build_s = 0.0
        for i in range(n):
            p = self.parent[i]
            if span_group[i] == "vertex.s_build" and p >= 0 and span_group[p] == "vertex.scache":
                built.add(p)
                build_s += dur[i]
        gets = calls.get("vertex.scache", 0)

        def c(g):
            return calls.get(g, 0)

        def s(g):
            return incl.get(g, 0.0)

        def own(g):
            return self_s.get(g, 0.0)

        return {
            "qfield.add.calls": c("qfield.add"),
            "qfield.add.s": s("qfield.add"),
            "qfield.mul.calls": c("qfield.mul"),
            "qfield.mul.s": s("qfield.mul"),
            "series.mul.calls": c("series.mul"),
            "series.mul.self_s": own("series.mul"),
            "series.exp.s": s("series.exp"),
            "series.log.s": s("series.log"),
            "series.inverse.s": s("series.inverse"),
            "vertex.s_build.calls": c("vertex.s_build"),
            "vertex.s_build.s": s("vertex.s_build"),
            "vertex.scache.gets": gets,
            "vertex.scache.hit_ratio": (gets - len(built)) / gets if gets else 0.0,
            "vertex.scache.load_s": s("vertex.scache") - build_s,
            "vertex.z.calls": c("vertex.z"),
            "vertex.z.self_s": own("vertex.z"),
            "symmfun.s": s("symmfun"),
            "symmfun.cache_misses": sum(f.cache_info().misses for f in self.lru_caches),
            "rationality.s": s("rationality"),
            "gwtheory.log_z.self_s": own("gwtheory.log_z"),
            "gwtheory.u_expand.calls": c("gwtheory.u_expand"),
            "gwtheory.u_expand.s": s("gwtheory.u_expand"),
            "gwtheory.tilde_exp.self_s": own("gwtheory.tilde_exp"),
            "cli.self_s": own("cli"),
        }

    def span_table(self) -> dict:
        """Calls per span name, including names that were never entered."""
        counts = dict.fromkeys(self.names, 0)
        for k in self.name:
            counts[self.names[k]] += 1
        return counts


def _is_traced_function(obj, module_name) -> bool:
    # plain functions and lru_cache wrappers defined in the module itself
    return callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == module_name


def install(package) -> Tracer:
    """Wrap the traced callables of ``package`` (the imported localvertex)."""
    import importlib

    tracer = Tracer()
    modules = {m: importlib.import_module("%s.%s" % (package.__name__, m)) for m in MODULES}
    namespaces = [package] + list(modules.values())
    replaced = {}  # id(original) -> wrapper; the wrapper keeps the original alive

    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            qualified = "%s.%s" % (short, attr)
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                if obj.__name__ not in SKIP_CLASSES:
                    _wrap_class(tracer, qualified, obj)
            elif _is_traced_function(obj, module.__name__) and (
                not attr.startswith("_") or qualified in PRIVATE_TRACED
            ):
                if hasattr(obj, "cache_info"):
                    tracer.lru_caches.append(obj)
                replaced[id(obj)] = tracer.wrap(qualified, obj)

    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            if id(obj) in replaced:
                setattr(namespace, attr, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if id(value) in replaced:
                        obj[key] = replaced[id(value)]
    return tracer


def _wrap_class(tracer, qualified, cls):
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and attr not in ARITHMETIC:
            continue
        name = "%s.%s" % (qualified, attr)
        if isinstance(obj, (classmethod, staticmethod)):
            setattr(cls, attr, type(obj)(tracer.wrap(name, obj.__func__)))
        elif callable(obj) and not isinstance(obj, type):
            setattr(cls, attr, tracer.wrap(name, obj))
