"""Spans around the public functions of every lie_sbe module.

Tracer.install() replaces each public function of lie_sbe.<module> by a
wrapper in every lie_sbe namespace that holds it, so calls through names
bound with `from .linalg import rank` are caught too.  A span records its
name, start, end, parent and operation id in flat arrays kept in memory;
save() writes them out once the run is over.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np

# Span name -> per-layer group.  Anything not listed falls back to its module.
_GROUPS = {
    "linalg.rank": "linalg.rank",
    "linalg.rref": "linalg.rref",
    "cohomology.differential": "cohomology.differential",
    "cohomology.Differential.dense": "cohomology.dense",
    "laws.check_jacobi": "laws.check_jacobi",
    "laws.derivations": "laws.derivations",
    "curvature.frame_matrices": "curvature.frame",
    "curvature.curvature_tensor": "curvature.tensor",
    "schemas.validate": "schemas.validate",
}
_MODULE_GROUP = {
    "linalg": "linalg.other",
    "cohomology": "cohomology.other",
    "laws": "laws.other",
    "curvature": "curvature.sampling",
    "cli": "cli.run",
}
# Functions whose calls are counted, as the number of their spans.
_CALLS = ("linalg.rank", "linalg.rref", "cohomology.differential",
          "curvature.frame_matrices", "curvature.curvature_tensor")
# Methods traced besides module-level functions.
_METHODS = {"cohomology": ("Differential",), "linalg": ("Subspace",)}
# Scalar coercion run once per matrix entry: a span per call would cost more
# than the call, so its time stays in the caller's self time.
_UNTRACED = {"linalg.frac"}

GROUPS = (
    "linalg.rank", "linalg.rref", "linalg.other",
    "cohomology.differential", "cohomology.dense", "cohomology.other",
    "laws.check_jacobi", "laws.derivations", "laws.other", "catalog",
    "polynomials", "deformation", "heintze",
    "curvature.frame", "curvature.tensor", "curvature.sampling",
    "buildings", "cli.run", "jsonio", "schemas.validate",
)


# Span of the benchmark's own counters; it belongs to no group.
COUNTING = "bench.count"


def group_of(name: str) -> str:
    if name in _GROUPS:
        return _GROUPS[name]
    module = name.split(".", 1)[0]
    return _MODULE_GROUP.get(module, module)


def self_times(start, end, parent):
    """Per-span self time: duration minus the durations of direct children.

    Children never outlive their parent, so the children's durations are
    exactly the part of the parent's interval that they cover.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    covered = np.zeros(len(dur))
    has = parent >= 0
    np.add.at(covered, parent[has], dur[has])
    return dur - covered


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.name = array.array("q")
        self.op = array.array("q")
        self.op_id = -1
        self.counts = {}
        self._stack = []
        self._patched = []
        self._diff_seen = set()

    # -- recording --------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name):
        nid = self._id(name)
        counter = _COUNTERS.get(name)
        count_nid = self._id(COUNTING) if counter is not None else None
        tracer = self
        start, end, parent, names, ops, stack = (
            self.start, self.end, self.parent, self.name, self.op, self._stack)
        clock = time.perf_counter

        def open_span(span_nid):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(span_nid)
            ops.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            return idx

        def close_span(idx):
            end[idx] = clock()
            stack.pop()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if counter is not None:
                # a span of its own next to the one it counts: the benchmark's
                # counting goes to bench.unattributed_s, not to a layer
                idx = open_span(count_nid)
                try:
                    counter(tracer, args, kwargs, out)
                finally:
                    close_span(idx)
            return out

        return traced

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap the public functions (and traced methods) of every module.

        A function whose span would belong to no group in GROUPS (a module
        added after the benchmark) is left unwrapped, so its time counts as
        its caller's self time.
        """
        modules = {info.name: importlib.import_module(package.__name__ + "." + info.name)
                   for info in pkgutil.iter_modules(package.__path__)}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                label = "%s.%s" % (short, attr)
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and attr != "main"
                        and label not in _UNTRACED and group_of(label) in GROUPS):
                    wrapped[obj] = self.wrap(obj, label)
            for cls_name in _METHODS.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    label = "%s.%s.%s" % (short, cls_name, attr)
                    if isinstance(obj, staticmethod):
                        new = staticmethod(self.wrap(obj.__func__, label))
                    elif inspect.isfunction(obj):
                        new = self.wrap(obj, label)
                    else:
                        continue
                    self._patched.append((cls, attr, obj))
                    setattr(cls, attr, new)
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self):
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Self seconds per group; counting spans are left out."""
        names = np.asarray(self.name, dtype=np.int64)
        selfs = self_times(self.start, self.end, self.parent)
        totals = {g: 0.0 for g in GROUPS}
        group_ids = np.array([GROUPS.index(group_of(n)) if n != COUNTING else len(GROUPS)
                              for n in self.names] or [0])
        if len(names):
            sums = np.bincount(group_ids[names], weights=selfs, minlength=len(GROUPS) + 1)
            for g, s in zip(GROUPS, sums):
                totals[g] = float(s)
        return totals

    def all_counts(self) -> dict:
        """Counter totals, and `<group>.calls` for each function in _CALLS."""
        per_name = np.bincount(np.asarray(self.name, dtype=np.int64), minlength=len(self.names))
        counts = dict(self.counts)
        for name in _CALLS:
            counts[_GROUPS[name] + ".calls"] = int(per_name[self._ids[name]]) if name in self._ids else 0
        return counts

    def save(self, path):
        np.savez(path, names=np.array(self.names), start=np.asarray(self.start),
                 end=np.asarray(self.end), parent=np.asarray(self.parent),
                 name=np.asarray(self.name), op=np.asarray(self.op))


# -- counters: recorded in a counting span after the span they describe ----

def _cells(m):
    return len(m) * (len(m[0]) if m else 0)


def _count_rank(tracer, args, kwargs, out):
    m = args[0]
    tracer.count("linalg.rank.cells", _cells(m))
    tracer.count("linalg.rank.nnz", sum(1 for row in m for x in row if x != 0))


def _count_rref(tracer, args, kwargs, out):
    tracer.count("linalg.rref.cells", _cells(args[0]))


def _count_differential(tracer, args, kwargs, out):
    law, q = args[0], args[1]
    module = args[2] if len(args) > 2 else kwargs.get("module", "trivial")
    key = (law, q, module)
    tracer.count("cohomology.differential.reused", int(key in tracer._diff_seen))
    tracer._diff_seen.add(key)
    tracer.count("cohomology.differential.entries", len(out.entries))
    tracer.count("cohomology.differential.cells", len(out.rows) * len(out.cols))


def _count_samples(tracer, args, kwargs, out):
    tracer.count("curvature.samples", out.samples)


_COUNTERS = {
    "linalg.rank": _count_rank,
    "linalg.rref": _count_rref,
    "cohomology.differential": _count_differential,
    "curvature.pinching_estimate": _count_samples,
}
