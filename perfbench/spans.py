"""Span tracer for the genform benchmark.

``install`` wraps the public calls of every genform module from outside the
package: module-level functions (and every ``from ... import`` binding of them
in other genform modules), the methods of ``Polynomial``, ``ExpPoly``,
``SuperFunction`` and ``FormRandom``, and the suites' check helpers.  Each call
records one span (name, start, end, parent span, item id) into flat arrays
held in memory; ``write`` dumps them when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls nest strictly (one thread, no callbacks across spans), so the
children of one span never overlap and their durations are exactly the part
of the parent's interval they cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from array import array
from collections import defaultdict

# genform modules whose public calls get spans, in dependency order.
MODULES = ("ring", "exterior", "gform", "gvector", "superspace", "connection",
           "hamiltonian", "cover", "randgen", "suites", "cli")
CLASSES = {"ring": ("Polynomial", "ExpPoly"), "superspace": ("SuperFunction",),
           "randgen": ("FormRandom",)}
# Private helpers that mark a check boundary inside the suites.
PRIVATE = {"suites": ("_check", "_record")}


class Tracer:
    """Flat in-memory span store plus the ring's work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ix = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.stack = [-1]
        self.current_item = -1
        self.term_products = 0
        self.max_terms = 0

    def set_item(self, item: int) -> None:
        self.current_item = item

    def wrap(self, name: str, fn, count_terms: bool = False):
        """Return ``fn`` wrapped so that every call records one span."""
        ix = len(self.names)
        self.names.append(name)
        name_ix, start, end, parent, item, stack = (
            self.name_ix, self.start, self.end, self.parent, self.item, self.stack)
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            item.append(tracer.current_item)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if count_terms:
                tracer._count_product(args, out)
            return out

        return traced

    def _count_product(self, args, out) -> None:
        terms = getattr(out, "terms", None)
        if terms is None:
            return  # NotImplemented: Python retries the reflected operand
        left, right = args
        other = getattr(right, "terms", None)
        self.term_products += len(left.terms) * (1 if other is None else len(other))
        if len(terms) > self.max_terms:
            self.max_terms = len(terms)

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """Dump the spans: ``<path>.json`` (names, layout) + ``<path>.bin``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_ix, self.parent, self.item, self.start, self.end):
                arr.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump({"spans": len(self), "names": self.names,
                       "arrays": ["name_ix:H", "parent:i", "item:i", "start:d", "end:d"]},
                      fh)


def self_times(start, end, parent) -> array:
    """Per-span duration minus the summed durations of its direct children."""
    own = array("d", (e - s for s, e in zip(start, end)))
    for span, up in enumerate(parent):
        if up >= 0:
            own[up] -= end[span] - start[span]
    return own


def aggregate(tracer: Tracer) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, summed self time)."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    names = tracer.names
    for ix, own in zip(tracer.name_ix, self_times(tracer.start, tracer.end, tracer.parent)):
        calls[names[ix]] += 1
        self_s[names[ix]] += own
    return {name: (calls[name], self_s[name]) for name in calls}


def top_level_seconds(tracer: Tracer) -> float:
    """Time covered by spans that have no parent span."""
    return sum(e - s for s, e, up in zip(tracer.start, tracer.end, tracer.parent) if up < 0)


def _public_functions(module):
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_")):
            yield name, obj


def install(tracer: Tracer, package) -> None:
    """Wrap every public genform call in ``package`` with ``tracer`` spans."""
    modules = {name: getattr(package, name) for name in MODULES}
    replaced = {}
    for layer, module in modules.items():
        chosen = list(_public_functions(module))
        chosen += [(name, getattr(module, name)) for name in PRIVATE.get(layer, ())]
        for name, fn in chosen:
            replaced[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") and not attr.endswith("__"):
                    continue  # private helpers such as _require_same_dim
                label = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(cls, attr, type(raw)(tracer.wrap(label, raw.__func__)))
                elif inspect.isfunction(raw):
                    count = cls_name == "Polynomial" and attr == "__mul__"
                    setattr(cls, attr, tracer.wrap(label, raw, count_terms=count))
    # Rebind the functions everywhere they were imported, the package included.
    for module in [package, *modules.values()]:
        for name, obj in list(vars(module).items()):
            if name.startswith("__"):
                continue
            if isinstance(obj, dict):  # dispatch tables such as suites.SUITES
                for key, value in obj.items():
                    obj[key] = replaced.get(id(value), value)
            elif id(obj) in replaced:
                setattr(module, name, replaced[id(obj)])
