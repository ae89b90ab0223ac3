"""Span tracing of qcenter's layers from outside the package.

``Tracer.install`` wraps the public functions and methods of each layer
module (the modules named in ``LAYERS``) and rebinds every name under which
another qcenter module imported them, so calls through any import site are
seen.  A call that makes no traced call of its own (a leaf) is folded into a
per-parent aggregate ``(parent, name, calls, seconds)``; every other call
becomes a span ``(id, parent, name, start, end)``.  Both are kept in memory
and written out as JSON lines when the run ends.

Self time of a span is its duration minus the part of it that its child
spans and leaf aggregates cover.  Wrapper overhead falls into the caller's
self time; ``run.py`` reports the whole overhead against an untraced run.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "scenario", "centers", "linalg", "star", "poly", "series", "action",
    "envelope", "lifting", "weyl", "parsing", "report",
)
# Arithmetic operators are traced like public methods; constructors only
# where building the object is work in itself.
DUNDERS = ("__add__", "__sub__", "__mul__", "__rmul__", "__pow__")
TRACED_INIT = ("action.HamiltonianAction", "star.StarProduct")
# Constant-time accessors and scalar helpers called up to a million times a
# run: wrapping them would mostly measure the wrapper.  Their time counts
# to the caller.
UNTRACED = frozenset({
    "poly.as_scalar", "poly.scalar_str", "poly.monomial_key",
    "poly.Poly.is_zero", "poly.Poly.degree", "poly.Poly.constant_term",
    "poly.Poly.zero", "poly.Poly.constant", "poly.Poly.variable",
    "poly.Poly.monomial", "series.HSeries.zero", "series.HSeries.coefficient",
    "series.HSeries.is_zero", "series.HSeries.classical_part",
})
# (function, ancestor): calls of the function made below the ancestor.
# Kernel solves per quantum-center computation count certification retries.
CALLS_UNDER = (("linalg.EchelonAccumulator.kernel", "centers.quantum_center_up_to"),)
ROOT_SPAN = 0


def _targets(layer: str, module):
    """(qualified name, owner, attribute, function, rewrap) for each traced
    callable defined in the module."""
    modname = module.__name__
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != modname:
            continue
        if isinstance(value, type):
            for meth, raw in sorted(vars(value).items()):
                name = f"{layer}.{attr}.{meth}"
                if isinstance(raw, staticmethod):
                    fn, rewrap = raw.__func__, staticmethod
                elif callable(raw) and not isinstance(raw, type):
                    fn, rewrap = raw, None
                else:
                    continue
                public = not meth.startswith("_") or meth in DUNDERS
                if meth == "__init__":
                    public = f"{layer}.{attr}" in TRACED_INIT
                if public and name not in UNTRACED:
                    yield name, value, meth, fn, rewrap
        elif callable(value) and f"{layer}.{attr}" not in UNTRACED:
            yield f"{layer}.{attr}", module, attr, value, None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.leaves: dict[tuple[int, int], list] = {}
        self.trues: list[int] = []
        self.origin = time.perf_counter()
        self._stack: list[list[int]] = [[ROOT_SPAN, -1]]
        self._ids = itertools.count(ROOT_SPAN + 1)
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.trues.append(0)
        stack, spans, leaves, trues = self._stack, self.spans, self.leaves, self.trues
        ids, clock = self._ids, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] < 0:
                parent[0] = next(ids)
            frame = [-1, parent[0]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if frame[0] < 0:
                    acc = leaves.get((frame[1], nid))
                    if acc is None:
                        leaves[(frame[1], nid)] = [1, t1 - t0]
                    else:
                        acc[0] += 1
                        acc[1] += t1 - t0
                else:
                    spans.append((frame[0], frame[1], nid, t0, t1))
            if result is True:
                trues[nid] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    @classmethod
    def install(cls) -> "Tracer":
        """Wrap every layer and rebind each qcenter import site."""
        tracer = cls()
        replaced: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qcenter.{layer}")
            for name, owner, attr, fn, rewrap in list(_targets(layer, module)):
                wrapper = tracer.wrap(fn, name)
                original = vars(owner)[attr]
                tracer._restore.append((owner, attr, original))
                setattr(owner, attr, rewrap(wrapper) if rewrap else wrapper)
                replaced[id(fn)] = (fn, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != "qcenter" and not modname.startswith("qcenter."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    tracer._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        stale = tracer.stale_references(replaced)
        if stale:
            tracer.uninstall()
            raise RuntimeError(f"untraced import sites remain: {stale}")
        return tracer

    @staticmethod
    def stale_references(replaced) -> list[str]:
        """Module attributes still bound to an unwrapped original."""
        out = []
        for modname, module in list(sys.modules.items()):
            if modname == "qcenter" or modname.startswith("qcenter."):
                for attr, value in vars(module).items():
                    hit = replaced.get(id(value))
                    if hit is not None and hit[0] is value:
                        out.append(f"{modname}.{attr}")
        return out

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def records(self) -> tuple[list[tuple], list[tuple]]:
        """Spans ``(id, parent, name, start, end)`` and leaf aggregates
        ``(parent, name, calls, seconds)`` with names resolved."""
        spans = [(i, p, self.names[n], s, e) for i, p, n, s, e in self.spans]
        leaves = [
            (p, self.names[n], calls, secs)
            for (p, n), (calls, secs) in self.leaves.items()
        ]
        return spans, leaves

    def summary(self) -> dict:
        """Per function: ``calls``, ``self_s``, ``s`` and ``true`` (calls
        that returned True); the ``CALLS_UNDER`` counts; open frames."""
        spans, leaves = self.records()
        functions = aggregate(spans, leaves)
        for nid, name in enumerate(self.names):
            row = functions.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
            row["true"] = self.trues[nid]
        return {
            "functions": functions,
            "under": calls_under(spans, leaves, CALLS_UNDER),
            "open_frames": len(self._stack) - 1,
        }

    def write_spans(self, path: str):
        spans, leaves = self.records()
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for i, p, name, s, e in spans:
                handle.write(json.dumps({
                    "id": i, "parent": p, "name": name,
                    "start": s - self.origin, "end": e - self.origin,
                }) + "\n")
            for p, name, calls, secs in leaves:
                handle.write(json.dumps({
                    "parent": p, "name": name, "calls": calls, "seconds": secs,
                }) + "\n")


# -- span arithmetic (pure functions, tested on hand-made trees) --------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, hi)
        if e > s:
            total += e - s
            cursor = e
    return total


def aggregate(spans, leaves) -> dict[str, dict]:
    """Per name: ``calls``, ``self_s`` (duration minus child coverage) and
    ``s`` (inclusive time of calls not nested in a call of the same name)."""
    by_id = {i: (p, name, s, e) for i, p, name, s, e in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    leaf_time: dict[int, float] = defaultdict(float)
    for i, p, name, s, e in spans:
        children[p].append((s, e))
    for p, name, calls, secs in leaves:
        leaf_time[p] += secs

    def nested_in_same(parent: int, name: str) -> bool:
        while parent in by_id:
            parent, pname, _, _ = by_id[parent]
            if pname == name:
                return True
        return False

    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "s": 0.0})
    for i, p, name, s, e in spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (e - s) - _covered(children[i], s, e) - leaf_time[i]
        if not nested_in_same(p, name):
            row["s"] += e - s
    for p, name, calls, secs in leaves:
        row = out[name]
        row["calls"] += calls
        row["self_s"] += secs
        if not nested_in_same(p, name):
            row["s"] += secs
    return dict(out)


def calls_under(spans, leaves, pairs) -> dict[str, int]:
    """Calls of ``name`` made anywhere below a call of ``ancestor``."""
    by_id = {i: (p, name) for i, p, name, _, _ in spans}

    def has_ancestor(parent: int, ancestor: str) -> bool:
        while parent in by_id:
            parent, pname = by_id[parent]
            if pname == ancestor:
                return True
        return False

    out = {}
    for name, ancestor in pairs:
        count = sum(1 for _, p, n, _, _ in spans if n == name and has_ancestor(p, ancestor))
        count += sum(c for p, n, c, _ in leaves if n == name and has_ancestor(p, ancestor))
        out[f"{name}<{ancestor}"] = count
    return out
