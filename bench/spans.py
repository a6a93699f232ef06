"""Spans for the traced benchmark run: recording inside the divcorr process,
and the self-time arithmetic the runner applies to them afterwards.

The recorder wraps, from outside the package, every public function of the
layer modules plus a few methods, at every module attribute that holds the
function, so `oracle.varphi_table` is traced as well as `euler.varphi_table`.
Spans stay in memory and are written out once, when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "divcorr"
LAYER_MODULES = ("arith", "oracle", "euler", "jets", "zeta_series", "asympt")

# span name -> (module, class, method)
METHODS = {
    "jets.Jet2.mul": ("jets", "Jet2", "__mul__"),
    "euler.PrimeTailMoments": ("euler", "PrimeTailMoments", "__init__"),
    "arith.DivisorTable.dump": ("arith", "DivisorTable", "dump"),
    "arith.DivisorTable.load": ("arith", "DivisorTable", "load"),
}

# span name -> work count taken from the call's arguments
WORK = {
    "euler.varphi_table": lambda h, k, l, Q, *args, **kwargs: Q,
    "arith.divisor_count_array": lambda x, k: x + 1,
}


class Recorder:
    """Spans as [name, start, end, parent index (-1 for a root), work]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1,
                    work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced


def _public_functions(mod):
    for name, val in vars(mod).items():
        if name.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(val) or hasattr(val, "cache_info"):
            yield name, val


def install(recorder: Recorder) -> None:
    """Replace the layer functions with traced ones wherever they are bound."""
    modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in LAYER_MODULES}
    holders = [m for n, m in list(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for short, mod in modules.items():
        for fname, fn in list(_public_functions(mod)):
            name = f"{short}.{fname}"
            traced = recorder.wrap(name, fn, WORK.get(name))
            for holder in holders:
                for attr, val in list(vars(holder).items()):
                    if val is fn:
                        setattr(holder, attr, traced)
    for name, (short, cls_name, meth) in METHODS.items():
        cls = getattr(modules[short], cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(recorder.wrap(name, raw.__func__)))
        else:
            setattr(cls, meth, recorder.wrap(name, raw))


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_totals(spans) -> dict:
    """Per span name: calls, inclusive seconds `s`, `self_s` and summed work.

    Self time is a span's duration minus the part of it its child spans
    cover.  Inclusive time counts only spans with no ancestor of the same
    name, so recursion is not counted twice.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    totals = {}
    for i, (name, start, end, parent, work) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        t["calls"] += 1
        t["work"] += work
        dur = end - start
        t["self_s"] += dur - _covered([spans[c][1:3] for c in children[i]], start, end)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t["s"] += dur
    return totals
