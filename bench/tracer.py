"""Outside-in span tracer for the sl2betti layers.

`install()` wraps functions of the layer modules from outside the program:
every public module-level function defined in a layer module, plus the
class methods in `METHODS`.  A function bound into other modules by
`from .x import y` is replaced in every `sl2betti` module that holds it, so
calls through any of those names are seen.  Methods are replaced on their
class.

Spans are aggregated in memory per name: calls, inclusive seconds (outermost
activation only, so recursion is not double counted), self seconds (span
time minus the time its direct child spans cover) and a few exact counts
taken from arguments and results.  `Tracer.metrics()` turns the aggregates
into the flat `<module>.<function>.<stat>` names the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter
from typing import Callable, Dict, List

LAYERS = ("invariants", "linalg", "presentation", "groebner", "resolution", "report", "cli")

# (module, class, method): methods wrapped on their class
METHODS = (
    ("linalg", "Echelon", "reduce"),
    ("linalg", "Echelon", "add"),
    ("groebner", "BuchbergerEngine", "run"),
)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _nullspace_counts(args, kwargs, result) -> Dict[str, int]:
    ncols = len(_arg(args, kwargs, 1, "columns"))
    return {"columns": ncols, "rank": ncols - len(result)}


def _add_counts(args, kwargs, result) -> Dict[str, int]:
    if result is None:
        return {"useful": 0}
    return {"useful": 1, "bits": max(map(abs, result.values())).bit_length()}


def _run_counts(args, kwargs, result) -> Dict[str, int]:
    return {"basis": len(result.basis), "syzygies": len(result.syzygies)}


def _resolve_counts(args, kwargs, result) -> Dict[str, int]:
    return {"ranks": sum(m.rank for m in result.modules)}


def _koszul_counts(args, kwargs, result) -> Dict[str, int]:
    return {"cap": _arg(args, kwargs, 1, "j_cap")}


def _complex_counts(args, kwargs, result) -> Dict[str, int]:
    return {"ecap": _arg(args, kwargs, 1, "e_cap")}


# span name -> exact counts taken from one call's arguments and result
COUNTERS: Dict[str, Callable[[tuple, dict, object], Dict[str, int]]] = {
    "linalg.nullspace": _nullspace_counts,
    "linalg.Echelon.add": _add_counts,
    "groebner.BuchbergerEngine.run": _run_counts,
    "resolution.resolve": _resolve_counts,
    "resolution.koszul_betti": _koszul_counts,
    "resolution.verify_complex": _complex_counts,
}

# counts combined by maximum rather than by sum
MAX_COUNTS = frozenset({"bits"})


class _Agg:
    __slots__ = ("calls", "s", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counts: Dict[str, int] = {}


class Tracer:
    """Span stack plus per-name aggregates for one process."""

    def __init__(self) -> None:
        self.aggs: Dict[str, _Agg] = {}
        # per open span: [time covered by its direct children]
        self.stack: List[List[float]] = []
        self.active: Dict[str, int] = {}     # open activations per name
        self.module_depth: Dict[str, int] = {}
        self.module_start: Dict[str, float] = {}
        self.module_s: Dict[str, float] = {}

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, module: str, fn: Callable) -> Callable:
        agg = self.aggs.setdefault(name, _Agg())
        counter = COUNTERS.get(name)
        stack = self.stack
        active = self.active
        active.setdefault(name, 0)
        self.module_depth.setdefault(module, 0)
        self.module_s.setdefault(module, 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            outer_module = self.module_depth[module] == 0
            self.module_depth[module] += 1
            t0 = perf_counter()
            if outer_module:
                self.module_start[module] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                self.module_depth[module] -= 1
                if outer_module:
                    self.module_s[module] += t1 - self.module_start[module]
            dur = t1 - t0
            agg.calls += 1
            if not active[name]:
                agg.s += dur
            agg.self_s += dur - frame[0]
            if counter is not None:
                counts = agg.counts
                for key, v in counter(args, kwargs, result).items():
                    if key in MAX_COUNTS:
                        counts[key] = max(counts.get(key, 0), v)
                    else:
                        counts[key] = counts.get(key, 0) + v
            if stack:
                # the parent's self time excludes this span and the
                # tracer's own bookkeeping for it
                stack[-1][0] += perf_counter() - t0
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the imported sl2betti modules."""
        mods = {
            name: importlib.import_module(f"sl2betti.{name}") for name in LAYERS
        }
        holders = [
            m for key, m in sys.modules.items()
            if (key == "sl2betti" or key.startswith("sl2betti.")) and m is not None
        ]
        for layer, mod in mods.items():
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", layer, fn)
                for holder in holders:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, hattr, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", layer, fn))

    # -- output -------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Flat metrics, `<span>.calls/.s/.self_s/.<count>` and `<module>.s`."""
        out: Dict[str, float] = {}
        for name, agg in sorted(self.aggs.items()):
            out[f"{name}.calls"] = agg.calls
            out[f"{name}.s"] = agg.s
            out[f"{name}.self_s"] = agg.self_s
            for key, v in agg.counts.items():
                out[f"{name}.{key}"] = v
        for module, s in sorted(self.module_s.items()):
            out[f"{module}.s"] = s
        return out
