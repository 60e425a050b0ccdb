"""Outside-in tracer and cache reader for schuralg.

The tracer wraps the public functions of every schuralg module (the
names in each module's __all__ that the module defines) plus three
methods, without editing the library.  A wrapper replaces the original
object in every schuralg.* namespace that holds it: codet, udot,
enveloping and cli bind names with `from .schur import ...`, enveloping
and udot import inside function bodies, and verify calls through module
attributes, so replacing a name only in its defining module would miss
calls.

Spans (name, start, end, parent, run id) are kept in memory in flat
arrays and written out when the run ends.  A span's self time is its
duration minus the time covered by its child spans; a layer's self time
is the sum over the spans of its module.  Helpers outside __all__ are not
wrapped, so their time counts toward the span of the public function
that called them.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
from array import array
from collections import Counter, defaultdict
from types import FunctionType, ModuleType

# (module, class, method, span name)
METHODS = (
    ("exact_linalg", "CoordinateSolver", "__init__", "exact_linalg.CoordinateSolver"),
    ("exact_linalg", "CoordinateSolver", "coords", "exact_linalg.coords"),
    ("schur", "TensorEndo", "compose", "schur.TensorEndo.compose"),
)


def _entries(endo) -> int:
    return len(endo.entries)


# span name -> [(counter, size of the returned value)]
SIZE_COUNTERS = {
    "schur.orbit_endo": [("schur.endo_entries", _entries)],
    "schur.endo_of": [("schur.endo_entries", _entries)],
    "schur.TensorEndo.compose": [("schur.endo_entries", _entries)],
    "enveloping.tensor_rep": [("schur.endo_entries", _entries), ("enveloping.tensor_rep.entries", _entries)],
    "weights.ssyt": [("weights.ssyt.tableaux", len)],
    "weights.margin_matrices": [("weights.margin_matrices.matrices", len)],
}


# counters named after what they count rather than after the span
ALIASES = {
    "exact_linalg.solver_builds": "exact_linalg.CoordinateSolver.calls",
    "cli.requests": "cli.main.calls",
}


def package_modules(package: ModuleType) -> list[ModuleType]:
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


def find_caches(package: ModuleType) -> dict[str, object]:
    """Every callable with cache_info in the package's modules, named
    cache.<module>.<attribute> after the module that defines it."""
    found: dict[str, object] = {}
    for mod in package_modules(package):
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if callable(obj) and hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                found[f"cache.{short}.{name}"] = obj
    return found


def read_caches(caches: dict[str, object]) -> dict[str, float]:
    out: dict[str, float] = {}
    hits = misses = entries = 0
    for name, fn in caches.items():
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
        entries += info.currsize
        out[f"{name}.currsize"] = info.currsize
        calls = info.hits + info.misses
        out[f"{name}.hit_ratio"] = info.hits / calls if calls else 0.0
    out["cache.entries"] = entries
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


class Tracer:
    def __init__(self, package: ModuleType):
        self.package = package
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.sizes: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span: str):
        name_id = len(self.names)
        self.names.append(span)
        counters = SIZE_COUNTERS.get(span, ())
        span_name, start, end, parent, run = self.span_name, self.start, self.end, self.parent, self.run
        stack, sizes, clock = self._stack, self.sizes, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            for counter, size in counters:
                sizes[counter] += size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = package_modules(self.package)
        wrappers: dict[int, tuple] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                own = getattr(obj, "__module__", None) == mod.__name__
                if own and (isinstance(obj, FunctionType) or hasattr(obj, "cache_info")):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{name}"))
        for mod in modules + [self.package]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)][1])
        for short, cls_name, method, span in METHODS:
            cls = getattr(importlib.import_module(f"{self.package.__name__}.{short}"), cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(original, span))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Calls and self time per span name and self time per layer."""
        count = len(self.start)
        child_ns = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(count):
            span = self.names[self.span_name[i]]
            calls[span] += 1
            self_ns[span] += self.end[i] - self.start[i] - child_ns[i]
        out: dict[str, float] = {}
        layer_ns: defaultdict[str, int] = defaultdict(int)
        for mod in package_modules(self.package):
            layer_ns[mod.__name__.rsplit(".", 1)[-1]] = 0
        for span in self.names:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_ns[span] / 1e9
            layer_ns[span.split(".", 1)[0]] += self_ns[span]
        for layer, ns in layer_ns.items():
            out[f"{layer}.self_s"] = ns / 1e9
        for counter in {c for hooks in SIZE_COUNTERS.values() for c, _ in hooks}:
            out[counter] = self.sizes[counter]
        for alias, name in ALIASES.items():
            out[alias] = out.get(name, 0)
        out["trace.spans"] = count
        return out

    def dump(self, path) -> None:
        """Write the spans as columns: name index, start and end in ns,
        parent span index (-1 for a root) and run id."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "start_ns": self.start.tolist(),
                    "end_ns": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "run": self.run.tolist(),
                },
                fh,
            )
