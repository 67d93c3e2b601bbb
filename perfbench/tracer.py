"""Run one stratakit CLI invocation with its public functions traced.

    python3 perfbench/tracer.py OUT.json CLI-ARGS...

The program is not changed: before the CLI runs, every public function and
method that a stratakit module defines is replaced by a wrapper, in every
stratakit namespace that binds it (``from .linalg import intertwiner_basis``
makes a second binding).  Each wrapper counts its calls and keeps a span on
a per-thread stack.  A span's self time is its duration minus the spans it
opened; CPU self time comes from ``time.thread_time``, so under the corpus
thread pool, wall self time minus CPU self time is time spent waiting for
the interpreter lock.  Totals are written to OUT.json when the CLI returns.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import pkgutil
import sys
import threading
import types
from time import perf_counter, thread_time

# Layer of each stratakit module.  The front end is one layer, ``cli``.
LAYERS = {
    "linalg": "linalg", "algebra": "algebra", "modules": "modules",
    "category": "category", "homological": "homological",
    "recollement": "recollement", "strat": "strat", "analyze": "analyze",
    "mv": "mv", "cli": "cli", "specfile": "cli", "corpus": "cli", "report": "cli",
}

# Hot leaves left unwrapped: a corpus run calls each of them 150 thousand to
# 1.9 million times, and wrapping them multiplies the run time.
SKIP = {
    "linalg.Field.of", "linalg.Field.add", "linalg.Field.sub", "linalg.Field.neg",
    "linalg.Field.mul", "linalg.Matrix.row",
}

# Per-call sizes summed for the work counters (function key -> size of a call).
SIZES = {
    "linalg.Matrix.rref": lambda self: self.rows * self.cols,
    "linalg.intertwiner_basis": lambda field, pairs, n, m: n * m,
    "modules.hom_basis": lambda m, n: m.dim * n.dim,
}

# Deterministic work counters: metric -> (function key, "calls" or "size").
COUNTERS = {
    "linalg.rref.calls": ("linalg.Matrix.rref", "calls"),
    "linalg.rref.cells": ("linalg.Matrix.rref", "size"),
    "linalg.from_rows.calls": ("linalg.Matrix.from_rows", "calls"),
    "linalg.solve_left.calls": ("linalg.Matrix.solve_left", "calls"),
    "linalg.intertwiner_basis.unknowns": ("linalg.intertwiner_basis", "size"),
    "modules.hom_basis.calls": ("modules.hom_basis", "calls"),
    "modules.hom_basis.unknowns": ("modules.hom_basis", "size"),
    "modules.is_isomorphic.calls": ("modules.is_isomorphic", "calls"),
    "algebra.mul_vec.calls": ("algebra.Algebra.mul_vec", "calls"),
    "algebra.validate_algebra.calls": ("algebra.validate_algebra", "calls"),
    "homological.projective_resolution.calls": ("homological.projective_resolution", "calls"),
    "strat.Stratification.builds": ("strat.Stratification.__init__", "calls"),
    "strat.filtration_search.calls": ("strat.filtration_search", "calls"),
    "recollement.verify_recollement.calls": ("recollement.verify_recollement", "calls"),
}

_local = threading.local()
_lock = threading.Lock()
_records: list[dict] = []  # one dict per thread: key -> [calls, wall, cpu, size]


def _thread_records() -> dict:
    try:
        return _local.records
    except AttributeError:
        recs = _local.records = {}
        _local.stack = []
        with _lock:
            _records.append(recs)
        return recs


def _traced(fn, key: str):
    size = SIZES.get(key)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recs = _thread_records()
        rec = recs.get(key)
        if rec is None:
            rec = recs[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        if size is not None:
            rec[3] += size(*args, **kwargs)
        stack = _local.stack
        child = [0.0, 0.0]
        stack.append(child)
        w0, c0 = perf_counter(), thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            dw, dc = perf_counter() - w0, thread_time() - c0
            stack.pop()
            rec[1] += dw - child[0]
            rec[2] += dc - child[1]
            if stack:
                stack[-1][0] += dw
                stack[-1][1] += dc

    return traced


def install() -> None:
    """Wrap the public callables of every stratakit module."""
    import stratakit

    modules = [importlib.import_module(f"stratakit.{m.name}")
               for m in pkgutil.iter_modules(stratakit.__path__)]
    modules = [m for m in modules if m.__name__.split(".")[-1] in LAYERS]
    replaced: dict[int, object] = {}
    for mod in modules:
        layer = LAYERS[mod.__name__.split(".")[-1]]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                if issubclass(obj, BaseException):
                    continue
                # Constructors of plain classes are traced (Stratification builds);
                # a dataclass constructor only stores fields and is hot.
                ctor = "" if dataclasses.is_dataclass(obj) else "__init__"
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") and attr != ctor:
                        continue
                    key = f"{layer}.{name}.{attr}"
                    if key in SKIP:
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        setattr(obj, attr, type(member)(_traced(member.__func__, key)))
                    elif isinstance(member, types.FunctionType):
                        setattr(obj, attr, _traced(member, key))
            elif (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")) \
                    and f"{layer}.{name}" not in SKIP:
                replaced[id(obj)] = _traced(obj, f"{layer}.{name}")
    # Rebind every name that refers to a wrapped function, wherever it was imported.
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])


def totals() -> dict:
    """Merge the per-thread records; add the resolution cache's statistics."""
    merged: dict[str, list] = {}
    with _lock:
        for recs in _records:
            for key, rec in recs.items():
                acc = merged.setdefault(key, [0, 0.0, 0.0, 0])
                for i, v in enumerate(rec):
                    acc[i] += v
    cache = None
    resolution = getattr(sys.modules.get("stratakit.homological"), "projective_resolution", None)
    info = getattr(getattr(resolution, "__wrapped__", resolution), "cache_info", None)
    if info is not None:
        ci = info()
        cache = {"hits": ci.hits, "misses": ci.misses}
    return {
        "functions": {k: {"calls": v[0], "self_wall_s": v[1], "self_cpu_s": v[2], "size": v[3]}
                      for k, v in sorted(merged.items())},
        "projective_resolution_cache": cache,
    }


def summarize(traces: list[dict]) -> dict:
    """Per-layer metrics, name -> (value, unit), summed over the invocations' totals."""
    out: dict[str, tuple] = {}
    for layer in dict.fromkeys(LAYERS.values()):
        out[f"{layer}.calls"] = (0, "count")
        out[f"{layer}.self_cpu_s"] = (0.0, "s")
        out[f"{layer}.wait_s"] = (0.0, "s")
    for name in COUNTERS:
        out[name] = (0, "count")
    hits = lookups = 0
    for t in traces:
        for key, f in t["functions"].items():
            layer = key.split(".")[0]
            for name, value in ((f"{layer}.calls", f["calls"]),
                                (f"{layer}.self_cpu_s", f["self_cpu_s"]),
                                (f"{layer}.wait_s", f["self_wall_s"] - f["self_cpu_s"])):
                out[name] = (out[name][0] + value, out[name][1])
        for name, (key, field) in COUNTERS.items():
            out[name] = (out[name][0] + t["functions"].get(key, {}).get(field, 0), "count")
        cache = t["projective_resolution_cache"]
        if cache is not None:
            hits += cache["hits"]
            lookups += cache["hits"] + cache["misses"]
    # Share of resolution lookups served by the cache; 0 without a cache or lookups.
    out["homological.projective_resolution.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    return out


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    install()
    from stratakit import cli

    try:
        rc = cli.main(cli_args)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    finally:
        with open(out, "w") as fh:
            json.dump(totals(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
