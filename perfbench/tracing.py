"""Span recording around the library's public functions, from outside it.

:func:`install` replaces every public function of the layer modules with a
wrapper that records a span, and rebinds the wrapper under every name the
package's modules use to look the original up (``from .x import y`` copies
included), so internal calls are traced too.  Spans are plain lists kept in
memory::

    [name, layer, kind, start, end, parent, op, info]

``kind`` is "call" for a library function, "eval" for a map evaluator
method (``info`` holds the point count), "integrand" for the callable that
a caller hands to the adaptive quadrature (attributed to the layer that
defined it), and "op" for the benchmark's root span around one operation.
Self time is a span's duration minus the durations of its direct children;
every call here is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
import types

import numpy as np

from workloads import LADDER_SIZES

LAYERS = ("cli", "verification", "mobius", "maps", "quadrature", "energy", "radial")
EVALUATOR_METHODS = ("position", "density", "jacobian")
SMALL_POINTS = 16

NAME, LAYER, KIND, START, END, PARENT, OP, INFO = range(8)


class Tracer:
    """In-memory span store with the stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def open(self, name: str, layer: str, kind: str) -> list:
        rec = [name, layer, kind, 0.0, 0.0,
               self.stack[-1] if self.stack else None, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        op = self.spans[parent][OP]
        for s in child_spans:
            s = list(s)
            s[PARENT] = parent if s[PARENT] is None else s[PARENT] + base
            s[OP] = op
            self.spans.append(s)


def _wrap(tracer: Tracer, fn, name: str, layer: str, kind: str = "call", on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.open(name, layer, kind)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec[INFO] = {"error": type(exc).__name__}
            raise
        finally:
            tracer.close(rec)
        if on_result is not None:
            rec[INFO] = on_result(args, kwargs, out)
        return out

    return wrapper


def _layer_of(fn) -> str:
    mod = getattr(fn, "__module__", "") or ""
    short = mod.rsplit(".", 1)[-1]
    return short if mod.startswith("alphasphere") and short in LAYERS else "bench"


def _quadrature_wrapper(tracer: Tracer, fn, name: str):
    """Quadrature entry whose integrand callable is traced as well."""

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        layer = _layer_of(f)

        def integrand(x):
            rec = tracer.open(layer + ".integrand", layer, "integrand")
            try:
                return f(x)
            finally:
                tracer.close(rec)
                rec[INFO] = {"points": int(np.size(x))}

        return fn(integrand, *args, **kwargs)

    return _wrap(tracer, wrapper, name, "quadrature")


def _solve_info(max_iters_default):
    def info(args, kwargs, res):
        cap = kwargs.get("max_iters", max_iters_default)
        return {"N": int(res.profile.N), "iterations": int(res.iterations),
                "converged": bool(res.converged),
                "capped": bool(not res.converged and cap is not None
                               and res.iterations >= cap)}
    return info


def _points_info(args, kwargs, out):
    return {"points": int(np.size(args[1])) if len(args) > 1 else 1}


def _rows_info(args, kwargs, rows):
    return {"rows": len(rows), "rows_failed": sum(not r.passed for r in rows)}


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module."""
    mods = {layer: importlib.import_module("alphasphere." + layer) for layer in LAYERS}
    package = importlib.import_module("alphasphere")
    replaced: dict[int, object] = {}

    def wrapped_function(layer: str, name: str, fn):
        if id(fn) in replaced:
            return replaced[id(fn)]
        if layer == "quadrature":
            w = _quadrature_wrapper(tracer, fn, f"quadrature.{name}")
        elif layer == "radial" and name == "minimize_radial":
            default = inspect.signature(fn).parameters.get("max_iters")
            w = _wrap(tracer, fn, "radial.minimize_radial", layer,
                      on_result=_solve_info(default.default if default else None))
        else:
            w = _wrap(tracer, fn, f"{layer}.{name}", layer)
        replaced[id(fn)] = w
        return w

    def wrap_class(layer: str, cls: type) -> None:
        evaluator = issubclass(cls, mods["maps"].MapEvaluator)
        items = list(vars(cls).items())
        public = {id(v) for k, v in items if not k.startswith("_")}
        for attr, val in items:
            if attr.startswith("_") and id(val) not in public:
                continue
            label = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, classmethod):
                setattr(cls, attr, classmethod(_wrap(tracer, val.__func__, label, layer)))
            elif isinstance(val, types.FunctionType) and not getattr(val, "__isabstractmethod__", False):
                if id(val) not in replaced:
                    if evaluator and attr in EVALUATOR_METHODS:
                        replaced[id(val)] = _wrap(tracer, val, label, layer, "eval", _points_info)
                    else:
                        replaced[id(val)] = _wrap(tracer, val, label, layer)
                setattr(cls, attr, replaced[id(val)])

    for layer in ("mobius", "quadrature", "maps", "energy", "radial"):
        mod = mods[layer]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if isinstance(obj, types.FunctionType):
                wrapped_function(layer, name, obj)
            elif isinstance(obj, type) and not issubclass(obj, BaseException):
                wrap_class(layer, obj)
    for name in ("run_criteria", "rows_to_csv"):
        wrapped_function("verification", name, getattr(mods["verification"], name))
    for name in ("main", "run"):
        wrapped_function("cli", name, getattr(mods["cli"], name))

    # rebind every module-level name that still points at an original
    for mod in (package, *mods.values()):
        for attr, val in list(vars(mod).items()):
            if id(val) in replaced and isinstance(val, types.FunctionType):
                setattr(mod, attr, replaced[id(val)])

    criteria = mods["verification"].CRITERIA
    for key, fn in list(criteria.items()):
        criteria[key] = _wrap(tracer, fn, f"verification.{key}", "verification",
                              on_result=_rows_info)


def dump(spans: list[list], path) -> None:
    """One JSON list per line after a header line naming the fields; a
    span's id is its line number counted from 0 after the header."""
    with open(path, "w") as fh:
        fh.write(json.dumps(["name", "layer", "kind", "start", "end", "parent", "op", "info"]) + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[list], ops: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics named as in BENCHMARK.json, as (value, unit)."""
    selfs = self_times(spans)
    m: dict[str, tuple[float, str]] = {}

    def pick(pred):
        return [(s, t) for s, t in zip(spans, selfs) if pred(s)]

    def total_self(rows):
        return float(sum(t for _, t in rows))

    def dur(s):
        return s[END] - s[START]

    evals = pick(lambda s: s[KIND] == "eval")
    points = sum(s[INFO]["points"] for s, _ in evals if s[INFO])
    eval_self = total_self(evals)
    small = [(s, t) for s, t in evals if s[INFO] and s[INFO]["points"] < SMALL_POINTS]
    m["maps.calls"] = (len(evals), "count")
    m["maps.points"] = (points, "count")
    m["maps.self_s"] = (total_self(pick(lambda s: s[LAYER] == "maps")), "s")
    m["maps.points_per_s"] = (points / eval_self if eval_self > 0 else 0.0, "1/s")
    m["maps.small_calls"] = (len(small), "count")
    m["maps.small_self_s"] = (total_self(small), "s")

    for layer in ("mobius", "energy"):
        m[f"{layer}.calls"] = (len(pick(lambda s: s[LAYER] == layer and s[KIND] == "call")), "count")
        m[f"{layer}.self_s"] = (total_self(pick(lambda s: s[LAYER] == layer)), "s")

    quad = pick(lambda s: s[LAYER] == "quadrature")
    integ = [s for s in spans if s[KIND] == "integrand"]
    m["quadrature.calls"] = (len(quad), "count")
    m["quadrature.self_s"] = (total_self(quad), "s")
    m["quadrature.integrand_calls"] = (len(integ), "count")
    m["quadrature.integrand_points"] = (sum(s[INFO]["points"] for s in integ if s[INFO]), "count")
    m["quadrature.integrand_s"] = (float(sum(dur(s) for s in integ)), "s")
    m["quadrature.failed"] = (sum(1 for s, _ in quad if s[INFO] and "error" in s[INFO]), "count")

    solves = pick(lambda s: s[NAME] == "radial.minimize_radial" and s[INFO]
                  and "iterations" in s[INFO])
    iters = sum(s[INFO]["iterations"] for s, _ in solves)
    kcell_iters = sum(s[INFO]["iterations"] * s[INFO]["N"] / 1000.0 for s, _ in solves)
    capped = [s for s, _ in solves if s[INFO]["capped"]]
    n_solves = len(solves)
    m["radial.solves"] = (n_solves, "count")
    m["radial.iterations"] = (iters, "count")
    m["radial.iters_per_solve"] = (iters / n_solves if n_solves else 0.0, "count")
    m["radial.s_per_iter_kcell"] = (total_self(solves) / kcell_iters if kcell_iters else 0.0, "s")
    for N in LADDER_SIZES:
        times = [dur(s) for s, _ in solves if s[INFO]["N"] == N]
        m[f"radial.N{N}_p50_s"] = (statistics.median(times) if times else 0.0, "s")
    m["radial.capped"] = (len(capped), "count")
    m["radial.wasted_iter_ratio"] = (
        sum(s[INFO]["iterations"] for s in capped) / iters if iters else 0.0, "ratio")
    m["radial.converged_ratio"] = (
        sum(s[INFO]["converged"] for s, _ in solves) / n_solves if n_solves else 0.0, "ratio")
    m["radial.residual_s"] = (float(sum(dur(s) for s in spans if s[NAME] == "radial.radial_residual")), "s")
    m["radial.energy_s"] = (float(sum(dur(s) for s in spans if s[NAME] in (
        "radial.radial_energy", "radial.radial_energy_between"))), "s")
    m["radial.resample_s"] = (float(sum(dur(s) for s in spans
                                        if s[NAME] == "radial.RadialProfile.resampled")), "s")

    crit = [s for s in spans if s[LAYER] == "verification" and s[INFO] and "rows" in s[INFO]]
    for i in range(1, 13):
        key = f"c{i:02d}"
        m[f"verification.{key}_s"] = (
            float(sum(dur(s) for s in crit if s[NAME] == f"verification.{key}")), "s")
    m["verification.rows"] = (sum(s[INFO]["rows"] for s in crit), "count")
    m["verification.rows_failed"] = (sum(s[INFO]["rows_failed"] for s in crit), "count")
    m["cli.self_s"] = (total_self(pick(lambda s: s[LAYER] == "cli")), "s")
    m["trace.ops"] = (ops, "count")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
