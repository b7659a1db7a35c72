"""Timing wrappers installed around the veronese package from outside it.

Tracer.install() replaces every public function of the seven package
modules with a wrapper that records one span per call: (id, name, start,
end, parent span id, op id).  The replacement is rebound wherever the
package refers to the original, in module namespaces and in module-level
dicts such as the CLI's handler table, so calls between modules are traced
too (e.g. cli.is_on_variety and morphism.is_on_variety become one wrapper).
Spans stay in memory until the run writes them out.

A few wrappers also record counts at the same boundary (minors evaluated,
points scanned, 2x2 submatrices examined).  Counts depend only on the
inputs, so two traced runs of the same work give identical counts; times
do not, so only counts are compared exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from math import comb

PACKAGE = "veronese"
MODULES = ("multiindex", "matrix", "projective", "morphism", "certificates", "oracle", "cli")

# Left unwrapped: binom runs about eight times per rank call, so wrapping it
# would multiply the spans of a run several times over; like field
# arithmetic, its time counts in its caller's self time.
UNTRACED = frozenset({"multiindex.binom"})

# name -> (unit, better); the order is the order of the printed report
LAYER_METRICS = {
    "morphism.is_on_variety.calls": ("count", "lower"),
    "morphism.is_on_variety.self_ms": ("ms", "lower"),
    "morphism.failing_minor.calls": ("count", "lower"),
    "morphism.failing_minor.self_ms": ("ms", "lower"),
    "morphism.minors_evaluated": ("count", "lower"),
    "morphism.us_per_minor": ("us", "lower"),
    "morphism.veronese_eval.self_ms": ("ms", "lower"),
    "morphism.inverse_map.self_ms": ("ms", "lower"),
    "morphism.self_ms": ("ms", "lower"),
    "oracle.vanishing_set.calls": ("count", "lower"),
    "oracle.vanishing_set.self_ms": ("ms", "lower"),
    "oracle.points_scanned": ("count", "lower"),
    "oracle.points_per_s": ("1/s", "higher"),
    "oracle.survivor_ratio": ("ratio", "higher"),
    "oracle.budget_used": ("ratio", "lower"),
    "oracle.brute_force_image.self_ms": ("ms", "lower"),
    "oracle.self_ms": ("ms", "lower"),
    "certificates.rewrite_chain.calls": ("count", "lower"),
    "certificates.rewrite_chain.self_ms": ("ms", "lower"),
    "certificates.verify_rewrite_chain.calls": ("count", "lower"),
    "certificates.verify_rewrite_chain.self_ms": ("ms", "lower"),
    "certificates.chain_steps": ("count", "lower"),
    "certificates.zero_propagation_certificate.self_ms": ("ms", "lower"),
    "certificates.verify_zero_propagation.self_ms": ("ms", "lower"),
    "certificates.self_ms": ("ms", "lower"),
    "matrix.build_matrix.self_ms": ("ms", "lower"),
    "matrix.minors2.self_ms": ("ms", "lower"),
    "matrix.minors2.candidates": ("count", "lower"),
    "matrix.minors2.yield": ("ratio", "higher"),
    "matrix.toric_quadrics.self_ms": ("ms", "lower"),
    "matrix.toric_quadrics.count": ("count", "lower"),
    "matrix.self_ms": ("ms", "lower"),
    "multiindex.enumerate_monomials.calls": ("count", "lower"),
    "multiindex.rank.calls": ("count", "lower"),
    "multiindex.self_ms": ("ms", "lower"),
    "projective.normalize.calls": ("count", "lower"),
    "projective.normalize.self_ms": ("ms", "lower"),
    "projective.proj_eq.calls": ("count", "lower"),
    "projective.enumerate_projective_points.points": ("count", "lower"),
    "projective.self_ms": ("ms", "lower"),
    "cli.startup_ms": ("ms", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace.overhead_ops_per_s": ("1/s", "higher"),
}

# Metrics that must repeat exactly between two traced runs of the same work.
COUNT_METRICS = tuple(name for name, (unit, _) in LAYER_METRICS.items() if unit == "count")


class Tracer:
    """Span recorder; set `op` to tag the spans of the operation in flight."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._positions: dict = {}
        self._originals: dict[str, object] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap each public function of the package modules and rebind every
        reference the package holds to it."""
        replace: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in UNTRACED:
                    continue
                self._originals[name] = obj
                replace[id(obj)] = (obj, self._wrap(name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        hit = replace.get(id(value))
                        if hit is not None and hit[0] is value:
                            obj[key] = hit[1]

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            counts = self.counts
            key = name + ".items"

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[key] += 1
                    yield item

            return generator

        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op))
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    # -- counts ------------------------------------------------------------

    def original(self, name: str):
        return self._originals[name]

    def _minor_position(self, ctx) -> dict:
        """Listing position of each minor, from the unwrapped table."""
        pos = self._positions.get(ctx)
        if pos is None:
            table = sys.modules[f"{PACKAGE}.morphism"]._minor_table(ctx)
            pos = self._positions[ctx] = {b: k for k, (b, _) in enumerate(table)}
        return pos

    def _bump_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(value, self.maxima.get(key, value))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "maxima": self.maxima}


def _minors_scanned(tracer: Tracer, ctx, failing) -> int:
    pos = tracer._minor_position(ctx)
    return len(pos) if failing is None else pos[failing[0]] + 1


def _hook_failing_minor(tracer, args, result):
    tracer.counts["morphism.minors_evaluated"] += _minors_scanned(tracer, args["ctx"], result)


def _hook_is_on_variety(tracer, args, result):
    failing = None if result else tracer.original("morphism.failing_minor")(args["ctx"], args["Q"])
    tracer.counts["morphism.minors_evaluated"] += _minors_scanned(tracer, args["ctx"], failing)


def _hook_vanishing_set(tracer, args, result):
    ctx, q = args["ctx"], args["q"]
    points = (q ** (ctx.N + 1) - 1) // (q - 1)
    tracer.counts["oracle.points_scanned"] += points
    tracer.counts["oracle.survivors"] += len(result)
    estimate = points * max(1, len(args["binomials"]))
    tracer._bump_max("oracle.budget_used", estimate / args["budget"])


def _hook_minors2(tracer, args, result):
    rows, cols = args["matrix"].shape
    tracer.counts["matrix.minors2.candidates"] += comb(rows, 2) * comb(cols, 2)
    tracer.counts["matrix.minors2.distinct"] += len(result)


def _hook_toric_quadrics(tracer, args, result):
    tracer.counts["matrix.toric_quadrics.count"] += len(result)


def _hook_rewrite_chain(tracer, args, result):
    tracer.counts["certificates.chain_steps"] += len(result.steps)


_HOOKS = {
    "morphism.failing_minor": _hook_failing_minor,
    "morphism.is_on_variety": _hook_is_on_variety,
    "oracle.vanishing_set": _hook_vanishing_set,
    "matrix.minors2": _hook_minors2,
    "matrix.toric_quadrics": _hook_toric_quadrics,
    "certificates.rewrite_chain": _hook_rewrite_chain,
}


def merge(dumps: list[dict]) -> dict:
    """Combine the dumps of several processes, renumbering span ids."""
    spans, counts, maxima = [], Counter(), {}
    offset = 0
    for doc in dumps:
        top = -1
        for sid, name, start, end, parent, op in doc["spans"]:
            spans.append((sid + offset, name, start, end,
                          None if parent is None else parent + offset, op))
            top = max(top, sid)
        offset += top + 1
        counts.update(doc["counts"])
        for key, value in doc["maxima"].items():
            maxima[key] = max(value, maxima.get(key, value))
    return {"spans": spans, "counts": dict(counts), "maxima": maxima}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from merged spans and counts.

    Self time of a span is its duration minus the durations of its direct
    children; children run nested and one at a time within their thread, so
    the sum is the part of the interval they cover.
    """
    child_time: dict = defaultdict(float)
    for sid, name, start, end, parent, op in trace["spans"]:
        if parent is not None:
            child_time[parent] += end - start
    calls: Counter = Counter()
    total: dict = defaultdict(float)
    own: dict = defaultdict(float)
    module_own: dict = defaultdict(float)
    for sid, name, start, end, parent, op in trace["spans"]:
        calls[name] += 1
        total[name] += end - start
        self_time = end - start - child_time.get(sid, 0.0)
        own[name] += self_time
        module_own[name.split(".", 1)[0]] += self_time
    counts, maxima = trace["counts"], trace["maxima"]

    def ms(seconds: float) -> float:
        return seconds * 1e3

    minors = counts.get("morphism.minors_evaluated", 0)
    scan_self = own["morphism.is_on_variety"] + own["morphism.failing_minor"]
    points = counts.get("oracle.points_scanned", 0)
    candidates = counts.get("matrix.minors2.candidates", 0)
    out = {
        "morphism.is_on_variety.calls": calls["morphism.is_on_variety"],
        "morphism.is_on_variety.self_ms": ms(own["morphism.is_on_variety"]),
        "morphism.failing_minor.calls": calls["morphism.failing_minor"],
        "morphism.failing_minor.self_ms": ms(own["morphism.failing_minor"]),
        "morphism.minors_evaluated": minors,
        "morphism.us_per_minor": scan_self * 1e6 / minors if minors else 0.0,
        "morphism.veronese_eval.self_ms": ms(own["morphism.veronese_eval"]),
        "morphism.inverse_map.self_ms": ms(own["morphism.inverse_map"]),
        "oracle.vanishing_set.calls": calls["oracle.vanishing_set"],
        "oracle.vanishing_set.self_ms": ms(own["oracle.vanishing_set"]),
        "oracle.points_scanned": points,
        "oracle.points_per_s": points / total["oracle.vanishing_set"] if points else 0.0,
        "oracle.survivor_ratio": counts.get("oracle.survivors", 0) / points if points else 0.0,
        "oracle.budget_used": maxima.get("oracle.budget_used", 0.0),
        "oracle.brute_force_image.self_ms": ms(own["oracle.brute_force_image"]),
        "certificates.rewrite_chain.calls": calls["certificates.rewrite_chain"],
        "certificates.rewrite_chain.self_ms": ms(own["certificates.rewrite_chain"]),
        "certificates.verify_rewrite_chain.calls": calls["certificates.verify_rewrite_chain"],
        "certificates.verify_rewrite_chain.self_ms": ms(own["certificates.verify_rewrite_chain"]),
        "certificates.chain_steps": counts.get("certificates.chain_steps", 0),
        "certificates.zero_propagation_certificate.self_ms":
            ms(own["certificates.zero_propagation_certificate"]),
        "certificates.verify_zero_propagation.self_ms":
            ms(own["certificates.verify_zero_propagation"]),
        "matrix.build_matrix.self_ms": ms(own["matrix.build_matrix"]),
        "matrix.minors2.self_ms": ms(own["matrix.minors2"]),
        "matrix.minors2.candidates": candidates,
        "matrix.minors2.yield":
            counts.get("matrix.minors2.distinct", 0) / candidates if candidates else 0.0,
        "matrix.toric_quadrics.self_ms": ms(own["matrix.toric_quadrics"]),
        "matrix.toric_quadrics.count": counts.get("matrix.toric_quadrics.count", 0),
        "multiindex.enumerate_monomials.calls": calls["multiindex.enumerate_monomials"],
        "multiindex.rank.calls": calls["multiindex.rank"],
        "projective.normalize.calls": calls["projective.normalize"],
        "projective.normalize.self_ms": ms(own["projective.normalize"]),
        "projective.proj_eq.calls": calls["projective.proj_eq"],
        "projective.enumerate_projective_points.points":
            counts.get("projective.enumerate_projective_points.items", 0),
        "cli.main.self_ms": ms(own["cli.main"]),
    }
    for module in MODULES:
        out[f"{module}.self_ms"] = ms(module_own[module])
    return out
