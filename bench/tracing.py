"""Spans and call counts at the public boundaries of the mkinterp modules.

Nothing here changes the package. :class:`Tracer` rebinds the public
functions listed in ``SPAN_TARGETS`` and ``LEAF_TARGETS`` to timing wrappers
in every loaded ``mkinterp`` module, for the duration of a ``with`` block,
and puts the originals back afterwards. A span records name, start, end,
parent and run id, plus a few facts read from the call (the order ``m`` of
a power-function call, the iterations of a solve). ``eval_features`` runs
tens of thousands of times per workload, so it gets no span of its own:
its calls, points and seconds are summed instead.

:func:`count_calls` is the separate exact count pass: it runs the same work
under cProfile, with no wrappers installed.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute) pairs; "Class.method" names a classmethod.
SPAN_TARGETS = [
    ("mkinterp.tensors", "FeatureGram.from_model"),
    ("mkinterp.solver", "solve_multilinear"),
    ("mkinterp.interpolant", "fit"),
    ("mkinterp.interpolant", "from_json"),
    ("mkinterp.interpolant", "to_json"),
    ("mkinterp.interpolant", "evaluate_many"),
    ("mkinterp.power", "power_function"),
    ("mkinterp.power", "power_function_p2_closed"),
    ("mkinterp.power", "power_report"),
    ("mkinterp.power", "convergence_study"),
]
LEAF_TARGETS = [("mkinterp.features", "eval_features")]

# Function names whose cProfile call counts become layer metrics.
COUNTED = {
    "features.calls": ("mkinterp/features.py", "eval_features"),
    "tensors.rank_svds": ("numpy/linalg/", "svd"),
}


class Tracer:
    """Collects spans from the wrapped public calls made inside ``installed``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index, attrs]
        self.features = {"calls": 0, "points": 0, "seconds": 0.0}
        self.missing = []
        self._stack = []

    @contextmanager
    def installed(self):
        restore = []
        try:
            for target in SPAN_TARGETS:
                self._patch(target, self._span_wrapper, restore)
            for target in LEAF_TARGETS:
                self._patch(target, self._leaf_wrapper, restore)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _patch(self, target, make_wrapper, restore):
        module_name, attr = target
        module = sys.modules.get(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not hasattr(owner, method):
            self.missing.append(f"{module_name}.{attr}")
            return
        if owner_name:
            original = owner.__dict__[method]
            wrapper = classmethod(make_wrapper(attr, original.__func__))
            setattr(owner, method, wrapper)
            restore.append((owner, method, original))
            return
        original = getattr(owner, method)
        wrapper = make_wrapper(attr, original)
        # the function is also bound, by name, in every module importing it
        for name, mod in list(sys.modules.items()):
            if name == "mkinterp" or name.startswith("mkinterp."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        restore.append((mod, key, original))

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            _annotate(span[4], name, args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        totals = self.features

        def wrapper(model, x, *args, **kwargs):
            start = perf_counter()
            try:
                return fn(model, x, *args, **kwargs)
            finally:
                totals["seconds"] += perf_counter() - start
                totals["calls"] += 1
                totals["points"] += np.shape(x)[0] if np.ndim(x) == 2 else 1

        return wrapper

    def span_records(self):
        """Spans as dicts, for the results file."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "run": self.run_id, **attrs}
            for name, start, end, parent, attrs in self.spans
        ]

    def totals_by_name(self):
        """Per span name: count, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"count": 0, "seconds": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["seconds"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out


def _annotate(attrs, name, args, kwargs, result):
    if name == "solve_multilinear":
        attrs["iterations"] = int(getattr(result, "iterations", 0))
        attrs["converged"] = bool(getattr(result, "converged", False))
    elif name == "power_function":
        attrs["m"] = int(args[2] if len(args) > 2 else kwargs.get("m", 0))


def _ancestors(spans, index):
    parent = spans[index][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def _p50(values):
    return statistics.median(values) if values else 0.0


def _p95(values):
    if len(values) < 2:
        return _p50(values)
    return statistics.quantiles(values, n=20)[18]


def layer_metrics(tracer: Tracer, order: int, scale: float) -> dict:
    """Per-layer numbers of one traced pass (0 where a layer was not called).

    Times are multiplied by ``scale``, the speed-probe factor of the pass.
    ``power.*_point_s`` describe the points of ``power_report`` only, not
    the power-function calls made inside a convergence study.
    """
    spans = tracer.spans
    totals = tracer.totals_by_name()

    def total(name):
        return scale * totals.get(name, {}).get("seconds", 0.0)

    solves = [s[4] for s in spans if s[0] == "solve_multilinear"]
    iterations = sum(a["iterations"] for a in solves)
    converged = sum(a["converged"] for a in solves)
    pm, p2 = [], []
    for i, (name, start, end, _, attrs) in enumerate(spans):
        if "power_report" not in _ancestors(spans, i):
            continue
        if name == "power_function" and attrs.get("m") == order:
            pm.append(scale * (end - start))
        elif name == "power_function_p2_closed":
            p2.append(scale * (end - start))
    feats = tracer.features
    return {
        "features.points_per_s": (feats["points"] / (scale * feats["seconds"])
                                  if feats["seconds"] > 0 else 0.0),
        "tensors.gram_s": total("FeatureGram.from_model"),
        "solver.solve_s": total("solve_multilinear"),
        "solver.iterations": iterations,
        "solver.iter_s": total("solve_multilinear") / iterations if iterations else 0.0,
        "solver.converged_ratio": converged / len(solves) if solves else 1.0,
        "interpolant.evaluate_many_s": total("evaluate_many"),
        "interpolant.from_json_s": total("from_json"),
        "interpolant.to_json_s": total("to_json"),
        "power.pm_point_s.p50": _p50(pm),
        "power.pm_point_s.p95": _p95(pm),
        "power.p2_point_s.p50": _p50(p2),
        "power.p2_point_s.p95": _p95(p2),
        "power.study_s": total("convergence_study"),
    }


def count_calls(work) -> dict:
    """Run ``work()`` under cProfile and return the exact call counts of COUNTED."""
    profiler = cProfile.Profile()
    profiler.runcall(work)
    stats = pstats.Stats(profiler).stats
    counts = {metric: 0 for metric in COUNTED}
    for (filename, _, funcname), (_, calls, _, _, _) in stats.items():
        path = filename.replace("\\", "/")
        for metric, (path_part, wanted) in COUNTED.items():
            if funcname == wanted and path_part in path:
                counts[metric] += calls
    return counts
