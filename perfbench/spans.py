"""Span recording around the public functions of each ``wgom`` module.

The library is not edited: ``install`` replaces each traced function, in every
``wgom`` module namespace that binds it, with a wrapper that records a span
(name, start, end, parent span, op id, attributes) while the tracer is enabled.
Spans stay in memory; ``LayerTotals`` turns them into per-module counts,
busy times and self times (a span minus the spans directly under it).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc

import numpy as np

# (module, public function, span name): the entry points traced per layer.
TARGETS = [
    ("types", "response_array", "types.validate"),
    ("types", "membership_array", "types.validate"),
    ("types", "validate_model_spec", "types.validate"),
    ("sampling", "sample_response", "sampling"),
    ("linalg", "top_k_svd", "linalg.svd"),
    ("linalg", "solve_small_inverse", "linalg.inverse"),
    ("vertex_hunting", "successive_projection", "vertex_hunting"),
    ("estimation", "scgoma", "estimation"),
    ("estimation", "rmsp", "estimation"),
    ("estimation", "ideal_scgoma", "estimation"),
    ("estimation", "ideal_rmsp", "estimation"),
    ("modularity", "select_k", "modularity.select_k"),
    ("metrics", "hamming_error", "metrics"),
    ("metrics", "relative_error", "metrics"),
    ("metrics", "accuracy_rate", "metrics"),
    ("metrics", "profile_memberships", "metrics"),
    ("metrics", "data_sparsity", "metrics"),
    ("experiments", "run_experiment", "experiments"),
    ("matrix_io", "read_matrix", "matrix_io.read"),
    ("matrix_io", "write_dense_csv", "matrix_io.write"),
]

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """In-memory span recorder for one thread of control."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.enabled = False
        self.missing = []

    def begin(self, name, attrs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, attrs])
        self.stack.append(index)
        return index

    def end(self, index):
        self.spans[index][END] = time.perf_counter()
        self.stack.pop()


def _shape(value):
    return np.shape(getattr(value, "values", value))


def _svd_attrs(bound):
    # The same rule top_k_svd applies to method="auto", read at call time so a
    # retuned threshold is honoured.
    n, j = _shape(bound.arguments["matrix"])
    method = bound.arguments.get("method", "auto")
    if method == "auto":
        dense_max = getattr(sys.modules["wgom.linalg"], "DENSE_MAX_SIDE", 512)
        method = "dense" if min(n, j) <= dense_max else "randomized"
    return {"path": method, "cells": n * j}


def _sampling_attrs(bound):
    spec = bound.arguments["spec"]
    return {"cells": spec.n_subjects * spec.n_items}


def _projection_attrs(bound):
    n, d = _shape(bound.arguments["rows"])
    return {"cells": n * d * int(bound.arguments["k"])}


def _select_k_attrs(bound):
    estimator = bound.arguments.get("estimator", "scgoma")
    k_max = bound.arguments.get("k_max", 15)
    attrs = {"estimator": estimator if isinstance(estimator, str) else "callable", "k_max": k_max}
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()
        attrs["mem_base"] = tracemalloc.get_traced_memory()[0]
    return attrs


def _select_k_done(attrs, result):
    attrs["curve_len"] = len(result[1])
    if "mem_base" in attrs:
        attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1] - attrs["mem_base"]


def _inverse_done(attrs, result):
    attrs["pinv"] = bool(result[1])


def _experiment_attrs(bound):
    values = bound.arguments.get("values", ())
    return {"replicates": bound.arguments.get("replicates", 20) * len(values)}


def _experiment_done(attrs, rows):
    # GridRow.mean_runtime_seconds averages over the replicates of one point.
    per_point = attrs["replicates"] / len(rows)
    attrs["runtime_column_s"] = sum(
        row.mean_runtime_seconds * per_point for row in rows if np.isfinite(row.mean_runtime_seconds)
    )


def _read_attrs(bound):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


def _write_attrs(bound):
    return {"path": bound.arguments["path"]}


def _write_done(attrs, _):
    attrs["bytes"] = os.path.getsize(attrs.pop("path"))


HOOKS = {
    "sample_response": (_sampling_attrs, None),
    "top_k_svd": (_svd_attrs, None),
    "solve_small_inverse": (None, _inverse_done),
    "successive_projection": (_projection_attrs, None),
    "select_k": (_select_k_attrs, _select_k_done),
    "run_experiment": (_experiment_attrs, _experiment_done),
    "read_matrix": (_read_attrs, None),
    "write_dense_csv": (_write_attrs, _write_done),
}


def _wrap(tracer, name, fn, before=None, after=None):
    signature = inspect.signature(fn) if before else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        attrs = {}
        if before:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            attrs = before(bound)
        index = tracer.begin(name, attrs)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            attrs["failed"] = True
            raise
        finally:
            tracer.end(index)
        if after:
            after(attrs, result)
        return result

    return wrapper


def _rebind(original, replacement):
    """Point every ``wgom`` module attribute bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "wgom" or module_name.startswith("wgom.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap the traced entry points of every ``wgom`` module.

    An entry point that no longer exists is skipped and listed in
    ``tracer.missing``, so the traced run keeps working when the library's
    internals move; the metrics of a skipped entry point read zero.
    """
    importlib.import_module("wgom.cli")
    for module_name, function, span in TARGETS:
        original = getattr(importlib.import_module(f"wgom.{module_name}"), function, None)
        if original is None:
            tracer.missing.append(f"wgom.{module_name}.{function}")
            continue
        before, after = HOOKS.get(function, (None, None))
        _rebind(original, _wrap(tracer, span, original, before, after))

    modularity = importlib.import_module("wgom.modularity")
    decomposition = getattr(modularity, "ModularityDecomposition", None)
    build = decomposition and decomposition.__dict__.get("from_responses")
    score = decomposition and decomposition.__dict__.get("score")
    if isinstance(build, classmethod):
        decomposition.from_responses = classmethod(_wrap(tracer, "modularity.build", build.__func__))
    else:
        tracer.missing.append("wgom.modularity.ModularityDecomposition.from_responses")
    if callable(score):
        decomposition.score = _wrap(tracer, "modularity.score", score)
    else:
        tracer.missing.append("wgom.modularity.ModularityDecomposition.score")


def _children(spans):
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    return children


def _ancestor(spans, index, name):
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return parent
        parent = spans[parent][PARENT]
    return -1


def _duration(span):
    return span[END] - span[START]


class LayerTotals:
    """Sums over one or more span lists (one list per traced process)."""

    def __init__(self):
        self.count = {}
        self.busy = {}
        self.self_time = {}
        self.sampling_cells = 0
        self.svd = {"dense": 0, "randomized": 0, "cells": 0, "in_scgoma_select_k": 0}
        self.scgoma_select_k = 0
        self.pinv = 0
        self.projection_cells = 0
        self.estimation_failures = 0
        self.modularity_self = 0.0
        self.k_tried = 0
        self.k_useful = 0
        self.peak_bytes = 0
        self.replicates = 0
        self.runtime_column_s = 0.0
        self.io_bytes = {"matrix_io.read": 0, "matrix_io.write": 0}

    def add(self, spans, ops):
        """Fold in the spans of one process.

        Spans whose op is in ``ops`` are counted and timed; the tracemalloc
        peak is taken from every span that has one.
        """
        children = _children(spans)
        for index, span in enumerate(spans):
            name, attrs = span[NAME], span[ATTRS]
            if "peak_bytes" in attrs:
                self.peak_bytes = max(self.peak_bytes, attrs["peak_bytes"])
            if span[OP] not in ops:
                continue
            duration = _duration(span)
            own = duration - sum(_duration(spans[c]) for c in children[index])
            self.count[name] = self.count.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            # Busy time counts outermost spans only, so a layer that calls
            # itself through another entry point is not counted twice.
            if _ancestor(spans, index, name) < 0:
                self.busy[name] = self.busy.get(name, 0.0) + duration
            if name == "linalg.svd":
                self.svd[attrs["path"]] += 1
                self.svd["cells"] += attrs["cells"]
                owner = _ancestor(spans, index, "modularity.select_k")
                if owner >= 0 and spans[owner][ATTRS]["estimator"] == "scgoma":
                    self.svd["in_scgoma_select_k"] += 1
            elif name == "sampling":
                self.sampling_cells += attrs["cells"]
            elif name == "linalg.inverse":
                self.pinv += attrs.get("pinv", False)
            elif name == "vertex_hunting":
                self.projection_cells += attrs["cells"]
            elif name == "estimation":
                self.estimation_failures += attrs.get("failed", False)
            elif name == "modularity.select_k":
                self.scgoma_select_k += attrs["estimator"] == "scgoma"
                self.modularity_self += duration - sum(
                    _duration(spans[c]) for c in children[index] if spans[c][NAME] == "estimation"
                )
                self.k_tried += attrs["k_max"]
                self.k_useful += attrs.get("curve_len", 0)
            elif name == "experiments":
                self.replicates += attrs["replicates"]
                self.runtime_column_s += attrs.get("runtime_column_s", 0.0)
            elif name in self.io_bytes:
                self.io_bytes[name] += attrs.get("bytes", 0)

    def metrics(self, n_ops):
        """Per-layer metrics: counts are totals over the window, times are seconds per op."""

        def count(name):
            return self.count.get(name, 0)

        def busy(name):
            return self.busy.get(name, 0.0)

        def per_op(seconds):
            return seconds / n_ops

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "types.validate.calls": (count("types.validate"), "count"),
            "types.validate.busy_s": (per_op(busy("types.validate")), "s/op"),
            "sampling.calls": (count("sampling"), "count"),
            "sampling.busy_s": (per_op(busy("sampling")), "s/op"),
            "sampling.cells_per_s": (ratio(self.sampling_cells, busy("sampling")), "cells/s"),
            "linalg.svd.calls": (count("linalg.svd"), "count"),
            "linalg.svd.dense_calls": (self.svd["dense"], "count"),
            "linalg.svd.randomized_calls": (self.svd["randomized"], "count"),
            "linalg.svd.busy_s": (per_op(busy("linalg.svd")), "s/op"),
            "linalg.svd.cells_in": (self.svd["cells"], "count"),
            "linalg.svd.calls_per_select_k": (
                ratio(self.svd["in_scgoma_select_k"], self.scgoma_select_k),
                "count",
            ),
            "linalg.inverse.calls": (count("linalg.inverse"), "count"),
            "linalg.inverse.busy_s": (per_op(busy("linalg.inverse")), "s/op"),
            "linalg.inverse.pinv_fallbacks": (self.pinv, "count"),
            "vertex_hunting.calls": (count("vertex_hunting"), "count"),
            "vertex_hunting.busy_s": (per_op(busy("vertex_hunting")), "s/op"),
            "vertex_hunting.cells_scanned": (self.projection_cells, "count"),
            "estimation.calls": (count("estimation"), "count"),
            "estimation.busy_s": (per_op(busy("estimation")), "s/op"),
            "estimation.self_s": (per_op(self.self_time.get("estimation", 0.0)), "s/op"),
            "estimation.failures": (self.estimation_failures, "count"),
            "modularity.select_k.calls": (count("modularity.select_k"), "count"),
            "modularity.select_k.busy_s": (per_op(busy("modularity.select_k")), "s/op"),
            "modularity.self_s": (per_op(self.modularity_self), "s/op"),
            "modularity.build.busy_s": (per_op(busy("modularity.build")), "s/op"),
            "modularity.score.calls": (count("modularity.score"), "count"),
            "modularity.score.busy_s": (per_op(busy("modularity.score")), "s/op"),
            "modularity.peak_mb": (self.peak_bytes / 1e6, "MB"),
            "modularity.k_useful_ratio": (ratio(self.k_useful, self.k_tried), "ratio"),
            "metrics.calls": (count("metrics"), "count"),
            "metrics.busy_s": (per_op(busy("metrics")), "s/op"),
            "experiments.replicates": (self.replicates, "count"),
            "experiments.busy_s": (per_op(busy("experiments")), "s/op"),
            "experiments.self_s": (per_op(self.self_time.get("experiments", 0.0)), "s/op"),
            "experiments.runtime_column_coverage": (
                ratio(self.runtime_column_s, busy("experiments")),
                "ratio",
            ),
        }
        for kind in ("read", "write"):
            name = f"matrix_io.{kind}"
            out[f"{name}.calls"] = (count(name), "count")
            out[f"{name}.busy_s"] = (per_op(busy(name)), "s/op")
            out[f"{name}.bytes"] = (self.io_bytes[name], "bytes")
            out[f"{name}.mb_per_s"] = (ratio(self.io_bytes[name] / 1e6, busy(name)), "MB/s")
        return out
