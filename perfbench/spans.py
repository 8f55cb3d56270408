"""In-memory span tracer installed around tuneseer's public functions.

The tracer patches every module that bound a traced function (the defining
module, each ``from ... import`` site and the package namespace), records one
span per call -- (id, parent id, name, start, end, self time, info) -- and
restores the originals on exit.  Nothing inside ``src/`` is changed.

A span's self time is its duration minus the durations of its direct child
spans.  ``info`` is the one number a layer's work is counted in (points
evaluated, generations, rows, bytes, ...), or ``None``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time


def _points(args, kwargs, result):
    return len(args[1])


def _generations(args, kwargs, result):
    return len(result.generations)


def _fit_info(args, kwargs, result):
    return (len(args[0]), result.inertia)


def _lloyd_iterations(args, kwargs, result):
    # the history holds one inertia per assignment step plus the final one
    return len(result[3]) - 1


def _rows(args, kwargs, result):
    return len(result)


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


# (span name, module, attribute path, info function).  A dotted attribute
# path names a method; the class attribute is patched once for every caller.
TARGETS = (
    ("bench.evaluate_batch", "tuneseer.bench", "ObjectiveInstance.evaluate_batch", _points),
    ("bench.make_instance", "tuneseer.bench", "make_instance", None),
    ("sampling.latin_hypercube", "tuneseer.sampling", "latin_hypercube", None),
    ("features.extract_features", "tuneseer.features", "extract_features", None),
    ("de.evolve", "tuneseer.de", "evolve", _generations),
    ("shade.sample_memory_params", "tuneseer.shade", "sample_memory_params", None),
    ("shade.memory_update", "tuneseer.shade", "ShadeMemory.update", None),
    ("metric.compute_alpha", "tuneseer.metric", "compute_alpha", None),
    ("stats.wilcoxon", "tuneseer.stats", "wilcoxon", None),
    ("cluster.fit", "tuneseer.cluster", "fit", _fit_info),
    ("cluster.lloyd", "tuneseer.cluster", "lloyd", _lloyd_iterations),
    ("cluster.kmeanspp_seed", "tuneseer.cluster", "kmeanspp_seed", None),
    ("cluster.classify", "tuneseer.cluster", "ClusterModel.classify", None),
    ("cluster.classify", "tuneseer.cluster", "ClusterModel.classify_all", None),
    ("cluster.model_json", "tuneseer.cluster", "ClusterModel.to_json", None),
    ("cluster.model_json", "tuneseer.cluster", "ClusterModel.from_json", None),
    ("predictor.fit_model", "tuneseer.predictor", "fit_model", None),
    ("predictor.features_array", "tuneseer.predictor", "TrainingStore.features_array", _rows),
    ("predictor.recommendation_table", "tuneseer.predictor", "recommendation_table", None),
    ("predictor.run_predictive", "tuneseer.predictor", "run_predictive", None),
    ("predictor.store_load", "tuneseer.predictor", "TrainingStore.load", None),
    ("predictor.store_save", "tuneseer.predictor", "TrainingStore.save", _saved_bytes),
)


class Tracer:
    """Collects spans; ``call`` runs one function inside a span."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child time] per open span
        self._next_id = 0

    def call(self, name, fn, args, kwargs, info=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += t1 - t0
        value = info(args, kwargs, result) if info is not None else None
        self.spans.append((span_id, parent, name, t0, t1, t1 - t0 - frame[1], value))
        return result

    def write(self, path) -> None:
        """Write the spans out as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "parent", "name", "start", "end", "self", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))))
                fh.write("\n")


def _wrap(tracer, name, fn, info):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, info)

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every binding of every target for the duration of the block."""
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "tuneseer" or n.startswith("tuneseer."))
    ]
    undo = []
    try:
        for name, module_name, attr, info in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(_wrap(tracer, name, raw.__func__, info))
                else:
                    patched = _wrap(tracer, name, raw, info)
                undo.append((cls, meth, raw))
                setattr(cls, meth, patched)
                continue
            original = getattr(owner, attr)
            patched = _wrap(tracer, name, original, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, value))
                        setattr(module, key, patched)
        yield tracer
    finally:
        for target, key, value in reversed(undo):
            setattr(target, key, value)


def _busy(spans, name):
    return sum((s[4] - s[3] for s in spans if s[2] == name), 0.0)


def _self(spans, name):
    return sum((s[5] for s in spans if s[2] == name), 0.0)


def _count(spans, name):
    return sum(1 for s in spans if s[2] == name)


def _info_sum(spans, name):
    return sum(s[6] for s in spans if s[2] == name)


UNITS = {
    "bench.evaluate_batch.calls": "count",
    "bench.evaluate_batch.points": "count",
    "bench.evaluate_batch.busy_s": "s",
    "bench.make_instance.busy_s": "s",
    "sampling.latin_hypercube.busy_s": "s",
    "features.extract_features.calls": "count",
    "features.extract_features.self_s": "s",
    "de.evolve.calls": "count",
    "de.evolve.generations": "count",
    "de.evolve.self_s": "s",
    "de.evolve.self_us_per_gen": "us",
    "shade.sample_memory_params.busy_s": "s",
    "shade.memory_update.busy_s": "s",
    "metric.compute_alpha.calls": "count",
    "metric.compute_alpha.busy_s": "s",
    "stats.wilcoxon.calls": "count",
    "stats.wilcoxon.busy_s": "s",
    "cluster.fit.calls": "count",
    "cluster.fit.points": "count",
    "cluster.fit.busy_s": "s",
    "cluster.fit.p50_ms": "ms",
    "cluster.fit.max_ms": "ms",
    "cluster.fit.inertia_mean": "inertia",
    "cluster.lloyd.busy_s": "s",
    "cluster.lloyd.iterations": "count",
    "cluster.kmeanspp_seed.busy_s": "s",
    "cluster.classify.busy_s": "s",
    "cluster.model_json.busy_s": "s",
    "predictor.fit_model.calls": "count",
    "predictor.fit_model.hit_ratio": "frac",
    "predictor.features_array.busy_s": "s",
    "predictor.features_array.rows": "count",
    "predictor.recommendation_table.self_s": "s",
    "predictor.run_predictive.self_s": "s",
    "predictor.store_load.busy_s": "s",
    "predictor.store_save.busy_s": "s",
    "predictor.store_save.bytes": "bytes",
    "harness.self_s": "s",
    "harness.output_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, root_name: str, output_bytes: int) -> dict:
    """Per-layer figures of one traced campaign call (the span list of that
    call alone, rooted at ``root_name``)."""
    children: dict = {}
    for s in spans:
        children.setdefault(s[1], []).append(s[2])
    fits = [s for s in spans if s[2] == "cluster.fit"]
    fit_ms = [1e3 * (s[4] - s[3]) for s in fits]
    fit_model = [s for s in spans if s[2] == "predictor.fit_model"]
    hits = sum(1 for s in fit_model if "cluster.fit" not in children.get(s[0], ()))
    evolve_gens = _info_sum(spans, "de.evolve")
    evolve_self = _self(spans, "de.evolve")
    root_self = _self(spans, root_name)
    return {
        "bench.evaluate_batch.calls": _count(spans, "bench.evaluate_batch"),
        "bench.evaluate_batch.points": _info_sum(spans, "bench.evaluate_batch"),
        "bench.evaluate_batch.busy_s": _busy(spans, "bench.evaluate_batch"),
        "bench.make_instance.busy_s": _busy(spans, "bench.make_instance"),
        "sampling.latin_hypercube.busy_s": _busy(spans, "sampling.latin_hypercube"),
        "features.extract_features.calls": _count(spans, "features.extract_features"),
        "features.extract_features.self_s": _self(spans, "features.extract_features"),
        "de.evolve.calls": _count(spans, "de.evolve"),
        "de.evolve.generations": evolve_gens,
        "de.evolve.self_s": evolve_self,
        "de.evolve.self_us_per_gen": 1e6 * evolve_self / evolve_gens if evolve_gens else 0.0,
        "shade.sample_memory_params.busy_s": _busy(spans, "shade.sample_memory_params"),
        "shade.memory_update.busy_s": _busy(spans, "shade.memory_update"),
        "metric.compute_alpha.calls": _count(spans, "metric.compute_alpha"),
        "metric.compute_alpha.busy_s": _busy(spans, "metric.compute_alpha"),
        "stats.wilcoxon.calls": _count(spans, "stats.wilcoxon"),
        "stats.wilcoxon.busy_s": _busy(spans, "stats.wilcoxon"),
        "cluster.fit.calls": len(fits),
        "cluster.fit.points": sum(s[6][0] for s in fits),
        "cluster.fit.busy_s": _busy(spans, "cluster.fit"),
        "cluster.fit.p50_ms": statistics.median(fit_ms) if fit_ms else 0.0,
        "cluster.fit.max_ms": max(fit_ms) if fit_ms else 0.0,
        "cluster.fit.inertia_mean": statistics.fmean(s[6][1] for s in fits) if fits else 0.0,
        "cluster.lloyd.busy_s": _busy(spans, "cluster.lloyd"),
        "cluster.lloyd.iterations": _info_sum(spans, "cluster.lloyd"),
        "cluster.kmeanspp_seed.busy_s": _busy(spans, "cluster.kmeanspp_seed"),
        "cluster.classify.busy_s": _busy(spans, "cluster.classify"),
        "cluster.model_json.busy_s": _busy(spans, "cluster.model_json"),
        "predictor.fit_model.calls": len(fit_model),
        "predictor.fit_model.hit_ratio": hits / len(fit_model) if fit_model else 0.0,
        "predictor.features_array.busy_s": _busy(spans, "predictor.features_array"),
        "predictor.features_array.rows": _info_sum(spans, "predictor.features_array"),
        "predictor.recommendation_table.self_s": _self(spans, "predictor.recommendation_table"),
        "predictor.run_predictive.self_s": _self(spans, "predictor.run_predictive"),
        "predictor.store_load.busy_s": _busy(spans, "predictor.store_load"),
        "predictor.store_save.busy_s": _busy(spans, "predictor.store_save"),
        "predictor.store_save.bytes": _info_sum(spans, "predictor.store_save"),
        "harness.self_s": root_self,
        "harness.output_bytes": output_bytes,
    }
