"""In-memory span tracer that wraps mimiclearn's public functions from outside.

Each wrapper replaces a function *as the calling module binds it* (for
example ``mimiclearn.mimic.fit``), records one span per call (name, start,
end, parent, whether it raised) and counts the work the call did. Leaving
the ``Tracer`` context restores every original binding. Nothing here
changes arguments or results, so traced runs must write the same bytes as
untraced ones; the benchmark checks that.

A layer's time is the *self time* of its spans: a span's duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import dataclass

# classifier kind -> layer (module under mimiclearn.classifiers)
FAMILY_LAYER = {"rf": "forest", "svm": "svm", "knn": "knn", "nb": "nb"}

LAYERS = ("cli", "data", "mimic", "forest", "svm", "knn", "nb", "metrics", "model_io")

# the per-layer metrics a traced run reports, with their units
LAYER_METRICS = {
    "forest.fit_s": "s", "forest.fit_calls": "count", "forest.fit_rows": "count",
    "forest.nodes": "count", "forest.predict_s": "s", "forest.predict_rows": "count",
    "forest.duplicate_predict_share": "ratio",
    "svm.fit_s": "s", "svm.fit_calls": "count", "svm.sgd_steps": "count",
    "svm.predict_s": "s",
    "knn.fit_s": "s", "knn.predict_s": "s", "knn.predict_rows": "count",
    "nb.fit_s": "s", "nb.predict_s": "s",
    "data.ingest_s": "s", "data.ingest_rows": "count", "data.split_s": "s",
    "data.kfold_s": "s", "data.scale_s": "s",
    "metrics.s": "s", "metrics.calls": "count",
    "model_io.export_s": "s", "model_io.export_bytes": "bytes",
    "model_io.import_s": "s", "model_io.import_bytes": "bytes",
    "mimic.self_s": "s", "cli.self_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
}

# span name -> the per-layer time metric its self time adds to; fit and
# predict spans ("rf.fit", "knn.predict_batch", ...) are mapped by family
SPAN_METRIC = {
    "cli.main": "cli.self_s",
    "data.ingest_csv": "data.ingest_s",
    "data.stratified_split": "data.split_s",
    "data.kfold": "data.kfold_s",
    "data.fit_scaler": "data.scale_s",
    "data.apply_scaler": "data.scale_s",
    "mimic.run_pipeline": "mimic.self_s",
    "mimic.train_teacher": "mimic.self_s",
    "mimic.annotate": "mimic.self_s",
    "mimic.train_student": "mimic.self_s",
    "mimic.evaluate_fidelity": "mimic.self_s",
    "metrics.macro_metrics": "metrics.s",
    "metrics.positive_metrics": "metrics.s",
    "metrics.roc": "metrics.s",
    "model_io.import_model": "model_io.import_s",
    "model_io.model_to_file": "model_io.export_s",
    "model_io.file_json": "model_io.export_s",
}
for _kind, _layer in FAMILY_LAYER.items():
    SPAN_METRIC[f"{_kind}.fit"] = f"{_layer}.fit_s"
    SPAN_METRIC[f"{_kind}.predict_batch"] = f"{_layer}.predict_s"
    SPAN_METRIC[f"{_kind}.score_batch"] = f"{_layer}.predict_s"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    error: bool


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    """Context manager: patches the traced bindings on enter, restores on exit."""

    def __init__(self, ml):
        self.ml = ml
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # (model, rows) pairs already evaluated; the objects are kept alive
        # so their ids cannot be reused within the traced call
        self._seen: set[tuple[int, int]] = set()
        self._alive: list[tuple[object, object]] = []

    # -- recording --------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, False)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, module, attr, name_of, after=None):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            result = self.call(name_of(*args, **kwargs), original, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    # -- counters ---------------------------------------------------------

    def _after_ingest(self, result, *args, **kwargs):
        self.counts["data.ingest_rows"] += result[1].n_rows

    def _after_fit(self, model, spec, train, *args, **kwargs):
        layer = FAMILY_LAYER[spec.kind]
        self.counts[f"{layer}.fit_calls"] += 1
        self.counts[f"{layer}.fit_rows"] += train.n_rows
        if spec.kind == "rf":
            self.counts["forest.nodes"] += sum(t.n_nodes for t in model.params.trees)
        elif spec.kind == "svm":
            self.counts["svm.sgd_steps"] += spec.hyperparameters["epochs"] * train.n_rows

    def _after_predict(self, result, model, rows, *args, **kwargs):
        layer = FAMILY_LAYER[model.spec.kind]
        n = len(rows)
        self.counts[f"{layer}.predict_rows"] += n
        key = (id(model), id(rows))
        if key in self._seen:
            self.counts[f"{layer}.duplicate_rows"] += n
        else:
            self._seen.add(key)
            self._alive.append((model, rows))

    def _after_metrics(self, result, *args, **kwargs):
        self.counts["metrics.calls"] += 1

    def _after_file_json(self, text, *args, **kwargs):
        self.counts["model_io.export_bytes"] += len(text.encode("utf-8"))

    def _after_import(self, result, path, *args, **kwargs):
        self.counts["model_io.import_bytes"] += os.path.getsize(path)

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        ml = self.ml
        cli, mimic, classifiers = ml.cli, ml.mimic, ml.classifiers

        def fixed(name):
            return lambda *a, **k: name

        def by_spec(op):
            return lambda spec, *a, **k: f"{spec.kind}.{op}"

        def by_model(op):
            return lambda model, *a, **k: f"{model.spec.kind}.{op}"

        # cli: what `mimiclearn run` and `mimiclearn evaluate` call
        self._wrap(cli, "ingest_csv", fixed("data.ingest_csv"), self._after_ingest)
        self._wrap(cli, "run_pipeline", fixed("mimic.run_pipeline"))
        self._wrap(cli, "import_model", fixed("model_io.import_model"), self._after_import)
        self._wrap(cli, "model_to_file", fixed("model_io.model_to_file"))
        self._wrap(cli, "file_json", fixed("model_io.file_json"), self._after_file_json)
        for module in (cli, mimic):
            for attr in ("predict_batch", "score_batch"):
                self._wrap(module, attr, by_model(attr), self._after_predict)
            for attr in ("macro_metrics", "positive_metrics", "roc"):
                self._wrap(module, attr, fixed(f"metrics.{attr}"), self._after_metrics)
        # mimic: the pipeline stages and what they call
        self._wrap(mimic, "stratified_split", fixed("data.stratified_split"))
        self._wrap(mimic, "kfold", fixed("data.kfold"))
        self._wrap(mimic, "fit", by_spec("fit"), self._after_fit)
        for attr in ("annotate", "train_teacher", "train_student", "evaluate_fidelity"):
            self._wrap(mimic, attr, fixed(f"mimic.{attr}"))
        # classifiers: feature scaling for svm and knn
        for attr in ("fit_scaler", "apply_scaler"):
            self._wrap(classifiers, attr, fixed(f"data.{attr}"))
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        self._alive.clear()
        return False

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of ``LAYER_METRICS``; zero where a layer did no work."""
        out = {name: 0.0 for name in LAYER_METRICS}
        for span, own in zip(self.spans, self_times(self.spans)):
            metric = SPAN_METRIC[span.name]
            out[metric] += own
            if span.error:
                out[metric.split(".")[0] + ".errors"] += 1
        for name, value in self.counts.items():
            if name in out:
                out[name] += value
        rows = self.counts["forest.predict_rows"]
        if rows:
            out["forest.duplicate_predict_share"] = self.counts["forest.duplicate_rows"] / rows
        return out
