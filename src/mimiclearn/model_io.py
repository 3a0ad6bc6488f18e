"""Versioned JSON serialization for shareable student models.

Two hard refusals, both raising :class:`PrivacyError`:

* models tagged teacher-private never serialize -- the whole point of
  training a student is that the teacher stays with the data owner;
* families without a codec never serialize. Nearest neighbors has none:
  its parameters *are* the training rows plus the teacher's per-row
  answers, so exporting one would ship a labeled dataset, not a model.

A model file is one JSON object with ``format_version`` 1.
:func:`model_to_file` builds it and :func:`file_json` renders it;
:func:`parse_model_file` decodes the text straight to a :class:`TrainedModel`
and raises :class:`ModelFormatError` on any malformed, truncated, or
future-versioned file. The codec is symmetric: floats are written in
shortest-repr form and forest node counts are read back as integers, so an
imported model predicts bit-identically to the one exported and exports to
the same bytes again. Export decodes its own output before returning it, so
every file the library writes imports again.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .classifiers import (
    ORIGIN_STUDENT,
    ORIGIN_TEACHER,
    REGISTRY,
    ClassifierSpec,
    TrainedModel,
)
from .classifiers.bayes import NbModel
from .classifiers.forest import ForestModel, TreeNodes
from .classifiers.svm import SvmModel
from .data import ScalerParams
from .errors import DataError, ModelFormatError, PipelineError, PrivacyError

MODEL_FORMAT_VERSION = 1


def _need(obj: dict, key: str, kinds, where: str):
    """``obj[key]``, which must be one of ``kinds``; no field is a bool."""
    if key not in obj:
        raise ModelFormatError(f"model file is missing {where}{key!r}")
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, kinds):
        raise ModelFormatError(f"model file field {where}{key!r} has the wrong type")
    return val


def _finite(obj: dict, key: str, where: str) -> float:
    val = _need(obj, key, (int, float), where)
    if not abs(val) <= sys.float_info.max:  # NaN, inf, or an int beyond float
        raise ModelFormatError(f"{where}{key} must be finite")
    return float(val)


def _array(raw, shape, integral: bool, name: str) -> np.ndarray:
    """``raw`` as a finite float64 (or, if ``integral``, int64) array of ``shape``."""
    try:
        arr = np.asarray(raw)
    except (ValueError, TypeError, OverflowError):  # ragged or not numbers
        arr = None
    kinds = "iu" if integral else "iuf"
    if (arr is None or arr.shape != shape or arr.dtype.kind not in kinds
            or not np.isfinite(arr).all()):
        what = "integers" if integral else "finite numbers"
        raise ModelFormatError(f"{name} must hold {'x'.join(map(str, shape))} {what}")
    return arr.astype(np.int64 if integral else np.float64)


def _encode_svm(p: SvmModel) -> dict:
    return {"weights": p.weights.tolist(), "bias": p.bias}


def _decode_svm(raw: dict, n_features: int, n_classes: int) -> SvmModel:
    if n_classes != 2:
        raise ModelFormatError("svm model files must be binary")
    weights = _array(_need(raw, "weights", list, "parameters."), (n_features,),
                     False, "parameters.weights")
    return SvmModel(weights=weights, bias=_finite(raw, "bias", "parameters."))


def _encode_forest(p: ForestModel) -> dict:
    return {
        "n_classes": p.n_classes,
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "counts": t.counts.tolist(),
            }
            for t in p.trees
        ],
    }


def _decode_tree(raw, index: int, n_features: int, n_classes: int) -> TreeNodes:
    where = f"parameters.trees[{index}]."
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{where[:-1]} must be an object")
    feature_raw = _need(raw, "feature", list, where)
    n_nodes = len(feature_raw)
    if n_nodes < 1:
        raise ModelFormatError(f"tree {index} has no nodes")
    feature = _array(feature_raw, (n_nodes,), True, where + "feature")
    threshold = _array(_need(raw, "threshold", list, where), (n_nodes,), False,
                       where + "threshold")
    left = _array(_need(raw, "left", list, where), (n_nodes,), True, where + "left")
    right = _array(_need(raw, "right", list, where), (n_nodes,), True, where + "right")
    counts = _array(_need(raw, "counts", list, where), (n_nodes, n_classes), True,
                    where + "counts")
    if (counts < 0).any():
        raise ModelFormatError(f"tree {index} has negative leaf counts")
    if feature.min() < -1 or feature.max() >= n_features:
        raise ModelFormatError(f"tree {index} references an invalid feature")
    is_leaf = feature == -1
    if not is_leaf.any():
        raise ModelFormatError(f"tree {index} has no leaves")
    if (left[is_leaf] != -1).any() or (right[is_leaf] != -1).any():
        raise ModelFormatError(f"tree {index} has leaves with children")
    inner = np.nonzero(~is_leaf)[0]
    for child in (left, right):
        c = child[inner]
        # preorder storage: children always point forward, never backward
        if ((c <= inner) | (c >= n_nodes)).any():
            raise ModelFormatError(f"tree {index} has an invalid child pointer")
    if counts[is_leaf].sum(axis=1).min() <= 0:
        raise ModelFormatError(f"tree {index} has an empty leaf")
    return TreeNodes(feature=feature, threshold=threshold, left=left,
                     right=right, counts=counts)


def _decode_forest(raw: dict, n_features: int, n_classes: int) -> ForestModel:
    declared = _need(raw, "n_classes", int, "parameters.")
    if declared != n_classes:
        raise ModelFormatError(
            f"parameters.n_classes is {declared} but the file names "
            f"{n_classes} classes"
        )
    trees_raw = _need(raw, "trees", list, "parameters.")
    if not trees_raw:
        raise ModelFormatError("parameters.trees is empty")
    trees = tuple(
        _decode_tree(t, i, n_features, n_classes) for i, t in enumerate(trees_raw)
    )
    return ForestModel(trees=trees, n_features=n_features, n_classes=n_classes)


def _encode_nb(p: NbModel) -> dict:
    return {
        "priors": p.priors.tolist(),
        "means": p.means.tolist(),
        "variances": p.variances.tolist(),
        "epsilon": p.epsilon,
    }


def _decode_nb(raw: dict, n_features: int, n_classes: int) -> NbModel:
    priors = _array(_need(raw, "priors", list, "parameters."), (n_classes,),
                    False, "parameters.priors")
    if (priors < 0).any() or abs(priors.sum() - 1.0) > 1e-9:
        raise ModelFormatError("parameters.priors must be nonnegative and sum to 1")
    means = _array(_need(raw, "means", list, "parameters."),
                   (n_classes, n_features), False, "parameters.means")
    variances = _array(_need(raw, "variances", list, "parameters."),
                       (n_classes, n_features), False, "parameters.variances")
    if (variances <= 0).any():
        raise ModelFormatError("parameters.variances must be strictly positive")
    epsilon = _finite(raw, "epsilon", "parameters.")
    if epsilon <= 0:
        raise ModelFormatError("parameters.epsilon must be strictly positive")
    return NbModel(priors=priors, means=means, variances=variances, epsilon=epsilon)


# kind -> (encode, decode) of the family's parameters; a family without an
# entry is never exported or imported
_CODECS = {
    "svm": (_encode_svm, _decode_svm),
    "rf": (_encode_forest, _decode_forest),
    "nb": (_encode_nb, _decode_nb),
}


def has_codec(kind: str) -> bool:
    """Whether models of ``kind`` can be written to a model file at all."""
    return kind in _CODECS


def _raw_rows_refusal(kind: str, action: str) -> PrivacyError:
    return PrivacyError(
        f"refusing to {action} a {kind} model: its parameters are raw training "
        "rows, so sharing it would share data, not a model"
    )


def _decode(raw) -> TrainedModel:
    """Validate a model file's JSON object and build the model it describes."""
    if not isinstance(raw, dict):
        raise ModelFormatError("model file must hold a JSON object")
    version = _need(raw, "format_version", int, "")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version}; "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    kind = _need(raw, "kind", str, "")
    if kind not in REGISTRY:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    if kind not in _CODECS:
        raise _raw_rows_refusal(kind, "load")
    origin = _need(raw, "origin", str, "")
    if origin == ORIGIN_TEACHER:
        raise PrivacyError(
            "refusing to load a model file tagged teacher-private; "
            "such files should never exist"
        )
    if origin != ORIGIN_STUDENT:
        raise ModelFormatError(f"unknown model origin {origin!r}")

    class_names = _need(raw, "class_names", list, "")
    if len(class_names) < 2 or not all(isinstance(c, str) for c in class_names):
        raise ModelFormatError("class_names must list at least two names")
    n_features = _need(raw, "n_features", int, "")
    if n_features < 1:
        raise ModelFormatError("n_features must be at least 1")

    scaler = raw.get("scaler")
    if scaler is not None:
        if not isinstance(scaler, dict):
            raise ModelFormatError("scaler must be an object or null")
        means = _array(_need(scaler, "means", list, "scaler."), (n_features,),
                       False, "scaler.means")
        stds = _array(_need(scaler, "std_devs", list, "scaler."), (n_features,),
                      False, "scaler.std_devs")
        if (stds <= 0).any():
            raise ModelFormatError("scaler.std_devs must be strictly positive")
        scaler = ScalerParams(means=means, std_devs=stds)

    hyperparameters = _need(raw, "hyperparameters", dict, "")
    seed = _need(raw, "seed", int, "")
    try:
        spec = ClassifierSpec(kind, hyperparameters, seed=seed)
    except PipelineError as exc:
        raise ModelFormatError(f"invalid hyperparameters in model file: {exc}") from exc
    params = _CODECS[kind][1](
        _need(raw, "parameters", dict, ""), n_features, len(class_names)
    )
    created_at = raw.get("created_at")
    if created_at is not None and not isinstance(created_at, str):
        raise ModelFormatError("created_at must be a string or null")
    return TrainedModel(spec=spec, params=params, class_names=tuple(class_names),
                        scaler=scaler, origin=origin)


def model_to_file(model: TrainedModel, created_at: str | None = None) -> dict:
    """The model file's JSON object, enforcing both export refusals.

    The object is decoded before it is returned, so a model that would not
    import again (a non-finite weight, say) raises PipelineError here.
    """
    if model.origin == ORIGIN_TEACHER:
        raise PrivacyError(
            "refusing to export a teacher-private model; "
            "train and export a student instead"
        )
    kind = model.spec.kind
    if kind not in _CODECS:
        raise _raw_rows_refusal(kind, "export")
    scaler = None
    if model.scaler is not None:
        scaler = {
            "means": model.scaler.means.tolist(),
            "std_devs": model.scaler.std_devs.tolist(),
        }
    record = {
        "format_version": MODEL_FORMAT_VERSION,
        **model.spec.to_json_dict(),
        "origin": model.origin,
        "class_names": list(model.class_names),
        "n_features": model.n_features,
        "scaler": scaler,
        "parameters": _CODECS[kind][0](model.params),
        "created_at": created_at,
    }
    try:
        _decode(record)
    except ModelFormatError as exc:
        raise PipelineError(f"exported model would not import again: {exc}") from exc
    return record


def file_json(record: dict) -> str:
    """The text of a model file: ``record`` as sorted, indented JSON."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def export_model(
    model: TrainedModel, path: str | Path, created_at: str | None = None
) -> dict:
    """Write a student model to ``path``; returns the record written.

    ``created_at`` is optional precisely so that default exports are
    byte-for-byte reproducible.
    """
    record = model_to_file(model, created_at=created_at)
    Path(path).write_text(file_json(record), encoding="utf-8")
    return record


def parse_model_file(text: str) -> TrainedModel:
    """Decode the text of a model file into the model it describes."""
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    return _decode(raw)


def import_model(path: str | Path) -> TrainedModel:
    """Read and validate a student model file."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"model file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"model file is not UTF-8 text: {exc}") from exc
    return parse_model_file(text)
