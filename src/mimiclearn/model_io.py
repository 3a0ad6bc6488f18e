"""Versioned JSON serialization for shareable student models.

Two hard refusals, both raising :class:`PrivacyError`:

* models tagged teacher-private never serialize -- the whole point of
  training a student is that the teacher stays with the data owner;
* families whose ``REGISTRY`` entry names no parameter record never
  serialize. Nearest neighbors has none: its parameters *are* the training
  rows and the teacher's answers, so exporting one would ship data.

A model file is one JSON object with ``format_version`` 1. :func:`model_text`
writes it from the parameter arrays through :func:`file_json`, a list of
numbers as one join of their shortest reprs, in ``json.dumps``' bytes with
``indent=2`` and sorted keys. :func:`parse_model_file` reads the text back by
one declared layout per parameter record, each tree as the parser closes it,
and raises :class:`ModelFormatError` on any malformed, truncated, or
future-versioned file; only what a layout cannot state (tree shape, tree
count, binary svm, priors summing to 1) is checked by hand. No number is a
bool and node counts are integers, so an imported model predicts
bit-identically to the one exported and exports to the same bytes again.
Export imports its own text before returning it, so every file the library
writes imports again.
"""

from __future__ import annotations

import json
import os
import reprlib
import tempfile
from itertools import chain
from pathlib import Path
from typing import NamedTuple

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


class _Field(NamedTuple):
    shape: tuple = ()  # named dimensions; () is one number
    integral: bool = False  # else finite floats
    low: float | None = None  # lower bound
    strict: bool = False  # whether ``low`` itself is refused


# The layout of each parameter record in a model file, field by field; a tree's
# n_nodes, which the decoder is not given, is the length of its first field.
_LAYOUTS = {
    ScalerParams: {"means": _Field(("n_features",)),
                   "std_devs": _Field(("n_features",), low=0, strict=True)},
    SvmModel: {"weights": _Field(("n_features",)), "bias": _Field()},
    NbModel: {"priors": _Field(("n_classes",), low=0),
              "means": _Field(("n_classes", "n_features")),
              "variances": _Field(("n_classes", "n_features"), low=0, strict=True),
              "epsilon": _Field(low=0, strict=True)},
    TreeNodes: {"feature": _Field(("n_nodes",), True, low=-1),  # -1 marks a leaf
                "threshold": _Field(("n_nodes",)),
                "left": _Field(("n_nodes",), True, low=-1),
                "right": _Field(("n_nodes",), True, low=-1),
                "counts": _Field(("n_nodes", "n_classes"), True, low=0)},
}


def _decode_fields(cls, raw, dims: dict, where: str):
    """Record ``cls`` from the JSON object ``raw`` by its declared layout, with
    ``dims`` sizing the named dimensions (one missing is read off the data);
    no number is a bool."""
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{where[:-1]} must be an object")
    dims, values = dict(dims), {}
    for name, (names, integral, low, strict) in _LAYOUTS[cls].items():
        val = _need(raw, name, (list, np.ndarray) if names else (int, float), where)
        try:
            arr = np.asarray(val)
        except (ValueError, TypeError, OverflowError):  # ragged or not numbers
            arr = None
        flat = chain.from_iterable(val) if len(names) > 1 else val
        if (arr is None or arr.ndim != len(names)
                or arr.shape != tuple(map(dims.setdefault, names, arr.shape))
                or arr.dtype.kind not in ("i" if integral else "iuf")  # an int past int64: "u"
                or not np.isfinite(arr).all()  # and numpy reads [true, 2] as ints:
                or isinstance(val, list) and bool in set(map(type, flat))):
            what = "integers" if integral else "finite numbers"
            shape = tuple(dims.get(d, len(val)) for d in names)
            raise ModelFormatError(f"{where}{name} must hold {what} in shape {shape}")
        arr = arr.astype(np.int64 if integral else np.float64, copy=False)
        if low is not None and (arr <= low if strict else arr < low).any():
            raise ModelFormatError(f"{where}{name} must be {'>' if strict else '>='} {low}")
        values[name] = arr if names else float(arr)
    return cls(**values)


def _tree_hook(obj: dict) -> dict:
    """``json.loads``' object hook: a tree is decoded, n_nodes and n_classes read
    off it, as the parser closes it, so its lists are dropped at once."""
    try:
        return {**obj, **vars(_decode_fields(TreeNodes, obj, {}, ""))}
    except ModelFormatError:  # not a tree, or a malformed one: _decode_params says why
        return obj


def _check_trees(trees, n_features: int, max_depth: int) -> None:
    """Refuse trees malformed or deeper than ``max_depth``, all in one pass."""
    sizes = np.array([t.n_nodes for t in trees])
    roots = np.cumsum(sizes) - sizes
    tree_of = np.repeat(np.arange(sizes.size), sizes)
    local = np.arange(tree_of.size) - roots[tree_of]
    feature, left, right, counts = (np.concatenate([getattr(t, name) for t in trees])
                                    for name in ("feature", "left", "right", "counts"))
    leaf = feature == -1

    def refuse(bad, what, tree=tree_of):  # bad: a mask over ``tree``'s nodes
        if bad.any():
            raise ModelFormatError(f"tree {tree[bad][0]} {what}")

    refuse(feature >= n_features, "references an invalid feature")
    refuse(leaf & (counts.sum(axis=1) <= 0), "has an empty leaf")
    for child in (left, right):
        # preorder storage: a leaf's children are -1, others point forward
        refuse(np.where(leaf, child != -1, (child <= local) | (child >= sizes[tree_of])),
               "has an invalid child pointer")
    left, right = left + roots[tree_of], right + roots[tree_of]
    # one parent per node (a root is its own), so the depth walk meets each once
    parents = np.bincount(np.concatenate((left[~leaf], right[~leaf], roots)),
                          minlength=leaf.size)
    refuse(parents != 1, "has a node that is not the child of exactly one node")
    level = roots
    for _ in range(max_depth):
        level = level[~leaf[level]]
        if not level.size:
            return
        level = np.concatenate((left[level], right[level]))
    refuse(~leaf[level], f"is deeper than max_depth {max_depth}", tree_of[level])


def _decode_params(cls, raw: dict, dims: dict, hp: dict):
    """The family's parameter record: its layout, then what no layout states."""
    if cls is not ForestModel:
        params = _decode_fields(cls, raw, dims, "parameters.")
        if cls is SvmModel and dims["n_classes"] != 2:
            raise ModelFormatError("svm model files must be binary")
        if cls is NbModel and abs(params.priors.sum() - 1.0) > 1e-9:
            raise ModelFormatError("parameters.priors must sum to 1")
        return params
    n_classes, trees_raw = dims["n_classes"], _need(raw, "trees", list, "parameters.")
    if _need(raw, "n_classes", int, "parameters.") != n_classes:
        raise ModelFormatError(f"parameters.n_classes must be {n_classes}")
    if len(trees_raw) != hp["n_trees"]:
        raise ModelFormatError(f"parameters.trees must hold n_trees={hp['n_trees']} trees")
    trees = tuple(_decode_fields(TreeNodes, t, dims, f"parameters.trees[{i}].")
                  for i, t in enumerate(trees_raw))
    _check_trees(trees, dims["n_features"], hp["max_depth"])
    return ForestModel(trees=trees, n_features=dims["n_features"], n_classes=n_classes)


def has_codec(kind: str) -> bool:
    """Whether models of ``kind`` can be written to a model file at all."""
    return REGISTRY[kind].record is not None


def _raw_rows_refusal(kind: str, action: str) -> PrivacyError:
    return PrivacyError(f"refusing to {action} a {kind} model: its parameters are raw "
                        "training rows, so sharing it would share data, not a model")


def _decode(raw) -> TrainedModel:
    """Validate a model file's JSON object and build the model it describes."""
    if not isinstance(raw, dict):
        raise ModelFormatError("model file must hold a JSON object")
    version = _need(raw, "format_version", int, "")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version}; "
                               f"this build reads version {MODEL_FORMAT_VERSION}")
    kind = _need(raw, "kind", str, "")
    if kind not in REGISTRY:
        raise ModelFormatError(f"unknown model kind {reprlib.repr(kind)}")
    cls = REGISTRY[kind].record
    if cls is None:
        raise _raw_rows_refusal(kind, "load")
    origin = _need(raw, "origin", str, "")
    if origin == ORIGIN_TEACHER:
        raise PrivacyError("refusing to load a model file tagged teacher-private; "
                           "such files should never exist")
    if origin != ORIGIN_STUDENT:
        raise ModelFormatError(f"unknown model origin {reprlib.repr(origin)}")

    class_names = _need(raw, "class_names", list, "")
    if (len(class_names) < 2 or not all(isinstance(c, str) for c in class_names)
            or len(set(class_names)) < len(class_names)):
        raise ModelFormatError("class_names must list at least two distinct names")
    n_features = _need(raw, "n_features", int, "")
    if n_features < 1:
        raise ModelFormatError("n_features must be at least 1")

    dims = {"n_features": n_features, "n_classes": len(class_names)}
    scaler = raw.get("scaler")
    if (scaler is not None) != REGISTRY[kind].scaled:  # fit on standardized rows, or not
        raise ModelFormatError(f"scaler must be {'an object' if scaler is None else 'null'} "
                               f"in a {kind} model file")
    if scaler is not None:
        scaler = _decode_fields(ScalerParams, scaler, dims, "scaler.")

    hyperparameters = _need(raw, "hyperparameters", dict, "")
    seed = _need(raw, "seed", int, "")
    try:
        spec = ClassifierSpec(kind, hyperparameters, seed=seed)
    except PipelineError as exc:
        raise ModelFormatError(f"invalid hyperparameters in model file: {exc}") from exc
    params = _decode_params(cls, _need(raw, "parameters", dict, ""), dims,
                            spec.hyperparameters)
    created_at = raw.get("created_at")
    if created_at is not None and not isinstance(created_at, str):
        raise ModelFormatError("created_at must be a string or null")
    return TrainedModel(spec=spec, params=params, class_names=tuple(class_names),
                        scaler=scaler, origin=origin)


def _json(val, pad: str) -> str:
    """``val`` as :func:`file_json` writes it, its lines opened by ``pad``; an array
    as its ``tolist()``, and a list of finite numbers as one join of their reprs."""
    val = val.tolist() if isinstance(val, np.ndarray) else val
    if not isinstance(val, (dict, list, tuple)) or not val:
        return json.dumps(val)
    inner, sep = pad + "  ", "," + pad + "  "
    if isinstance(val, dict):
        body = sep.join(f"{json.dumps(k)}: {_json(v, inner)}" for k, v in sorted(val.items()))
        return f"{{{inner}{body}{pad}}}"
    body = None if set(map(type, val)) - {int, float} else sep.join(map(repr, val))
    if body is None or "n" in body:  # not plain numbers, or an inf or nan JSON spells otherwise
        body = sep.join(_json(v, inner) for v in val)
    return f"[{inner}{body}{pad}]"


def file_json(record: dict) -> str:
    """The text of a model file: ``record``, whose fields may be numpy arrays, as
    ``json.dumps`` writes it with ``indent=2`` and sorted keys, plus a newline."""
    return _json(record, "\n") + "\n"


def model_text(model: TrainedModel, created_at: str | None = None, encode=file_json) -> str:
    """The text of ``model``'s file, rendered by ``encode``, enforcing both export
    refusals. The text is imported again before it is returned, so a model that
    would not import again (a non-finite weight, say) raises PipelineError here."""
    if model.origin == ORIGIN_TEACHER:
        raise PrivacyError("refusing to export a teacher-private model; "
                           "train and export a student instead")
    kind, params = model.spec.kind, model.params
    if not has_codec(kind):
        raise _raw_rows_refusal(kind, "export")
    if isinstance(params, ForestModel):  # its n_features is a top-level field
        params = {"n_classes": params.n_classes, "trees": list(map(vars, params.trees))}
    text = encode({
        "format_version": MODEL_FORMAT_VERSION,
        **model.spec.to_json_dict(),
        "origin": model.origin,
        "class_names": list(model.class_names),
        "n_features": model.n_features,
        "scaler": None if model.scaler is None else vars(model.scaler),
        "parameters": params if isinstance(params, dict) else vars(params),
        "created_at": created_at,
    })
    try:
        parse_model_file(text)
    except ModelFormatError as exc:
        raise PipelineError(f"exported model would not import again: {exc}") from exc
    return text


def model_to_file(model: TrainedModel, created_at: str | None = None) -> dict:
    """The model file's JSON object: :func:`model_text`, decoded by ``json``."""
    return json.loads(model_text(model, created_at))


def export_model(model: TrainedModel, path: str | Path, created_at: str | None = None) -> None:
    """Write a student model to ``path``; :func:`model_to_file` gives its record.

    The file is written beside ``path`` and renamed over it, so ``path``
    holds the old bytes or the new ones, never a part. ``created_at`` is
    optional precisely so that default exports are byte-for-byte reproducible.
    """
    text = model_text(model, created_at=created_at)
    path = Path(path)
    with tempfile.TemporaryDirectory(dir=path.parent) as stage:
        Path(stage, path.name).write_text(text, encoding="utf-8")
        os.replace(Path(stage, path.name), path)


def parse_model_file(text: str) -> TrainedModel:
    """Decode the text of a model file into the model it describes."""
    try:
        raw = json.loads(text, object_hook=_tree_hook)
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
