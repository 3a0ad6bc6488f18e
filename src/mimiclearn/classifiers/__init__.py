"""Four tabular classifier families behind one fit/predict/score interface.

Families: linear SVM ("svm"), k-nearest neighbors ("knn"), random forest
("rf"), Gaussian naive Bayes ("nb"). Distance- and margin-based families
(knn, svm) are fit on standardized features and carry their scaler inside
the trained model; rf and nb work on raw features. ``score`` returns a
positive-class score (class index 1): signed margin for svm, neighbor
fraction for knn, tree-vote fraction for rf, posterior probability for nb.
Prediction never re-thresholds the score; each family applies its own vote,
sign, or argmax rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..data import Dataset, ScalerParams, apply_scaler, fit_scaler
from ..errors import DataError, PipelineError
from ..rng import STAGE_SPEC, derive_seed
from .bayes import NbModel, fit_nb, nb_log_posterior, nb_posterior
from .forest import ForestModel, TreeNodes, fit_forest, forest_votes
from .knn import KnnModel, fit_knn, knn_vote
from .svm import SvmModel, fit_svm, svm_margin

__all__ = [
    "FAMILIES",
    "DEFAULT_HYPERPARAMETERS",
    "ORIGIN_TEACHER",
    "ORIGIN_STUDENT",
    "ClassifierSpec",
    "TrainedModel",
    "default_specs",
    "fit",
    "predict",
    "score",
    "predict_batch",
    "score_batch",
    "SvmModel",
    "KnnModel",
    "ForestModel",
    "TreeNodes",
    "NbModel",
]

ORIGIN_TEACHER = "teacher-private"
ORIGIN_STUDENT = "student-shareable"


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one classifier family.

    ``defaults`` gives each hyperparameter's default, whose type is the only
    type accepted (a bool is never an int). ``minimums`` gives each one's
    lower bound: an int may equal it, a float must be finite and exceed it.
    ``scaled`` families are fit on standardized features. ``fit`` takes
    ``(X, y, n_classes, hyperparameters, seed)`` and returns the family's
    parameters; ``predict`` and ``score`` take ``(params, X,
    hyperparameters)``; ``n_features`` reads the feature count off params.
    """

    defaults: dict
    minimums: dict
    scaled: bool
    fit: Callable
    predict: Callable
    score: Callable
    n_features: Callable


REGISTRY = {
    "svm": Family(
        defaults={"reg_lambda": 1e-4, "epochs": 50},
        minimums={"reg_lambda": 0.0, "epochs": 1},
        scaled=True,
        fit=lambda X, y, n_classes, hp, seed: fit_svm(
            X, y, n_classes, hp["reg_lambda"], hp["epochs"], seed
        )[0],
        predict=lambda p, X, hp: (svm_margin(p, X) > 0).astype(np.int64),
        score=lambda p, X, hp: svm_margin(p, X),
        n_features=lambda p: p.weights.shape[0],
    ),
    "knn": Family(
        defaults={"n_neighbors": 8},
        minimums={"n_neighbors": 1},
        scaled=True,
        fit=lambda X, y, n_classes, hp, seed: fit_knn(X, y, n_classes, hp["n_neighbors"]),
        predict=lambda p, X, hp: knn_vote(p, X, hp["n_neighbors"])[0],
        score=lambda p, X, hp: (
            knn_vote(p, X, hp["n_neighbors"])[1][:, 1] / float(hp["n_neighbors"])
        ),
        n_features=lambda p: p.points.shape[1],
    ),
    "rf": Family(
        defaults={"n_trees": 100, "max_depth": 16, "min_split": 2},
        minimums={"n_trees": 1, "max_depth": 0, "min_split": 2},
        scaled=False,
        fit=lambda X, y, n_classes, hp, seed: fit_forest(
            X, y, n_classes, hp["n_trees"], hp["max_depth"], hp["min_split"], seed
        ),
        predict=lambda p, X, hp: np.argmax(forest_votes(p, X), axis=1),
        score=lambda p, X, hp: forest_votes(p, X)[:, 1] / float(len(p.trees)),
        n_features=lambda p: p.n_features,
    ),
    "nb": Family(
        defaults={"var_smoothing": 1e-9},
        minimums={"var_smoothing": 0.0},
        scaled=False,
        fit=lambda X, y, n_classes, hp, seed: fit_nb(X, y, n_classes, hp["var_smoothing"]),
        predict=lambda p, X, hp: np.argmax(nb_log_posterior(p, X), axis=1),
        score=lambda p, X, hp: nb_posterior(p, X)[:, 1],
        n_features=lambda p: p.means.shape[1],
    ),
}

FAMILIES = tuple(REGISTRY)
DEFAULT_HYPERPARAMETERS = {kind: family.defaults for kind, family in REGISTRY.items()}


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier family plus its hyperparameters and training seed.

    Missing hyperparameters are filled from the family defaults; unknown
    keys, values of the wrong type and values below the family minimum are
    rejected.
    """

    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise PipelineError(
                f"unknown classifier kind {self.kind!r}; expected one of {FAMILIES}"
            )
        if not isinstance(self.hyperparameters, dict):
            raise PipelineError(f"{self.kind}: hyperparameters must be an object")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise PipelineError(f"{self.kind}: seed must be an integer")
        family = REGISTRY[self.kind]
        unknown = set(self.hyperparameters) - set(family.defaults)
        if unknown:
            raise PipelineError(
                f"unknown {self.kind} hyperparameters: {sorted(unknown)}"
            )
        merged = {**family.defaults, **self.hyperparameters}
        for name, value in merged.items():
            expected, low = type(family.defaults[name]), family.minimums[name]
            if isinstance(value, bool) or not isinstance(value, expected):
                raise PipelineError(f"{self.kind}: {name} must be {expected.__name__}")
            if expected is int and value < low:
                raise PipelineError(f"{self.kind}: {name} must be >= {low}")
            if expected is float and not (math.isfinite(value) and value > low):
                raise PipelineError(f"{self.kind}: {name} must be finite and > {low}")
        object.__setattr__(self, "hyperparameters", merged)


def default_specs(seed: int = 0) -> tuple[ClassifierSpec, ...]:
    """Every family with default hyperparameters and derived seeds."""
    return tuple(
        ClassifierSpec(kind, {}, seed=derive_seed(seed, STAGE_SPEC, i))
        for i, kind in enumerate(FAMILIES)
    )


@dataclass(frozen=True)
class TrainedModel:
    """A fitted classifier: spec, family parameters, and an origin tag.

    ``origin`` is either "teacher-private" (never leaves the data owner) or
    "student-shareable" (the exportable artifact).
    """

    spec: ClassifierSpec
    params: SvmModel | KnnModel | ForestModel | NbModel
    class_names: tuple[str, ...]
    scaler: ScalerParams | None
    origin: str

    def __post_init__(self):
        if self.origin not in (ORIGIN_TEACHER, ORIGIN_STUDENT):
            raise PipelineError(f"invalid model origin {self.origin!r}")

    @property
    def n_features(self) -> int:
        return REGISTRY[self.spec.kind].n_features(self.params)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def fit(spec: ClassifierSpec, train: Dataset, origin: str) -> TrainedModel:
    """Train one classifier; deterministic for a fixed spec seed.

    Raises PipelineError when the training set holds a single class, and for
    knn when it holds fewer than k samples.
    """
    if train.labels is None:
        raise DataError("fit requires a labeled dataset")
    if np.unique(train.labels).size < 2:
        raise PipelineError(
            f"training set for {spec.kind} contains a single class"
        )
    family = REGISTRY[spec.kind]
    scaler = None
    fit_data = train
    if family.scaled:
        scaler = fit_scaler(train)
        fit_data = apply_scaler(train, scaler)
    params = family.fit(
        fit_data.features, fit_data.labels, len(train.class_names),
        spec.hyperparameters, spec.seed,
    )
    return TrainedModel(
        spec=spec,
        params=params,
        class_names=train.class_names,
        scaler=scaler,
        origin=origin,
    )


def _prepare_rows(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DataError("expected a 2-D batch of feature rows")
    if rows.shape[1] != model.n_features:
        raise DataError(
            f"feature count mismatch: model expects {model.n_features}, "
            f"got {rows.shape[1]}"
        )
    if model.scaler is not None:
        rows = (rows - model.scaler.means) / model.scaler.std_devs
    return rows


def predict_batch(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    """Class index per row; output order equals input order."""
    X = _prepare_rows(model, rows)
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return REGISTRY[model.spec.kind].predict(model.params, X, model.spec.hyperparameters)


def score_batch(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    """Positive-class (index 1) score per row, monotone toward class 1."""
    X = _prepare_rows(model, rows)
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    return REGISTRY[model.spec.kind].score(model.params, X, model.spec.hyperparameters)


def predict(model: TrainedModel, row: np.ndarray) -> int:
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1:
        raise DataError("predict takes a single 1-D feature row")
    return int(predict_batch(model, row[None, :])[0])


def score(model: TrainedModel, row: np.ndarray) -> float:
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1:
        raise DataError("score takes a single 1-D feature row")
    return float(score_batch(model, row[None, :])[0])
