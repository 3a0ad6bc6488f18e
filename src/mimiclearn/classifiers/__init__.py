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

from dataclasses import dataclass, field

import numpy as np

from ..data import Dataset, ScalerParams, apply_scaler, fit_scaler
from ..errors import DataError, PipelineError
from ..rng import STAGE_SPEC, derive_seed
from .bayes import NbModel, fit_nb, nb_log_posterior, nb_posterior
from .forest import ForestModel, TreeNodes, fit_forest, forest_votes, tree_predict
from .knn import KnnModel, fit_knn, knn_vote
from .svm import SvmModel, fit_svm, svm_margin, svm_objective

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

FAMILIES = ("svm", "knn", "rf", "nb")

ORIGIN_TEACHER = "teacher-private"
ORIGIN_STUDENT = "student-shareable"

DEFAULT_HYPERPARAMETERS = {
    "svm": {"reg_lambda": 1e-4, "epochs": 50},
    "knn": {"n_neighbors": 8},
    "rf": {"n_trees": 100, "max_depth": 16, "min_split": 2},
    "nb": {"var_smoothing": 1e-9},
}

_SCALED_FAMILIES = ("svm", "knn")


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier family plus its hyperparameters and training seed.

    Missing hyperparameters are filled from the family defaults; unknown
    keys are rejected.
    """

    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise PipelineError(
                f"unknown classifier kind {self.kind!r}; expected one of {FAMILIES}"
            )
        defaults = DEFAULT_HYPERPARAMETERS[self.kind]
        unknown = set(self.hyperparameters) - set(defaults)
        if unknown:
            raise PipelineError(
                f"unknown {self.kind} hyperparameters: {sorted(unknown)}"
            )
        merged = {**defaults, **self.hyperparameters}
        _validate_hyperparameters(self.kind, merged)
        object.__setattr__(self, "hyperparameters", merged)


def _validate_hyperparameters(kind, hp):
    checks = {
        "svm": [("reg_lambda", hp.get("reg_lambda", 0) > 0, "reg_lambda must be > 0"),
                ("epochs", hp.get("epochs", 0) >= 1, "epochs must be >= 1")],
        "knn": [("n_neighbors", hp.get("n_neighbors", 0) >= 1, "n_neighbors must be >= 1")],
        "rf": [("n_trees", hp.get("n_trees", 0) >= 1, "n_trees must be >= 1"),
               ("max_depth", hp.get("max_depth", -1) >= 0, "max_depth must be >= 0"),
               ("min_split", hp.get("min_split", 0) >= 2, "min_split must be >= 2")],
        "nb": [("var_smoothing", hp.get("var_smoothing", 0) > 0, "var_smoothing must be > 0")],
    }
    for _, ok, msg in checks[kind]:
        if not ok:
            raise PipelineError(f"{kind}: {msg}")


def default_specs(seed: int = 0) -> tuple[ClassifierSpec, ...]:
    """The four families with default hyperparameters and derived seeds."""
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
        p = self.params
        if isinstance(p, SvmModel):
            return p.weights.shape[0]
        if isinstance(p, KnnModel):
            return p.points.shape[1]
        if isinstance(p, ForestModel):
            return p.n_features
        return p.means.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def fit(spec: ClassifierSpec, train: Dataset, origin: str, jobs: int = 1) -> TrainedModel:
    """Train one classifier; deterministic for a fixed spec seed.

    ``jobs`` is accepted and ignored: training is single-threaded, and the
    result never depends on it.

    Raises PipelineError when the training set holds a single class, and for
    knn when it holds fewer than k samples.
    """
    if train.labels is None:
        raise DataError("fit requires a labeled dataset")
    if np.unique(train.labels).size < 2:
        raise PipelineError(
            f"training set for {spec.kind} contains a single class"
        )
    n_classes = len(train.class_names)
    scaler = None
    fit_data = train
    if spec.kind in _SCALED_FAMILIES:
        scaler = fit_scaler(train)
        fit_data = apply_scaler(train, scaler)
    X, y = fit_data.features, fit_data.labels
    hp = spec.hyperparameters

    if spec.kind == "svm":
        params, _ = fit_svm(
            X, y, n_classes, hp["reg_lambda"], hp["epochs"], spec.seed
        )
    elif spec.kind == "knn":
        params = fit_knn(X, y, n_classes, hp["n_neighbors"])
    elif spec.kind == "rf":
        params = fit_forest(
            X, y, n_classes, hp["n_trees"], hp["max_depth"], hp["min_split"],
            spec.seed,
        )
    else:
        params = fit_nb(X, y, n_classes, hp["var_smoothing"])

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
    p = model.params
    if isinstance(p, SvmModel):
        return (svm_margin(p, X) > 0).astype(np.int64)
    if isinstance(p, KnnModel):
        preds, _ = knn_vote(p, X, model.spec.hyperparameters["n_neighbors"])
        return preds
    if isinstance(p, ForestModel):
        return np.argmax(forest_votes(p, X), axis=1)
    return np.argmax(nb_log_posterior(p, X), axis=1)


def score_batch(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    """Positive-class (index 1) score per row, monotone toward class 1."""
    X = _prepare_rows(model, rows)
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    p = model.params
    if isinstance(p, SvmModel):
        return svm_margin(p, X)
    if isinstance(p, KnnModel):
        k = model.spec.hyperparameters["n_neighbors"]
        _, counts = knn_vote(p, X, k)
        return counts[:, 1] / float(k)
    if isinstance(p, ForestModel):
        votes = forest_votes(p, X)
        return votes[:, 1] / float(len(p.trees))
    return nb_posterior(p, X)[:, 1]


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
