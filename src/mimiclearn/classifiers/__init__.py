"""Four tabular classifier families behind one fit/decide interface.

Families: linear SVM ("svm"), k-nearest neighbors ("knn"), random forest
("rf"), Gaussian naive Bayes ("nb"). Distance- and margin-based families
(knn, svm) are fit on standardized features and carry their scaler inside
the trained model; rf and nb work on raw features. One raw output per batch
(svm margin, knn or rf vote counts, nb log posterior) yields both the
prediction and the positive-class score (class index 1): signed margin for
svm, neighbor or tree-vote fraction for knn and rf, posterior probability
for nb. Prediction never re-thresholds the score; each family applies its
own vote, sign, or argmax rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from ..data import Dataset, FoldAssignment, ScalerParams, apply_scaler, fit_scaler
from ..errors import DataError, PipelineError
from ..rng import STAGE_SPEC, derive_seed
from .bayes import NbModel, fit_nb, nb_log_posterior, nb_posterior
from .forest import ForestModel, TreeNodes, fit_forest, fit_forests, forest_votes
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
    "decide_batch",
    "specs_from_config",
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
    lower bound: an int may equal it (and is at most ``sys.maxsize``), a float
    must be finite and exceed it.
    ``scaled`` families are fit on standardized features. ``fit`` takes
    ``(X, y, n_classes, hyperparameters, seed)`` and returns the family's
    parameters; ``raw`` takes ``(params, X, scaler, hyperparameters)``, X
    unscaled, and ``decide`` turns ``(params, raw output, hyperparameters)``
    into (predictions, scores); ``n_features`` reads the feature count off params.
    ``record`` is the params' dataclass, written to model files; knn has None.
    ``fit_subsets``, which only an unscaled family may have, takes ``(X, y,
    row subsets, n_classes, hyperparameters, seed)`` and fits them all at once
    into one params record (see :func:`fit`), which ``split`` cuts into each
    subset's own, given their number.
    """

    defaults: dict
    minimums: dict
    scaled: bool
    fit: Callable
    raw: Callable
    decide: Callable
    n_features: Callable
    record: type | None
    fit_subsets: Callable | None = None
    split: Callable | None = None


REGISTRY = {
    "svm": Family(
        defaults={"reg_lambda": 1e-4, "epochs": 50},
        # a smaller lambda makes Pegasos' first step size 1 / lambda infinite
        minimums={"reg_lambda": 1 / sys.float_info.max, "epochs": 1},
        scaled=True,
        fit=lambda X, y, n_classes, hp, seed: fit_svm(
            X, y, n_classes, hp["reg_lambda"], hp["epochs"], seed
        ),
        raw=lambda p, X, s, hp: svm_margin(p, X, s),
        decide=lambda p, r, hp: ((r > 0).astype(np.int64), r),
        n_features=lambda p: p.weights.shape[0],
        record=SvmModel,
    ),
    "knn": Family(
        defaults={"n_neighbors": 8},
        minimums={"n_neighbors": 1},
        scaled=True,
        fit=lambda X, y, n_classes, hp, seed: fit_knn(X, y, n_classes, hp["n_neighbors"]),
        raw=lambda p, X, s, hp: knn_vote(p, X, hp["n_neighbors"], s),
        decide=lambda p, r, hp: (r[0], r[1][:, 1] / float(hp["n_neighbors"])),
        n_features=lambda p: p.points.shape[1],
        record=None,
    ),
    "rf": Family(
        defaults={"n_trees": 100, "max_depth": 16, "min_split": 2},
        minimums={"n_trees": 1, "max_depth": 0, "min_split": 2},
        scaled=False,
        fit=lambda X, y, n_classes, hp, seed: fit_forest(
            X, y, n_classes, hp["n_trees"], hp["max_depth"], hp["min_split"], seed
        ),
        raw=lambda p, X, s, hp: forest_votes(p, X),
        decide=lambda p, r, hp: (np.argmax(r, axis=1), r[:, 1] / float(len(p.trees))),
        n_features=lambda p: p.n_features,
        record=ForestModel,
        fit_subsets=lambda X, y, subsets, n_classes, hp, seed: fit_forests(
            X, y, subsets, n_classes, hp["n_trees"], hp["max_depth"], hp["min_split"], seed
        ),
        split=lambda p, n: [replace(p, trees=p.trees[i : i + len(p.trees) // n])
                            for i in range(0, len(p.trees), len(p.trees) // n)],
    ),
    "nb": Family(
        defaults={"var_smoothing": 1e-9},
        minimums={"var_smoothing": 0.0},
        scaled=False,
        fit=lambda X, y, n_classes, hp, seed: fit_nb(X, y, n_classes, hp["var_smoothing"]),
        raw=lambda p, X, s, hp: nb_log_posterior(p, X),
        decide=lambda p, r, hp: (np.argmax(r, axis=1), nb_posterior(r)[:, 1]),
        n_features=lambda p: p.means.shape[1],
        record=NbModel,
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
            if expected is int and value > sys.maxsize:
                raise PipelineError(f"{self.kind}: {name} must be <= {sys.maxsize}")
            if expected is float and not (math.isfinite(value) and value > low):
                raise PipelineError(f"{self.kind}: {name} must be finite and > {low}")
        object.__setattr__(self, "hyperparameters", merged)

    def to_json_dict(self) -> dict:
        return asdict(self)


def specs_from_config(entries, seed: int = 0) -> tuple[ClassifierSpec, ...]:
    """Specs from config entries ``{kind, hyperparameters?, seed?}``; entry
    ``i`` without a seed gets ``derive_seed(seed, STAGE_SPEC, i)``."""
    if not isinstance(entries, list) or not entries:
        raise PipelineError("config 'specs' must be a non-empty list")
    specs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise PipelineError(f"config specs[{i}] needs at least a 'kind'")
        unknown = set(entry) - {"kind", "hyperparameters", "seed"}
        if unknown:
            raise PipelineError(f"config specs[{i}] has unknown keys {sorted(unknown)}")
        entry_seed = entry.get("seed", derive_seed(seed, STAGE_SPEC, i))
        try:
            specs.append(ClassifierSpec(
                entry["kind"], entry.get("hyperparameters", {}), seed=entry_seed
            ))
        except PipelineError as exc:
            raise PipelineError(f"config specs[{i}]: {exc}") from exc
    return tuple(specs)


def default_specs(seed: int = 0) -> tuple[ClassifierSpec, ...]:
    """Every family with default hyperparameters and derived seeds."""
    return specs_from_config([{"kind": kind} for kind in FAMILIES], seed)


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


def fit(spec: ClassifierSpec, train: Dataset, origin: str, subsets=None) -> TrainedModel:
    """Train one classifier; deterministic for a fixed spec seed.

    With ``subsets``, a sequence of strictly ascending row-index arrays of
    ``train`` (rf only), the model holds each subset's ``n_trees`` trees in
    turn, each equal to a tree of ``fit(spec, train.select(subset), origin)``;
    they are grown together from one sort of ``train``.

    Raises PipelineError when the training set (or a subset) holds a single
    class, and for knn when it holds fewer than k samples.
    """
    if train.labels is None:
        raise DataError("fit requires a labeled dataset")
    family = REGISTRY[spec.kind]
    parts = [train.labels]
    if subsets is not None:
        if family.fit_subsets is None:
            raise PipelineError(f"{spec.kind} fits one row subset per call")
        subsets = [np.asarray(rows) for rows in subsets]
        if not subsets or not all(_ascending_rows(rows, train.n_rows) for rows in subsets):
            raise PipelineError("subsets must be non-empty, strictly ascending row indices")
        parts = [train.labels[rows] for rows in subsets]
    if any(np.unique(labels).size < 2 for labels in parts):
        raise PipelineError(
            f"training set for {spec.kind} contains a single class"
        )
    scaler = None
    fit_data = train
    if family.scaled:
        scaler = fit_scaler(train)
        fit_data = apply_scaler(train, scaler)
    X, y, n_classes = fit_data.features, fit_data.labels, len(train.class_names)
    if subsets is None:
        params = family.fit(X, y, n_classes, spec.hyperparameters, spec.seed)
    else:
        params = family.fit_subsets(X, y, subsets, n_classes, spec.hyperparameters, spec.seed)
    return TrainedModel(spec, params, train.class_names, scaler, origin)


def fold_fits(spec: ClassifierSpec, train: Dataset, assignment: FoldAssignment):
    """Yield ``(folds, data, subsets)`` for each fit of a k-fold race on ``train``:
    ``fold_models(fit(spec, data, origin, subsets), len(folds))`` are the models of
    ``folds``. A family with ``fit_subsets`` (rf) grows two folds per fit from one
    sort of ``train``, so a pair pays its growth steps' fixed numpy cost once."""
    width = 2 if REGISTRY[spec.kind].fit_subsets else 1
    for first in range(0, assignment.k, width):
        folds = range(first, min(first + width, assignment.k))
        if width == 1:
            yield folds, train.select(assignment.train_indices(first)), None
        else:
            yield folds, train, [assignment.train_indices(fold) for fold in folds]


def fold_models(model: TrainedModel, n: int) -> list[TrainedModel]:
    """Each subset's own model from a :func:`fit` of ``n`` subsets; ``[model]`` for one."""
    if n == 1:
        return [model]
    return [replace(model, params=p) for p in REGISTRY[model.spec.kind].split(model.params, n)]


def _ascending_rows(rows, n_rows) -> bool:
    return (rows.ndim == 1 and rows.dtype.kind in "iu" and rows.size > 0
            and 0 <= rows[0] and rows[-1] < n_rows and bool((rows[1:] > rows[:-1]).all()))


def _prepare_rows(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DataError("expected a 2-D batch of feature rows")
    if rows.shape[1] != model.n_features:
        raise DataError(
            f"feature count mismatch: model expects {model.n_features}, "
            f"got {rows.shape[1]}"
        )
    return rows


def decide_batch(model: TrainedModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(predict_batch, score_batch)`` from one evaluation of the raw output."""
    X = _prepare_rows(model, rows)
    family, hp = REGISTRY[model.spec.kind], model.spec.hyperparameters
    return family.decide(model.params, family.raw(model.params, X, model.scaler, hp), hp)


def predict_batch(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    """Class index per row; output order equals input order."""
    return decide_batch(model, rows)[0]


def score_batch(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    """Positive-class (index 1) score per row, monotone toward class 1."""
    return decide_batch(model, rows)[1]


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
