"""The mimic-learning pipeline: teacher on private rows, student on public.

Stages, each callable on its own or together through :func:`run_pipeline`:

1. stratified three-way split (private / public pool / held-out test),
2. teacher selection -- every registered classifier runs stratified k-fold
   cross-validation on the private partition and the best one is refit on
   all of it,
3. annotation -- the teacher hard-labels the unlabeled public pool,
4. student selection -- the same race, run on the annotated pool,
5. fidelity -- teacher and student are compared on the held-out test rows.

Everything downstream of the master seed is deterministic, so serialized
runs are reproducible byte for byte.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, fields

import numpy as np

from .classifiers import (
    ORIGIN_STUDENT,
    ORIGIN_TEACHER,
    ClassifierSpec,
    TrainedModel,
    decide_batch,
    default_specs,
    fit,
    fold_fits,
    fold_models,
    predict_batch,
    score_batch,  # noqa: F401 -- kept bound: perfbench/spans.py wraps it by name
    specs_from_config,
)
from .data import Dataset, SplitSpec, kfold, stratified_split
from .errors import DataError, PipelineError
from .metrics import MetricsReport, RocCurve, left_sum, macro_metrics, positive_metrics, roc
from .rng import STAGE_FOLDS, STAGE_SPLIT, derive_seed

SELECTION_METRICS = ("accuracy", "macro_f1")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs besides the data itself.

    ``specs`` are ClassifierSpecs, ``seed`` and ``cv_k`` ints (never bools)
    and ``fractions`` three floats; a wrongly typed value raises
    PipelineError.
    """

    specs: tuple[ClassifierSpec, ...]
    seed: int = 0
    fractions: tuple[float, float, float] = SplitSpec().fractions
    cv_k: int = 10
    selection_metric: str = "accuracy"

    def __post_init__(self):
        if not self.specs:
            raise PipelineError("config needs at least one classifier spec")
        object.__setattr__(self, "specs", tuple(self.specs))
        if not all(isinstance(s, ClassifierSpec) for s in self.specs):
            raise PipelineError("specs must be ClassifierSpec objects")
        for name in ("seed", "cv_k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise PipelineError(f"{name} must be an integer")
        # a valid fraction lies in (0, 1), so it is never an int
        f = self.fractions
        if not (isinstance(f, (list, tuple)) and len(f) == 3
                and all(isinstance(x, float) for x in f)):
            raise PipelineError("fractions must be a list of three floats")
        object.__setattr__(self, "fractions", tuple(f))
        SplitSpec(*self.fractions)  # validates the fractions
        if self.cv_k < 2:
            raise PipelineError("cv_k must be at least 2")
        if self.selection_metric not in SELECTION_METRICS:
            raise PipelineError(
                f"selection_metric must be one of {SELECTION_METRICS}"
            )

    @classmethod
    def from_json_dict(cls, raw: dict, seed: int = 0) -> PipelineConfig:
        """The config a config-file object describes: any of ``specs``,
        ``cv_k``, ``selection_metric`` and ``fractions``, absent keys taking
        the defaults. ``to_json_dict`` without ``seed`` reads back equal."""
        allowed = {f.name for f in fields(cls)} - {"seed"}
        unknown = set(raw) - allowed
        if unknown:
            raise PipelineError(
                f"unknown config keys {reprlib.repr(sorted(unknown))}; allowed: {sorted(allowed)}"
            )
        specs = (specs_from_config(raw["specs"], seed) if "specs" in raw
                 else default_specs(seed))
        return cls(**{**raw, "specs": specs, "seed": seed})

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "fractions": list(self.fractions),
            "cv_k": self.cv_k,
            "selection_metric": self.selection_metric,
            "specs": [s.to_json_dict() for s in self.specs],
        }


@dataclass(frozen=True)
class CvReport:
    """Cross-validation outcome for one spec."""

    spec: ClassifierSpec
    fold_accuracies: tuple[float, ...]
    fold_macro_f1: tuple[float, ...]

    @property
    def mean_accuracy(self) -> float:
        return left_sum(self.fold_accuracies) / len(self.fold_accuracies)

    @property
    def mean_macro_f1(self) -> float:
        return left_sum(self.fold_macro_f1) / len(self.fold_macro_f1)

    def mean(self, metric: str) -> float:
        """Mean over folds of a selection metric from SELECTION_METRICS."""
        return self.mean_accuracy if metric == "accuracy" else self.mean_macro_f1

    def to_json_dict(self) -> dict:
        return {
            **self.spec.to_json_dict(),
            "fold_accuracies": list(self.fold_accuracies),
            "mean_accuracy": self.mean_accuracy,
            "fold_macro_f1": list(self.fold_macro_f1),
            "mean_macro_f1": self.mean_macro_f1,
        }


@dataclass(frozen=True)
class RaceResult:
    """All CV reports and the selection metric that picks the winner.

    Ties on the selection metric fall back to mean macro-F1, then to the
    earlier entry.
    """

    reports: tuple[CvReport, ...]
    selection_metric: str

    @property
    def winner_index(self) -> int:
        return max(range(len(self.reports)), key=lambda i: (
            self.reports[i].mean(self.selection_metric), self.reports[i].mean_macro_f1, -i))

    @property
    def winner(self) -> CvReport:
        return self.reports[self.winner_index]

    def to_json_dict(self) -> dict:
        return {
            "selection_metric": self.selection_metric,
            "winner_index": self.winner_index,
            "winner_kind": self.winner.spec.kind,
            "entries": [r.to_json_dict() for r in self.reports],
        }


@dataclass(frozen=True)
class FidelityReport:
    """How faithfully the student mimics the teacher on held-out rows.

    ``agreement`` is the fraction of test rows where the two models emit the
    same label, regardless of the true one. ``deltas`` holds teacher-minus-
    student differences for the headline metrics, AUC included.
    """

    teacher_metrics: MetricsReport
    student_metrics: MetricsReport
    teacher_macro: MetricsReport
    student_macro: MetricsReport
    teacher_roc: RocCurve
    student_roc: RocCurve
    agreement: float

    @property
    def n_test(self) -> int:
        return self.teacher_metrics.n

    @property
    def deltas(self) -> dict:
        t, s = self.teacher_metrics, self.student_metrics
        return {"accuracy": t.accuracy - s.accuracy, "precision": t.precision - s.precision,
                "recall": t.recall - s.recall, "f1": t.f1 - s.f1,
                "auc": self.teacher_auc - self.student_auc}

    @property
    def teacher_auc(self) -> float:
        return self.teacher_roc.auc

    @property
    def student_auc(self) -> float:
        return self.student_roc.auc

    def to_json_dict(self) -> dict:
        return {
            "n_test": self.n_test,
            "agreement": self.agreement,
            "teacher": {
                "positive": self.teacher_metrics.to_json_dict(),
                "macro": self.teacher_macro.to_json_dict(),
                "auc": self.teacher_auc,
            },
            "student": {
                "positive": self.student_metrics.to_json_dict(),
                "macro": self.student_macro.to_json_dict(),
                "auc": self.student_auc,
            },
            "deltas": dict(sorted(self.deltas.items())),
            "teacher_roc": self.teacher_roc.to_json_dict(),
            "student_roc": self.student_roc.to_json_dict(),
        }


@dataclass(frozen=True)
class PipelineRun:
    """Complete record of one end-to-end run.

    The two models are in-memory only; ``to_json_dict`` reflects everything
    derived from the seed and nothing else, so two runs of the same config
    serialize identically.
    """

    config: PipelineConfig
    row_ids: dict
    teacher_race: RaceResult
    student_race: RaceResult
    annotation_counts: tuple[int, ...]
    fidelity: FidelityReport
    teacher: TrainedModel
    student: TrainedModel

    @property
    def part_counts(self) -> dict:
        ids = self.row_ids
        return {"private": len(ids["private"]), "public_pool": len(ids["public"]),
                "test": len(ids["test"])}

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "split": {
                "counts": dict(sorted(self.part_counts.items())),
                "row_ids": {k: list(v) for k, v in sorted(self.row_ids.items())},
            },
            "teacher_race": self.teacher_race.to_json_dict(),
            "student_race": self.student_race.to_json_dict(),
            "annotation": {
                "teacher_kind": self.teacher.spec.kind,
                "label_counts": list(self.annotation_counts),
            },
            "fidelity": self.fidelity.to_json_dict(),
        }


def run_json(run: PipelineRun) -> str:
    return json.dumps(run.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _cross_validate(spec, train_set, assignment):
    n_classes = len(train_set.class_names)
    accs, f1s = [], []
    for folds, data, subsets in fold_fits(spec, train_set, assignment):
        models = fold_models(fit(spec, data, ORIGIN_TEACHER, subsets), len(folds))
        for fold, model in zip(folds, models):
            eval_part = train_set.select(assignment.test_indices(fold))
            pred = predict_batch(model, eval_part.features)
            report = macro_metrics(eval_part.labels, pred, n_classes)
            accs.append(report.accuracy)
            f1s.append(report.f1)
        del models, model  # before the next fit
    return CvReport(spec=spec, fold_accuracies=tuple(accs), fold_macro_f1=tuple(f1s))


def _select(
    train_set: Dataset, config: PipelineConfig, origin: str
) -> tuple[TrainedModel, RaceResult]:
    """Cross-validate every spec on ``train_set``, pick the best, and refit
    it on all of ``train_set`` as an ``origin`` model."""
    if train_set.labels is None:
        raise DataError("model selection requires labeled data")
    assignment = kfold(train_set, config.cv_k, derive_seed(config.seed, STAGE_FOLDS))
    reports = tuple(_cross_validate(spec, train_set, assignment) for spec in config.specs)
    race = RaceResult(reports, config.selection_metric)
    return fit(race.winner.spec, train_set, origin), race


def train_teacher(
    private: Dataset, config: PipelineConfig
) -> tuple[TrainedModel, RaceResult]:
    """Select by cross-validation on the private partition, refit on all of it."""
    return _select(private, config, ORIGIN_TEACHER)


def annotate(teacher: TrainedModel, pool: Dataset) -> Dataset:
    """The unlabeled pool labeled with the teacher's predictions and classes.

    Refuses pools that already carry labels: real labels must never be
    silently overwritten, and the annotated pool must contain nothing the
    teacher didn't put there.
    """
    if teacher.origin != ORIGIN_TEACHER:
        raise PipelineError(
            f"annotation requires a {ORIGIN_TEACHER} model, got {teacher.origin!r}"
        )
    if pool.labels is not None:
        raise PipelineError("annotation pool must be unlabeled")
    return pool._sharing(labels=predict_batch(teacher, pool.features),
                         class_names=teacher.class_names)


def train_student(
    annotated: Dataset, config: PipelineConfig
) -> tuple[TrainedModel, RaceResult]:
    """Run the same selection race on the annotated pool.

    The fold assignment seed is derived exactly as in the teacher race, so a
    student trained on perfectly-annotated rows coincides with a teacher
    trained on those same rows.
    """
    if annotated.labels is not None and np.unique(annotated.labels).size < 2:
        raise PipelineError(
            "teacher annotated the whole pool with one class; "
            "no student can be trained from it"
        )
    return _select(annotated, config, ORIGIN_STUDENT)


def evaluate_fidelity(
    teacher: TrainedModel, student: TrainedModel, test: Dataset
) -> FidelityReport:
    """Score both models against ground truth and against each other."""
    if test.labels is None:
        raise DataError("fidelity evaluation requires a labeled test set")
    if teacher.n_classes != 2 or student.n_classes != 2:
        raise PipelineError("fidelity evaluation is defined for binary models")
    y = test.labels
    t_pred, t_scores = decide_batch(teacher, test.features)
    s_pred, s_scores = decide_batch(student, test.features)

    return FidelityReport(
        teacher_metrics=positive_metrics(y, t_pred),
        student_metrics=positive_metrics(y, s_pred),
        teacher_macro=macro_metrics(y, t_pred, 2),
        student_macro=macro_metrics(y, s_pred, 2),
        teacher_roc=roc(t_scores, y),
        student_roc=roc(s_scores, y),
        agreement=float(np.mean(t_pred == s_pred)),
    )


def run_pipeline(dataset: Dataset, config: PipelineConfig) -> PipelineRun:
    """Split, select a teacher, annotate, select a student, compare."""
    if dataset.labels is None:
        raise DataError("run_pipeline requires a labeled dataset")
    if len(dataset.class_names) != 2:
        raise PipelineError(
            "the pipeline is defined for binary labels; "
            "the metrics functions alone handle more classes"
        )
    spec = SplitSpec(*config.fractions, seed=derive_seed(config.seed, STAGE_SPLIT))
    split = stratified_split(dataset, spec)
    teacher, teacher_race = train_teacher(split.private, config)
    annotated = annotate(teacher, split.public_pool)
    student, student_race = train_student(annotated, config)
    fidelity = evaluate_fidelity(teacher, student, split.test)
    return PipelineRun(
        config=config,
        row_ids={k: [int(i) for i in v] for k, v in split.row_ids.items()},
        teacher_race=teacher_race,
        student_race=student_race,
        annotation_counts=tuple(
            np.bincount(annotated.labels, minlength=len(annotated.class_names)).tolist()
        ),
        fidelity=fidelity,
        teacher=teacher,
        student=student,
    )
