"""Confusion counts, accuracy/precision/recall/F1, ROC curves and AUC.

Zero denominators never raise: the affected metric is defined as 0 and the
report carries a flag naming it. ROC thresholds sweep the distinct scores in
descending order with ties grouped, the convention under which trapezoidal
AUC equals the pairwise ranking statistic with half credit for ties.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class ClassMetrics:
    class_index: int
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    """Headline metrics under one averaging scheme plus per-class detail.

    ``averaging`` is "macro" (equal-weight mean over one-vs-rest classes) or
    "positive" (the positive class alone). ``zero_denominator`` names the
    metrics that were defined as 0 because their denominator vanished.
    """

    n: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    averaging: str
    per_class: tuple[ClassMetrics, ...] | None = None
    zero_denominator: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        """Every field, tuples as lists; a positive report has no ``per_class``."""
        return asdict(self, dict_factory=lambda items: {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in items if value is not None
        })


@dataclass(frozen=True)
class RocCurve:
    """Ordered (fpr, tpr, threshold) points from (0,0) to (1,1), plus AUC."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float

    def points(self) -> list[tuple[float, float, float]]:
        return [
            (float(f), float(t), float(th))
            for f, t, th in zip(self.fpr, self.tpr, self.thresholds)
        ]

    def to_json_dict(self) -> dict:
        return {
            "auc": self.auc,
            "points": [
                {"fpr": p[0], "tpr": p[1], "threshold": p[2]} for p in self.points()
            ],
        }

    def to_csv_text(self) -> str:
        lines = ["threshold,fpr,tpr"]
        for f, t, th in self.points():
            lines.append(f"{th!r},{f!r},{t!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ModelReport:
    """One model scored on labelled rows: the positive-class and macro
    reports, and the ROC curve, which is None for a model of more than two
    classes."""

    positive: MetricsReport
    macro: MetricsReport
    roc: RocCurve | None

    def to_json_dict(self) -> dict:
        """``positive`` and ``macro``, plus ``auc`` when there is a curve."""
        block = {"positive": self.positive.to_json_dict(), "macro": self.macro.to_json_dict()}
        if self.roc is not None:
            block["auc"] = self.roc.auc
        return block


def left_sum(values) -> float:
    """Add floats left to right from 0.0, as ``sum()`` does up to Python 3.11.

    From 3.12 on, ``sum()`` compensates float sums (Neumaier), which can move
    the last bit of a mean written to ``run.json`` or picking a race winner.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _check_pair(y_true, y_pred):
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError("y_true and y_pred must be 1-D and the same length")
    if y_true.size == 0:
        raise ValueError("cannot evaluate an empty prediction set")
    return y_true, y_pred


def confusion(y_true, y_pred, positive: int) -> ConfusionMatrix:
    """One-vs-rest contingency counts for the given positive class index."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    pos_true = y_true == positive
    pos_pred = y_pred == positive
    return ConfusionMatrix(
        tp=int(np.sum(pos_true & pos_pred)),
        fp=int(np.sum(~pos_true & pos_pred)),
        tn=int(np.sum(~pos_true & ~pos_pred)),
        fn=int(np.sum(pos_true & ~pos_pred)),
    )


def accuracy(c: ConfusionMatrix) -> float:
    if c.total == 0:
        raise ValueError("accuracy of an empty confusion matrix")
    return (c.tp + c.tn) / c.total


def precision(c: ConfusionMatrix) -> float:
    denom = c.tp + c.fp
    return c.tp / denom if denom else 0.0


def recall(c: ConfusionMatrix) -> float:
    denom = c.tp + c.fn
    return c.tp / denom if denom else 0.0


def _harmonic(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r else 0.0


def f1(c: ConfusionMatrix) -> float:
    return _harmonic(precision(c), recall(c))


def _class_metrics(c: ConfusionMatrix, index: int, flags: list) -> ClassMetrics:
    """One class's precision, recall and f1; appends to ``flags`` the names
    of those defined as 0 because their denominator vanished."""
    p, r = precision(c), recall(c)
    for name, denom in (("precision", c.tp + c.fp), ("recall", c.tp + c.fn),
                        ("f1", p + r)):
        if denom == 0:
            flags.append(name)
    return ClassMetrics(class_index=index, precision=p, recall=r,
                        f1=_harmonic(p, r), support=c.tp + c.fn)


def positive_metrics(y_true, y_pred) -> MetricsReport:
    """Report for the positive class (index 1) alone."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    c = confusion(y_true, y_pred, 1)
    flags = []
    m = _class_metrics(c, 1, flags)
    return MetricsReport(
        n=c.total,
        accuracy=accuracy(c),
        precision=m.precision,
        recall=m.recall,
        f1=m.f1,
        averaging="positive",
        zero_denominator=tuple(flags),
    )


def macro_metrics(y_true, y_pred, n_classes: int) -> MetricsReport:
    """Equal-weight one-vs-rest average over all classes.

    The report-level f1 is the harmonic mean of the macro precision and
    macro recall; per_class carries each class's own precision/recall/f1.
    """
    y_true, y_pred = _check_pair(y_true, y_pred)
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    flags = []
    per_class = [
        _class_metrics(confusion(y_true, y_pred, c_idx), c_idx, flags)
        for c_idx in range(n_classes)
    ]
    macro_p = left_sum(c.precision for c in per_class) / n_classes
    macro_r = left_sum(c.recall for c in per_class) / n_classes
    acc = float(np.mean(y_true == y_pred))
    return MetricsReport(
        n=y_true.size,
        accuracy=acc,
        precision=macro_p,
        recall=macro_r,
        f1=_harmonic(macro_p, macro_r),
        averaging="macro",
        per_class=tuple(per_class),
        zero_denominator=tuple(sorted(set(flags))),
    )


def roc(scores, y_true) -> RocCurve:
    """ROC curve of class 1 over descending distinct score thresholds, ties grouped.

    Raises ValueError unless both positive and negative samples are present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.int64)
    if scores.shape != y_true.shape or scores.ndim != 1:
        raise ValueError("scores and y_true must be 1-D and the same length")
    is_pos = y_true == 1
    n_pos = int(is_pos.sum())
    n_neg = int(y_true.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc requires both classes present")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = is_pos[order].astype(np.int64)
    # indices where a threshold group ends (last occurrence of each value)
    last_of_group = np.nonzero(
        np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    )[0]
    tp = np.cumsum(sorted_pos)[last_of_group]
    fp = (last_of_group + 1) - tp
    fpr = np.concatenate([[0.0], fp / n_neg])
    tpr = np.concatenate([[0.0], tp / n_pos])
    thresholds = np.concatenate([[math.inf], sorted_scores[last_of_group]])
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1])) / 2.0)
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds, auc=auc)
