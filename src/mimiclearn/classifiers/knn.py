"""k-nearest neighbors with Euclidean distance.

The model is just the stored training matrix and labels. Neighbor order
breaks distance ties by lower training-row index, as a stable sort of each
row's distances does. The k nearest are picked by partition and sorted by
index, then stably by distance; a row where a tie straddles the k-th
distance takes the full stable sort. A tied majority vote falls back to the
class of the single nearest neighbor. A row
whose squared distances overflow is taken again at a power-of-two scale, as
``svm_margin`` does: exact apart from underflow, so no other row moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PipelineError

DISTANCE_CELLS = 250_000  # per query chunk: its (chunk, n_train, d) differences take 2 MB


@dataclass(frozen=True)
class KnnModel:
    points: np.ndarray
    labels: np.ndarray
    n_classes: int


def fit_knn(X, y, n_classes, k) -> KnnModel:
    if X.shape[0] < k:
        raise PipelineError(
            f"knn needs at least k={k} training samples, got {X.shape[0]}"
        )
    return KnnModel(points=X.copy(), labels=y.copy(), n_classes=n_classes)


def _neighbor_labels(model: KnnModel, X: np.ndarray, k: int, scaler=None):
    """Labels of the k nearest training points per query, standardized by ``scaler``."""
    n_train, d = model.points.shape
    means, stds = (0.0, 1.0) if scaler is None else (scaler.means, scaler.std_devs)
    out = np.empty((X.shape[0], k), dtype=np.int64)
    chunk = max(1, DISTANCE_CELLS // max(1, n_train * d))
    for start in range(0, X.shape[0], chunk):
        x = X[start : start + chunk]
        q = x if scaler is None else scaler.standardize(x)
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = ((q[:, None, :] - model.points[None, :, :]) ** 2).sum(axis=2)
            far = np.flatnonzero(~np.isfinite(d2).all(axis=1))
            if far.size:  # scaled by 2**-exp, every |z| and |point| is under 1
                exp = np.frexp(abs(x[far]) / 2 + abs(means) / 2)[1] + 2 - np.frexp(stds)[1]
                exp = np.maximum(exp.max(axis=1), np.frexp(abs(model.points).max())[1])[:, None]
                z = (np.ldexp(x[far], -exp) - np.ldexp(means, -exp)) / stds
                d2[far] = ((z[:, None] - np.ldexp(model.points, -exp[:, :, None])) ** 2).sum(2)
        out[start : start + chunk] = model.labels[_nearest(d2, k)]
    return out


def _nearest(d2, k):
    """``np.argsort(d2, axis=1, kind="stable")[:, :k]``, from a partition in
    each row where exactly k distances are at most the k-th, the largest of
    the k picked (so not where a tie straddles it, nor where it is NaN)."""
    part = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)  # by index
    near = np.take_along_axis(d2, part, 1)
    order = np.take_along_axis(part, np.argsort(near, axis=1, kind="stable"), 1)
    slow = np.count_nonzero(d2 <= near.max(axis=1, keepdims=True), axis=1) != k
    order[slow] = np.argsort(d2[slow], axis=1, kind="stable")[:, :k]
    return order


def knn_vote(model: KnnModel, X: np.ndarray, k: int, scaler=None):
    """Majority vote over k neighbors; returns (predictions, vote_counts)."""
    neighbors = _neighbor_labels(model, X, k, scaler)
    counts = (neighbors[:, :, None] == np.arange(model.n_classes)).sum(axis=1)
    tied = (counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1
    preds = np.where(tied, neighbors[:, 0], counts.argmax(axis=1))
    return preds, counts
