"""Gaussian naive Bayes with variance smoothing.

Per-class, per-feature Gaussian likelihoods with priors from class
frequencies. Variances are clamped from below by
``var_smoothing * max(per-feature variance of the whole training set)``,
so degenerate constant features never produce a zero variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NbModel:
    priors: np.ndarray      # (n_classes,)
    means: np.ndarray       # (n_classes, n_features)
    variances: np.ndarray   # (n_classes, n_features), all >= epsilon
    epsilon: float


def fit_nb(X, y, n_classes, var_smoothing) -> NbModel:
    n, d = X.shape
    priors = np.bincount(y, minlength=n_classes).astype(np.float64) / n
    means = np.zeros((n_classes, d))
    variances = np.zeros((n_classes, d))
    for c in range(n_classes):
        rows = X[y == c]
        if rows.shape[0] == 0:
            continue
        means[c] = rows.mean(axis=0)
        variances[c] = rows.var(axis=0)
    max_var = float(X.var(axis=0).max()) if d else 0.0
    epsilon = var_smoothing * max_var if max_var > 0 else var_smoothing
    variances = np.maximum(variances, epsilon)
    return NbModel(priors=priors, means=means, variances=variances, epsilon=epsilon)


def nb_log_posterior(model: NbModel, X: np.ndarray) -> np.ndarray:
    """Unnormalized log posterior per class, shape (n_rows, n_classes)."""
    n_classes = model.priors.shape[0]
    out = np.empty((X.shape[0], n_classes))
    with np.errstate(divide="ignore"):  # zero priors for absent classes
        log_priors = np.log(model.priors)
    for c in range(n_classes):
        var = model.variances[c]
        log_lik = -0.5 * (
            np.log(2.0 * math.pi * var) + (X - model.means[c]) ** 2 / var
        ).sum(axis=1)
        out[:, c] = log_priors[c] + log_lik
    return out


def nb_posterior(lp: np.ndarray) -> np.ndarray:
    """Class posteriors from :func:`nb_log_posterior` via log-sum-exp."""
    peak = lp.max(axis=1, keepdims=True)
    expd = np.exp(lp - peak)
    return expd / expd.sum(axis=1, keepdims=True)
