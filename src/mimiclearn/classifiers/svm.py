"""Linear SVM trained by Pegasos-style stochastic subgradient descent.

Hinge loss with L2 regularization, learning rate 1/(lambda*t), and the
optional projection onto the ball of radius 1/sqrt(lambda) from the original
algorithm (it tames the huge early steps at small lambda). The bias rides
along as an implicit constant-one feature, so it is regularized with the
rest of the weight vector. Epoch shuffles come from one seeded generator,
making training deterministic. Binary only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import PipelineError
from ..rng import STAGE_SGD, derive_seed, generator


@dataclass(frozen=True)
class SvmModel:
    weights: np.ndarray
    bias: float


def fit_svm(X, y, n_classes, reg_lambda, epochs, seed) -> SvmModel:
    """Fit on rows X with 0/1 labels y."""
    if n_classes != 2:
        raise PipelineError(
            f"linear svm supports exactly 2 classes, got {n_classes}"
        )
    n, d = X.shape
    y_signed = (2 * y - 1).astype(np.float64)
    w = np.zeros(d)
    b = 0.0
    radius = 1.0 / math.sqrt(reg_lambda)
    rng = generator(derive_seed(seed, STAGE_SGD))
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (reg_lambda * t)
            margin = y_signed[i] * (X[i] @ w + b)
            shrink = 1.0 - 1.0 / t  # == 1 - eta*reg_lambda
            w *= shrink
            b *= shrink
            if margin < 1.0:
                w += (eta * y_signed[i]) * X[i]
                b += eta * y_signed[i]
            norm = math.sqrt(w @ w + b * b)
            if norm > radius:
                scale = radius / norm
                w *= scale
                b *= scale
    return SvmModel(weights=w, bias=b)


def svm_margin(model: SvmModel, X: np.ndarray) -> np.ndarray:
    return X @ model.weights + model.bias
