"""Linear SVM trained by Pegasos-style stochastic subgradient descent.

Hinge loss with L2 regularization, learning rate 1/(lambda*t), and the
optional projection onto the ball of radius 1/sqrt(lambda) from the original
algorithm (it tames the huge early steps at small lambda). The bias rides
along as an implicit constant-one feature, so it is regularized with the
rest of the weight vector. Epoch shuffles come from one seeded generator,
making training deterministic. Binary only.

The weights are the same bytes on every IEEE-754 host. Training runs on
Python floats with plain products and sums, which CPython never fuses. Each
hinge is the one ``math.fsum``'s correctly rounded dot product (Shewchuk's
exact summation) picks; ``fsum`` also sums the squared norm, but only when
a running bound on ``||(w, b)||`` cannot rule the projection out. BLAS, whose
kernels sum in CPU-dependent orders, some with fused multiply-adds, is not
used. The epochs run in a function compiled once per feature count d from
``_epochs_source(d)``, as interpreter work, not the arithmetic, is their
cost: each weight is a local variable, each row one tuple ``(x0, ..., sign,
length, tol)``, the step counter a float (exact below 2**53 steps), and no
builtin is called per step. The margin adds the products left to right, at
most 100 to a statement, the same sum on every Python version (the builtin
``sum()`` compensates from 3.12 on), and only picks a hinge where a bound
shows ``fsum`` picks the same. ``svm_margin`` adds the columns one at a time
in a fixed order with numpy elementwise operations, which do not fuse,
starting from +0.0 so that no margin is a negative zero; a row far outside
the training scale, whose margin overflows, is taken again scaled by a
power of two.

Neither skip changes a byte (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 2-4). A skipped norm could not have fired: each hinge step
adds ``|c| * length >= |c| * ||(x_i, 1)||`` to the bound, and a skip
needs it below the radius with margins. ``_SLACK`` covers a dozen roundings
of 2**-53 per step and per norm, ``_TINY`` subnormal products, ``_FLOOR``
subnormal squares (at most sqrt((d + 1) * 2**-1075) on a norm), and ``_CAP``
the overflow, which raises, of a skipped ``fsum`` of squares. The plain sum
errs on ``fsum``'s products by at most gamma_{d-1} = (d - 1) u / (1 - (d - 1) u)
times their magnitudes' sum, u = 2**-53, and by Cauchy-Schwarz that sum is
under ``length * bound``; the row's ``tol`` takes 4 (d + 2) u of it, and
``_NEAR`` the rounding of ``fsum``, ``+ b`` and 1's neighbours. A margin
nearer 1, a NaN, and a row over ``_WIDE`` (whose margin could overflow: the
bound is under 1/sqrt(5e-324) < 2**538) take ``fsum``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import PipelineError
from ..rng import STAGE_SGD, derive_seed, generator

_SLACK = 1.0 + 1e-12
_TINY = 1e-300
_FLOOR = 1e-150
_CAP = 2.0**500
_NEAR = 2.0**-50
_WIDE = 2.0**480

# Pegasos' steps over each epoch's order of indices into ``packed``. {w}, {x},
# {xw}, {ww} and {dot} list the weights, features, products, squared weights
# and the margin's blocks of 100 products; a {j} line is written per feature j.
_EPOCHS = """\
def epochs(packed, orders, reg_lambda, radius, limit):
    w{j} = 0.0
    b = 0.0
    bound = 0.0  # >= ||(w, b)||
    t = 0.0
    for order in orders:
        for {x}s, length, tol in map(packed.__getitem__, order):
            t += 1.0
            m = 0.0{dot}
            margin = s * (m + b)
            e = margin - 1.0
            g = tol * bound + _NEAR
            if not (e > g or -e > g):  # not abs(e) > g, NaN included
                margin = s * (math.fsum(({xw})) + b)
            shrink = 1.0 - 1.0 / t  # == 1 - eta*reg_lambda
            if margin < 1.0:
                eta = 1.0 / (reg_lambda * t)
                c = eta * s  # eta * y_i, so abs(c) == eta
                w{j} = w{j} * shrink + c * x{j}
                b = b * shrink + c
                bound = (bound * shrink + eta * length) * _SLACK + _TINY
            else:
                w{j} = w{j} * shrink
                b *= shrink
                bound = bound * shrink * _SLACK + _TINY
            if not bound * _SLACK + _FLOOR <= limit:
                norm = math.sqrt(math.fsum(({ww})) + b * b)
                if norm > radius:
                    scale = radius / norm
                    w{j} = w{j} * scale
                    b *= scale
                bound = min(norm, radius) * _SLACK + _TINY
    return [{w}], b
"""


def _epochs_source(d: int) -> str:
    """``_EPOCHS`` for d features. The margin is one statement per block of at
    most 100 products, added left to right from ``m = 0.0``: as a single
    expression, thousands of terms raise ``RecursionError`` in the compiler."""
    terms = [f" + x{j} * w{j}" for j in range(d)]
    lists = {"w": ", ".join(f"w{j}" for j in range(d)),
             "x": "".join(f"x{j}, " for j in range(d)),
             "xw": "".join(f"x{j} * w{j}, " for j in range(d)),
             "ww": "".join(f"w{j} * w{j}, " for j in range(d)),
             "dot": "\n            m = m".join("".join(terms[k:k + 100])
                                             for k in range(0, d, 100))}
    return "".join("".join(line.format(j=j) for j in range(d)) if "{j}" in line
                   else line.format(**lists) for line in _EPOCHS.splitlines(keepends=True))


@functools.cache
def _epochs(d: int):
    """The compiled ``_epochs_source(d)``, reading ``math`` and the constants
    from this module at call time."""
    namespace = {}
    exec(compile(_epochs_source(d), f"<svm epochs, {d} features>", "exec"), globals(), namespace)
    return namespace["epochs"]


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
    rows = X.tolist()
    signs = (2 * y - 1).astype(np.float64).tolist()
    radius = 1.0 / math.sqrt(reg_lambda)
    lengths = [math.hypot(*x, 1.0) * _SLACK for x in rows]
    tols = [4 * (d + 2) * 2.0**-53 * a if a < _WIDE else math.inf for a in lengths]
    packed = [(*x, s, a, tol) for x, s, a, tol in zip(rows, signs, lengths, tols)]
    rng = generator(derive_seed(seed, STAGE_SGD))
    orders = (rng.permutation(n).tolist() for _ in range(epochs))
    w, b = _epochs(d)(packed, orders, reg_lambda, radius, min(radius, _CAP))
    return SvmModel(weights=np.array(w, dtype=np.float64), bias=b)


def svm_margin(model: SvmModel, X: np.ndarray, scaler=None) -> np.ndarray:
    """``w . z + b`` for each row z of X, standardized by ``scaler`` if given. A
    margin that overflows, or meets inf - inf, is taken again from its row
    scaled by a power of two that brings every |z| under 1 (as ``fit_scaler``
    takes far sums) and scaled back, so it is finite or a signed infinity."""
    def margin(z, bias):
        out = np.zeros(z.shape[0])
        for j, wj in enumerate(model.weights.tolist()):
            out += z[:, j] * wj
        return out + bias

    means, stds = (0.0, 1.0) if scaler is None else (scaler.means, scaler.std_devs)
    with np.errstate(over="ignore", invalid="ignore"):
        out = margin(X if scaler is None else scaler.standardize(X), model.bias)
        far = np.flatnonzero(~np.isfinite(out))
        if far.size:  # |x - mean| / std < 2**exp in every column of the row
            exp = np.frexp(abs(X[far]) / 2 + abs(means) / 2)[1] + 2 - np.frexp(stds)[1]
            exp = exp.max(axis=1, keepdims=True)
            z = (np.ldexp(X[far], -exp) - np.ldexp(means, -exp)) / stds
            out[far] = np.ldexp(margin(z, np.ldexp(model.bias, -exp[:, 0])), exp[:, 0])
    return out
