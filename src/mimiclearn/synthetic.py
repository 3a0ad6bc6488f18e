"""Seeded generators for benchmark-shaped tabular datasets.

Each generator stands in for a published dataset when the real CSV is not on
disk, matching its row/column counts, label balance, and rough difficulty:

* ``breast_cancer_like`` -- 699 rows, 9 integer-valued features on a 1..10
  scale, ~35% positive, highly separable. The signal is deliberately
  heterogeneous: a subtype flag that flips the direction of two level
  columns, a variance-coded column (same mean per class, different spread),
  and a rare spike pattern where a slice of positives abandons the level
  structure and instead fires exactly one of two otherwise-quiet columns
  at a scattered high value. Two strongly correlated bimodal noise columns
  and one inert column round out the nine.
* ``heart_disease_like`` -- 303 rows, 13 mixed-scale features, ~46%
  positive, moderately separable with mild label noise.
* ``cardio_like`` -- 1400 rows, 11 features, balanced classes, low
  separability. The signal lives in two conditional blocks where an ordinal
  flag flips the direction of the block's continuous shifts, buried under
  label noise; models improve slowly with training-set size and top out
  well below the other two datasets.

Each generator draws from its own frozen seed (``BREAST_SEED``, ``HEART_SEED``,
``CARDIO_SEED``), so it returns the same rows every call, like a fixed file.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .rng import generator

BREAST_SEED = 986524
HEART_SEED = 55201
CARDIO_SEED = 77113


def breast_cancer_like() -> Dataset:
    rng = generator(BREAST_SEED)
    n = 699
    y = (rng.random(n) < 0.345).astype(np.int64)

    # a slice of positives carries no level/variance signal at all; those
    # rows are marked by the spike columns further down instead
    spiked = (y == 1) & (rng.random(n) < 0.21)
    y_struct = np.where(spiked, 0, y)

    cols = []
    # subtype flag: low/high bimodal, mildly class-correlated on its own
    sub = (rng.random(n) < np.where(y_struct == 1, 0.64, 0.36)).astype(np.int64)
    cols.append(rng.normal(3.0 + 4.9 * sub, 0.7))
    # two level columns whose direction depends on the subtype: subtype-1
    # positives sit high, subtype-0 positives sit low (negatives mirrored)
    hi_side = np.where(sub == 1, y_struct, 1 - y_struct)
    for _ in range(2):
        cols.append(rng.normal(np.where(hi_side == 1, 7.9, 3.1), 0.8))
    # variance-coded: class means agree, class-1 rows spread much wider
    cols.append(rng.normal(5.5, 0.9 + 1.6 * y_struct))
    # rare spikes: each marked positive fires exactly one of these two
    # columns at a scattered high value; the background is low and tight,
    # with a trickle of false fires among negatives
    which = rng.integers(0, 2, size=n)
    spike_val = rng.uniform(4.0, 10.0, size=n)
    for j in range(2):
        fires = (spiked & (which == j)) | ((y == 0) & (rng.random(n) < 0.006))
        cols.append(np.where(fires, spike_val, rng.normal(1.4, 0.6, size=n)))
    # correlated bimodal noise: a shared two-cluster latent plus jitter,
    # independent of the label
    noise_cluster = rng.integers(0, 2, size=n)
    latent = rng.normal(2.2 + 6.6 * noise_cluster, 0.7)
    for _ in range(2):
        cols.append(latent + rng.normal(0.0, 0.5, size=n))
    cols.append(rng.normal(5.5, 2.0, size=n))

    X = np.clip(np.rint(np.stack(cols, axis=1)), 1, 10)
    flip = rng.random(n) < 0.005
    y = np.where(flip, 1 - y, y)

    names = tuple(f"cell_attr_{i}" for i in range(1, 10))
    return Dataset(
        features=X,
        feature_names=names,
        labels=y,
        class_names=("benign", "malignant"),
        source_id=f"synthetic:breast_cancer_like:{BREAST_SEED}",
    )


def heart_disease_like() -> Dataset:
    rng = generator(HEART_SEED)
    n = 303
    y = (rng.random(n) < 0.46).astype(np.int64)

    age = rng.normal(52.0 + 6.0 * y, 9.0)
    rest_bp = rng.normal(128.0 + 9.6 * y, 16.0)
    chol = rng.normal(240.0 + 16.8 * y, 48.0)
    max_hr = rng.normal(155.0 - 19.2 * y, 20.0)
    st_dep = np.abs(rng.normal(0.5 + 1.2 * y, 0.9))
    sex = (rng.random(n) < 0.55 + 0.23 * y).astype(np.float64)
    angina = (rng.random(n) < 0.18 + 0.5 * y).astype(np.float64)
    slope = np.clip(np.rint(rng.normal(0.9 + 0.72 * y, 0.7)), 0, 2)
    vessels = np.clip(np.rint(np.abs(rng.normal(0.3 + 1.08 * y, 0.9))), 0, 3)
    noise_pain = rng.integers(0, 4, size=n).astype(np.float64)
    noise_sugar = (rng.random(n) < 0.15).astype(np.float64)
    noise_ecg = rng.integers(0, 3, size=n).astype(np.float64)
    noise_thal = rng.integers(0, 3, size=n).astype(np.float64)

    X = np.stack(
        [age, sex, noise_pain, rest_bp, chol, noise_sugar, noise_ecg,
         max_hr, angina, st_dep, slope, vessels, noise_thal],
        axis=1,
    )
    flip = rng.random(n) < 0.04
    y = np.where(flip, 1 - y, y)

    names = ("age", "sex", "pain_type", "rest_bp", "chol", "high_sugar",
             "rest_ecg", "max_hr", "ex_angina", "st_depression", "st_slope",
             "n_vessels", "thal")
    return Dataset(
        features=X,
        feature_names=names,
        labels=y,
        class_names=("absent", "present"),
        source_id=f"synthetic:heart_disease_like:{HEART_SEED}",
    )


def cardio_like() -> Dataset:
    rng = generator(CARDIO_SEED)
    n = 1400
    y = (rng.random(n) < 0.5).astype(np.int64)

    # two conditional blocks: an ordinal flag decides which direction the
    # block's continuous columns shift for each class, and the flag itself
    # is only mildly class-correlated, so the blocks pay off in proportion
    # to how much training data a model gets to untangle them with
    sub_a = (rng.random(n) < np.where(y == 1, 0.57, 0.43)).astype(np.int64)
    dir_a = np.where(sub_a == 1, y, 1 - y)
    chol_level = np.clip(np.rint(rng.normal(0.25 + 1.25 * sub_a, 0.4)), 0, 2)
    ap_hi = rng.normal(120.0 + 16.0 * dir_a, 14.0)
    ap_lo = rng.normal(78.0 + 9.6 * dir_a, 11.2)
    sub_b = (rng.random(n) < np.where(y == 1, 0.57, 0.43)).astype(np.int64)
    dir_b = np.where(sub_b == 1, y, 1 - y)
    gluc_level = np.clip(np.rint(rng.normal(0.25 + 1.25 * sub_b, 0.4)), 0, 2)
    age_days = rng.normal(18500.0 + 1800.0 * dir_b, 2300.0)
    weight = rng.normal(68.0 + 10.8 * dir_b, 12.0)
    height = rng.normal(165.0, 8.0, size=n)
    smoke = (rng.random(n) < 0.09).astype(np.float64)
    alco = (rng.random(n) < 0.05).astype(np.float64)
    active = (rng.random(n) < 0.78).astype(np.float64)
    pulse_pressure = ap_hi - ap_lo + rng.normal(0.0, 4.0, size=n)

    X = np.stack(
        [age_days, height, weight, ap_hi, ap_lo, chol_level, gluc_level,
         smoke, alco, active, pulse_pressure],
        axis=1,
    )
    flip = rng.random(n) < 0.09
    y = np.where(flip, 1 - y, y)

    names = ("age_days", "height", "weight", "ap_hi", "ap_lo", "cholesterol",
             "glucose", "smoke", "alcohol", "active", "pulse_pressure")
    return Dataset(
        features=X,
        feature_names=names,
        labels=y,
        class_names=("negative", "positive"),
        source_id=f"synthetic:cardio_like:{CARDIO_SEED}",
    )
