"""Deterministic random number plumbing.

Every random decision in the package (splits, fold shuffles, bootstraps, SGD
shuffles) draws from a PCG64 generator seeded by the run seed XOR a stage
constant. The constants live here so the derivation is auditable in one
place; indexed stages (per-tree, per-spec) add the index to their base
constant before the XOR. PCG64 streams are platform-independent, so equal
seeds draw the same numbers everywhere. The arithmetic on those draws is a
separate matter: the svm's is the same on every IEEE host (see
``classifiers.svm``), but naive Bayes calls ``np.exp``/``np.log``, whose
last bits vary with the CPU features numpy dispatches on.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stage constants, spaced 2**32 apart so indexed stages never collide.
STAGE_SPLIT = 1 << 32
STAGE_FOLDS = 2 << 32
STAGE_SPEC = 3 << 32  # + registration index of the classifier spec
STAGE_TREE = 4 << 32  # + tree index within a forest
STAGE_SGD = 5 << 32


def derive_seed(seed: int, stage: int, index: int = 0) -> int:
    """Sub-seed for one pipeline stage: ``seed XOR (stage + index)``."""
    if index < 0:
        raise ValueError("stage index must be nonnegative")
    return (int(seed) ^ (stage + index)) & _MASK64


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))
