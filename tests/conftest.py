"""Shared fixtures: benchmark datasets (real CSVs when present, otherwise
the bundled generators) and a couple of tiny deterministic toys."""

from pathlib import Path

import pytest

from mimiclearn.data import CsvSchema, load_csv
from mimiclearn.synthetic import (
    breast_cancer_like,
    cardio_like,
    heart_disease_like,
)

from oracles import threshold_toy

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# prepared per the README: no header, label in the last column
_REAL_FILES = {
    "breast": ("breast.csv", "4"),
    "heart": ("heart.csv", "1"),
    "cardio": ("cardio.csv", "1"),
}
_GENERATORS = {
    "breast": breast_cancer_like,
    "heart": heart_disease_like,
    "cardio": cardio_like,
}


def dataset_or_surrogate(name):
    """Load the prepared real CSV if the repo has one, else generate."""
    filename, positive = _REAL_FILES[name]
    path = DATA_DIR / filename
    if path.exists():
        schema = CsvSchema(
            label_column=-1, has_header=False, positive_class=positive
        )
        return load_csv(path, schema)
    return _GENERATORS[name]()


@pytest.fixture(scope="session")
def breast_ds():
    return dataset_or_surrogate("breast")


@pytest.fixture(scope="session")
def heart_ds():
    return dataset_or_surrogate("heart")


@pytest.fixture(scope="session")
def cardio_ds():
    return dataset_or_surrogate("cardio")


@pytest.fixture()
def toy():
    return threshold_toy(seed=7)
