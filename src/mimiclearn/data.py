"""Tabular dataset ingestion, scaling, and deterministic splitting.

CSV files are comma-separated UTF-8 (a leading byte-order mark is dropped)
with an optional header row. Non-finite cells are refused. Missing
cells (default token ``?``) are imputed with the column median of the
non-missing values, so no NaN survives ingestion. Labels are mapped to class
indices through an alphabetically sorted class-name list; for binary tasks
the schema's positive class is forced to index 1.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .rng import generator


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with optional integer class labels.

    ``features`` is (n_samples, n_features) float64; ``labels`` is (n,) int64
    or None for an unlabeled pool. ``class_names[i]`` is the display name of
    class index ``i``.
    """

    features: np.ndarray
    feature_names: tuple[str, ...]
    labels: np.ndarray | None
    class_names: tuple[str, ...]
    source_id: str

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if feats.shape[1] == 0:
            raise DataError("dataset has no feature columns")
        if not np.isfinite(feats).all():
            raise DataError("features contain NaN or non-finite values")
        if len(self.feature_names) != feats.shape[1]:
            raise DataError(
                f"{len(self.feature_names)} feature names for "
                f"{feats.shape[1]} feature columns"
            )
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (feats.shape[0],):
                raise DataError("label count does not match row count")
            if labels.size and (labels.min() < 0 or labels.max() >= len(self.class_names)):
                raise DataError("label index outside class_names range")
            object.__setattr__(self, "labels", _frozen(labels))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def select(self, idx: np.ndarray, source_suffix: str = "") -> "Dataset":
        """Row subset, preserving label/schema metadata."""
        labels = None if self.labels is None else self.labels[idx]
        return replace(self, features=self.features[idx], labels=labels,
                       source_id=self.source_id + source_suffix)

    def without_labels(self) -> "Dataset":
        return replace(self, labels=None)

    def with_labels(self, labels: np.ndarray) -> "Dataset":
        return replace(self, labels=labels)


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature standardization parameters (population statistics)."""

    means: np.ndarray
    std_devs: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        stds = np.asarray(self.std_devs, dtype=np.float64)
        if means.shape != stds.shape or means.ndim != 1:
            raise DataError("scaler means/std_devs must be matching vectors")
        if not (stds > 0).all():
            raise DataError("scaler std_devs must be strictly positive")
        object.__setattr__(self, "means", _frozen(means))
        object.__setattr__(self, "std_devs", _frozen(stds))

    def standardize(self, X: np.ndarray) -> np.ndarray:
        """``(X - means) / std_devs``; where x - mean overflows, both are halved first."""
        with np.errstate(over="ignore"):
            z = (X - self.means) / self.std_devs
            far = ~np.isfinite(z)
            if far.any():
                z[far] = ((X / 2 - self.means / 2) / self.std_devs * 2)[far]
        return z


@dataclass(frozen=True)
class SplitSpec:
    """Fractions for the private/public/test three-way split."""

    private_fraction: float = 0.5
    public_fraction: float = 0.3
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        fractions = (self.private_fraction, self.public_fraction, self.test_fraction)
        if any(not (0.0 < f < 1.0) for f in fractions):
            raise DataError("split fractions must each lie in (0, 1)")
        # sum(), compensated from Python 3.12 on, moves no byte: a 1e-9 tolerance test
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise DataError(f"split fractions sum to {sum(fractions)!r}, expected 1")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.private_fraction, self.public_fraction, self.test_fraction)


@dataclass(frozen=True)
class FoldAssignment:
    """Stratified k-fold assignment: ``fold_of_sample[i]`` in [0, k)."""

    fold_of_sample: np.ndarray
    k: int

    def __post_init__(self):
        folds = np.asarray(self.fold_of_sample, dtype=np.int64)
        if self.k < 2:
            raise DataError("k must be at least 2")
        if folds.size and (folds.min() < 0 or folds.max() >= self.k):
            raise DataError("fold index outside [0, k)")
        object.__setattr__(self, "fold_of_sample", _frozen(folds))

    def test_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_of_sample == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_of_sample != fold)[0]


@dataclass(frozen=True)
class CsvSchema:
    """How to read a CSV: which column holds labels and how cells are coded.

    ``label_column`` is a header name or a 0-based column index (a negative
    index counts from the end, so -1 is the last column); a string of ASCII
    digits that names no header column is read as an index. None loads every
    column as features. For binary data,
    ``positive_class`` names the label value that must become class index 1.
    """

    label_column: str | int | None = None
    has_header: bool = True
    missing_token: str = "?"
    positive_class: str | None = None


@dataclass(frozen=True)
class IngestStats:
    n_rows: int
    n_imputed: int


@dataclass(frozen=True)
class SplitResult:
    """Output of :func:`stratified_split`.

    ``public_pool`` has its labels stripped; the ground-truth copy is kept in
    ``public_labels_hidden`` strictly for evaluation, never for training.
    ``row_ids`` maps each part to the original row indices it came from.
    """

    private: Dataset
    public_pool: Dataset
    test: Dataset
    public_labels_hidden: np.ndarray
    row_ids: dict = field(default_factory=dict)


def ingest_csv(path: str | Path, schema: CsvSchema) -> tuple[Dataset, IngestStats]:
    """Load a CSV per ``schema``, returning the dataset and ingestion stats.

    Raises DataError for a missing, unreadable or empty file, ragged rows
    (naming the line), non-numeric or non-finite feature cells (naming the
    line and column), or an unknown positive class.
    """
    path = Path(path)
    if not path.is_file():
        problem = "not a regular file" if path.exists() else "no such file"
        raise DataError(f"{problem}: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = filter(None, csv.reader(fh))
            try:
                raw, feature_names, label_values = _parse_rows(rows, schema, path)
            except DataError:
                for _ in rows:  # a read error further on is reported first
                    pass
                raise
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: cannot read as a UTF-8 CSV: {exc}") from None

    missing = np.isnan(raw)  # parsed cells are finite, so NaN marks a missing cell
    n_imputed = int(missing.sum())
    for c in np.nonzero(missing.any(axis=0))[0]:
        known = raw[~missing[:, c], c]
        if known.size == 0:
            raise DataError(
                f"{path}: column {feature_names[c]!r} has no known values to impute from"
            )
        raw[missing[:, c], c] = float(np.median(known))

    if label_values is None:
        labels = None
        class_names: tuple[str, ...] = ()
    else:
        class_names = _order_class_names(
            sorted(set(label_values)), schema.positive_class, path
        )
        index_of = {name: i for i, name in enumerate(class_names)}
        labels = np.array([index_of[v] for v in label_values], dtype=np.int64)

    ds = Dataset(raw, feature_names, labels, class_names, str(path))
    return ds, IngestStats(n_rows=ds.n_rows, n_imputed=n_imputed)


def _parse_rows(rows, schema: CsvSchema, path: Path):
    """Parse rows as read: features (NaN where missing), names, labels or None."""
    head = list(itertools.islice(rows, 2))
    if not head:
        raise DataError(f"empty file: {path}")
    if schema.has_header:
        header = [c.strip() for c in head.pop(0)]
        if not head:
            raise DataError(f"{path}: header only, no data rows")
    else:
        header = [f"x{i}" for i in range(len(head[0]))]
    first_line = 2 if schema.has_header else 1

    n_cols = len(header)
    label_idx = _resolve_label_column(schema.label_column, header, n_cols, path)
    feature_names = tuple(
        name for i, name in enumerate(header) if i != label_idx
    )

    values = array("d")
    label_values: list[str] | None = None if label_idx is None else []
    distinct: dict[str, str] = {}  # one string object per label value
    try:  # a token float() reads stands for a number too: its rows go cell by cell
        token = float(schema.missing_token)
    except (TypeError, ValueError):
        token = None
    for line, row in enumerate(itertools.chain(head, rows), first_line):
        if len(row) != n_cols:
            raise DataError(
                f"{path} line {line}: expected {n_cols} columns, found {len(row)}"
            )
        # a row float() reads with no token number has no missing cell: no "", no token
        label = None if label_idx is None else row.pop(label_idx).strip()
        try:
            parsed = list(map(float, row))
        except ValueError:
            parsed = [math.nan]
        text = "".join(row)  # float() also reads "1_0" and non-ASCII digits
        # sum() only picks the path: a non-finite sum, compensated or not,
        # falls to the cell loop below, which reads the same cells
        if (math.isfinite(sum(parsed)) and text.isascii() and "_" not in text
                and label not in ("", schema.missing_token)
                and (token is None or token not in parsed)):
            values.extend(parsed)
            if label is not None:
                label_values.append(distinct.setdefault(label, label))
            continue
        if label is not None:  # the cell loop below reports or imputes it
            row.insert(label_idx, label)
        for i, cell in enumerate(row):
            cell = cell.strip()
            if i == label_idx:
                if cell == schema.missing_token or cell == "":
                    raise DataError(f"{path} line {line}: missing label value")
                label_values.append(distinct.setdefault(cell, cell))
            elif cell == schema.missing_token or cell == "":
                values.append(math.nan)
            else:
                try:  # float() also reads "1_0" and non-ASCII digits
                    value = float(cell) if cell.isascii() and "_" not in cell else None
                except ValueError:
                    value = None
                if value is None or not math.isfinite(value):
                    kind = "non-numeric" if value is None else "non-finite"
                    raise DataError(
                        f"{path} line {line}: {kind} value {cell!r} "
                        f"in column {header[i]!r}"
                    )
                values.append(value)
    raw = np.frombuffer(values).reshape(line + 1 - first_line, len(feature_names))
    return raw, feature_names, label_values


def load_csv(path: str | Path, schema: CsvSchema) -> Dataset:
    return ingest_csv(path, schema)[0]


def _resolve_label_column(label_column, header, n_cols, path):
    if label_column is None:
        return None
    if isinstance(label_column, str):
        if label_column in header:
            return header.index(label_column)
        if not (label_column.isascii() and label_column.isdigit()):
            raise DataError(
                f"{path}: no column named {label_column!r} (have {header})"
            )
        label_column = int(label_column)
    index = label_column + n_cols if label_column < 0 else label_column
    if not (0 <= index < n_cols):
        raise DataError(f"{path}: label column index {label_column} out of range")
    return index


def _order_class_names(names, positive_class, path):
    """Alphabetical class order; binary tasks get the positive class at index 1."""
    if positive_class is not None:
        if positive_class not in names:
            raise DataError(
                f"{path}: positive class {positive_class!r} never appears "
                f"(labels seen: {names})"
            )
        if len(names) == 2 and names[1] != positive_class:
            names = [names[1], names[0]]
    return tuple(names)


def _csv_rows(ds: Dataset):
    """The rows of :func:`csv_text`, header first."""
    yield list(ds.feature_names) + ([] if ds.labels is None else ["label"])
    for r, values in enumerate(ds.features):
        row = list(map(repr, values.tolist()))
        if ds.labels is not None:
            row.append(ds.class_names[ds.labels[r]])
        yield row


def csv_text(ds: Dataset) -> str:
    """A dataset as CSV text (header row, label column named 'label').

    Floats are written with repr's shortest round-trip form, so a reload
    reproduces the matrix exactly.
    """
    buf = io.StringIO()
    csv.writer(buf).writerows(_csv_rows(ds))
    return buf.getvalue()


def save_csv(ds: Dataset, path: str | Path) -> None:
    """Write the bytes of :func:`csv_text` to ``path``, streamed row by row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(_csv_rows(ds))


def fit_scaler(ds: Dataset) -> ScalerParams:
    """Per-column mean and population std; zero-variance columns get std 1."""
    if ds.n_rows == 0:
        raise DataError("cannot fit a scaler on an empty dataset")
    X = ds.features
    with np.errstate(over="ignore", invalid="ignore"):
        means, stds = X.mean(axis=0), X.std(axis=0)
    far = ~(np.isfinite(means) & np.isfinite(stds))
    if far.any():  # the sums overflowed: take them on a copy scaled by a power of two
        exp = np.frexp(np.abs(X[:, far]).max(axis=0))[1]
        scaled = np.ldexp(X[:, far], -exp)
        means[far] = np.ldexp(scaled.mean(axis=0), exp)
        stds[far] = np.ldexp(scaled.std(axis=0), exp)
    stds = np.where(stds == 0.0, 1.0, stds)
    return ScalerParams(means, stds)


def apply_scaler(ds: Dataset, scaler: ScalerParams) -> Dataset:
    if scaler.means.shape[0] != ds.n_features:
        raise DataError(
            f"scaler has {scaler.means.shape[0]} columns, dataset has {ds.n_features}"
        )
    return replace(ds, features=scaler.standardize(ds.features))


def _allocate_counts(count: int, fractions: tuple[float, ...]) -> list[int]:
    """Largest-remainder allocation of `count` items over the fractions."""
    raw = [count * f for f in fractions]
    base = [math.floor(x) for x in raw]
    leftover = count - sum(base)  # ints: exact on every Python
    by_remainder = sorted(range(len(fractions)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in by_remainder[:leftover]:
        base[i] += 1
    return base


def stratified_split(ds: Dataset, spec: SplitSpec) -> SplitResult:
    """Deterministic three-way stratified split into private/public/test.

    Per-class proportions in every part match the input within one sample.
    The public part is returned unlabeled; its true labels are retained only
    in ``public_labels_hidden`` for held-out evaluation.
    """
    if ds.labels is None:
        raise DataError("stratified_split requires a labeled dataset")
    rng = generator(spec.seed)
    part_ids: list[list[np.ndarray]] = [[], [], []]
    for c in range(len(ds.class_names)):
        members = np.nonzero(ds.labels == c)[0]
        if members.size == 0:
            continue
        if members.size < 3:
            raise DataError(
                f"class {ds.class_names[c]!r} has only {members.size} samples; "
                "need at least 3 to split three ways"
            )
        counts = _allocate_counts(members.size, spec.fractions)
        if min(counts) == 0:
            raise DataError(
                f"class {ds.class_names[c]!r}: fractions {spec.fractions} leave a "
                "part with zero samples"
            )
        shuffled = members[rng.permutation(members.size)]
        stop1, stop2 = counts[0], counts[0] + counts[1]
        part_ids[0].append(shuffled[:stop1])
        part_ids[1].append(shuffled[stop1:stop2])
        part_ids[2].append(shuffled[stop2:])

    ids = [np.sort(np.concatenate(p)) for p in part_ids]
    private = ds.select(ids[0], "#private")
    public_labeled = ds.select(ids[1], "#public")
    test = ds.select(ids[2], "#test")
    return SplitResult(
        private=private,
        public_pool=public_labeled.without_labels(),
        test=test,
        public_labels_hidden=np.array(public_labeled.labels),
        row_ids={"private": ids[0], "public": ids[1], "test": ids[2]},
    )


def kfold(ds: Dataset, k: int, seed: int) -> FoldAssignment:
    """Stratified k-fold assignment, deterministic for a fixed seed.

    Classes are dealt round-robin into folds with a cursor that carries over
    between classes, so per-class counts AND total fold sizes both differ by
    at most one across folds.
    """
    if ds.labels is None:
        raise DataError("kfold requires a labeled dataset")
    if k < 2:
        raise DataError(f"k must be at least 2, got {k}")
    rng = generator(seed)
    fold_of = np.empty(ds.n_rows, dtype=np.int64)
    cursor = 0
    for c in range(len(ds.class_names)):
        members = np.nonzero(ds.labels == c)[0]
        if members.size == 0:
            continue
        if members.size < k:
            raise DataError(
                f"class {ds.class_names[c]!r} has {members.size} samples, "
                f"fewer than k={k}"
            )
        shuffled = members[rng.permutation(members.size)]
        fold_of[shuffled] = (cursor + np.arange(members.size)) % k
        cursor = (cursor + members.size) % k
    return FoldAssignment(fold_of, k)


def split_manifest_json(result: SplitResult, spec: SplitSpec) -> str:
    """JSON manifest listing the seed, fractions, and row ids per part."""
    manifest = {
        "seed": spec.seed,
        "fractions": list(spec.fractions),
        "row_ids": {name: [int(i) for i in ids] for name, ids in result.row_ids.items()},
        "counts": {name: len(ids) for name, ids in result.row_ids.items()},
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"
