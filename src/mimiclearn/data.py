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
import reprlib
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .rng import generator


class _Built(np.ndarray):
    """A fresh array, or a dataset's own, which :class:`Dataset` freezes in place."""


def _frozen(a: np.ndarray, dtype=None) -> np.ndarray:
    out = np.asarray(a, dtype) if type(a) is _Built else np.array(a, dtype=dtype)
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
        feats = _frozen(self.features, np.float64)
        if feats.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if feats.shape[1] == 0:
            raise DataError("dataset has no feature columns")
        # min and max are NaN if any cell is, and need no temporary of the matrix's shape
        if feats.size and not (np.isfinite(feats.min()) and np.isfinite(feats.max())):
            raise DataError("features contain NaN or non-finite values")
        if len(self.feature_names) != feats.shape[1]:
            raise DataError(
                f"{len(self.feature_names)} feature names for "
                f"{feats.shape[1]} feature columns"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if self.labels is not None:
            labels = _frozen(self.labels, np.int64)
            if labels.shape != (feats.shape[0],):
                raise DataError("label count does not match row count")
            if labels.size and (labels.min() < 0 or labels.max() >= len(self.class_names)):
                raise DataError("label index outside class_names range")
            object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def select(self, idx: np.ndarray, source_suffix: str = "") -> "Dataset":
        """Row subset, preserving label/schema metadata; the indexed rows are
        frozen in place, not copied again."""
        labels = None if self.labels is None else self.labels[idx]
        return self._sharing(features=self.features[idx], labels=labels,
                             source_id=self.source_id + source_suffix)

    def without_labels(self) -> "Dataset":
        """The same frozen features, with no labels."""
        return self._sharing(labels=None)

    def with_labels(self, labels: np.ndarray) -> "Dataset":
        """The same frozen features, with a copy of ``labels``."""
        return self._sharing(labels=np.array(labels, dtype=np.int64))

    def _sharing(self, **changes) -> "Dataset":
        """``replace(self, **changes)``, freezing in place the features and labels,
        each this dataset's own or a fresh array that no one else holds."""
        for name in ("features", "labels"):
            a = changes.get(name, getattr(self, name))
            changes[name] = None if a is None else a.view(_Built)
        return replace(self, **changes)


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
            z = X - self.means
            z /= self.std_devs
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

    The header is read first, for either reader. A file with no quote, NUL
    byte, missing token or empty cell, whose rows all have the first row's
    column count and whose feature cells are all finite numbers, is then read
    in one pass of numpy's C reader (``np.loadtxt``). Any other file is read on
    by the cell-by-cell parser, which imputes missing cells and names each bad
    cell's line and column; a file both can read gives the same bytes through
    either. Both return labels as (distinct names in first-seen order, codes).

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
            rows = _numbered(csv.reader(fh))
            try:
                header, label_idx, first = _head(rows, schema, path)
                parsed = _read_clean_csv(path, schema, header, label_idx, first[0] - 1)
                if by_cells := parsed is None:
                    parsed = _parse_rows(itertools.chain([first], rows), header, label_idx,
                                         schema, path)
            except DataError:
                for _ in rows:  # a read error further on is reported first
                    pass
                raise
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: cannot read as a UTF-8 CSV: {exc}") from None

    raw, feature_names, labels = parsed
    n_imputed = 0
    if by_cells:
        missing = np.isnan(raw)  # parsed cells are finite, so NaN marks a missing cell
        n_imputed = int(missing.sum())
        for c in np.nonzero(missing.any(axis=0))[0]:
            known = raw[~missing[:, c], c]
            if known.size == 0:
                raise DataError(
                    f"{path}: column {feature_names[c]!r} has no known values to impute from"
                )
            raw[missing[:, c], c] = float(np.median(known))

    if labels is None:
        class_names: tuple[str, ...] = ()
    else:
        names, codes = labels  # row i's label is names[codes[i]]
        class_names = _order_class_names(sorted(names), schema.positive_class, path)
        index_of = {name: i for i, name in enumerate(class_names)}
        labels = np.array([index_of[name] for name in names], dtype=np.int64)[codes].view(_Built)

    ds = Dataset(raw.view(_Built), feature_names, labels, class_names, str(path))
    return ds, IngestStats(n_rows=ds.n_rows, n_imputed=n_imputed)


# The scan of perfbench's 17 MB evaluate CSV took 35-38 ms in 64 KiB reads and
# 46 ms in 1 MiB reads (2-core Xeon, best of 7).
_SCAN_BYTES = 1 << 16


def _scan_csv_bytes(path: Path, token: bytes) -> int | None:
    """The file's comma count, or None if its bytes hold a quote, a NUL,
    ``token``, an empty cell or a field longer than ``csv.field_size_limit()``."""
    limit = csv.field_size_limit()
    keep = max(len(token) - 1, 1)  # carried into the next read: a split token is found
    commas, offset, last_sep, tail = 0, 0, -1, b"\n"  # the file starts a line
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_BYTES):
            buf = tail + chunk
            if b'"' in chunk or b"\0" in chunk or token in buf:
                return None
            a = np.frombuffer(buf, np.uint8)
            comma = a == ord(",")
            sep = comma | (a == ord("\n")) | (a == ord("\r"))
            if (comma[1:] & sep[:-1]).any() or (comma[:-1] & sep[1:]).any():
                return None  # a comma next to a comma or a line end: an empty cell
            commas += np.count_nonzero(comma[len(tail):])
            at = np.flatnonzero(sep[len(tail):]) + offset
            offset += len(chunk)
            if np.diff(at, prepend=last_sep, append=offset).max() > limit:
                return None  # csv.reader refuses so long a field
            if at.size:
                last_sep = at[-1]
            tail = buf[-keep:]
    return commas


def _head(rows, schema: CsvSchema, path: Path):
    """The stripped header (``x0``, ``x1``... if the file has none), the label
    column's index, and the first data row, read from ``_numbered`` rows."""
    first = next(rows, None)
    if first is None:
        raise DataError(f"empty file: {path}")
    header = [c.strip() for c in first[1]]
    if not schema.has_header:
        header = [f"x{i}" for i in range(len(header))]
    elif (first := next(rows, None)) is None:
        raise DataError(f"{path}: header only, no data rows")
    return header, _resolve_label_column(schema.label_column, header, len(header), path), first


def _read_clean_csv(path: Path, schema: CsvSchema, header, label_idx, skip_lines: int):
    """``_parse_rows``' result, labels coded alike, for the rows after the
    first ``skip_lines`` lines, read in one ``np.loadtxt`` pass; or None for a
    file that only ``_parse_rows`` may read: a quote, NUL, empty cell,
    over-long field or the missing token's text anywhere, a row with another
    column count, a feature cell that is not a finite number, or a blank
    label. A cell is missing only if it strips to the token, so a number equal
    to a numeric token (-999.0 for -999) is a value to both readers."""
    columns = [i for i in range(len(header)) if i != label_idx]
    first = [] if label_idx is None else [label_idx]
    code_of: dict[str, int] = {}  # label name -> code, in first-seen order, as _parse_rows
    try:
        commas = _scan_csv_bytes(path, schema.missing_token.encode())
        if commas is None or not columns:
            return None
        # an open file, not a path, from which loadtxt would import gzip; text mode
        # ends lines at CR, LF and CRLF, as csv.reader does. A label cell reads as
        # its code; without ``encoding``, numpy < 2 hands the converter latin-1 text
        with open(path, encoding="utf-8-sig") as fh:
            raw = np.loadtxt(
                fh, delimiter=",", comments=None, skiprows=skip_lines, usecols=first + columns,
                ndmin=2, encoding="utf-8",
                converters={i: lambda cell: code_of.setdefault(cell.strip(), len(code_of))
                            for i in first})
    except (OSError, ValueError):  # ValueError covers UnicodeError
        return None

    labels = None
    if first:  # the features are a view, which keeps the pass's buffer
        labels, raw = (list(code_of), raw[:, 0].astype(np.int64)), raw[:, 1:]
    # with usecols, loadtxt reads a row with extra cells
    if (commas != (len(raw) + int(schema.has_header)) * (len(header) - 1)
            or "" in code_of or not np.isfinite(raw).all()):
        return None
    return raw, tuple(header[i] for i in columns), labels


def _numbered(reader):
    """(file line the row starts on, row) for each non-empty row of a
    ``csv.reader``: blank lines and quoted line breaks count as lines."""
    line = reader.line_num + 1
    for row in reader:
        if row:
            yield line, row
        line = reader.line_num + 1


def _parse_rows(rows, header, label_idx, schema: CsvSchema, path: Path):
    """Parse the ``_numbered`` data rows under ``_head``'s ``header`` and
    ``label_idx``, cell by cell: features (NaN where missing), feature names,
    and labels as (first-seen names, int64 codes) or None."""
    n_cols = len(header)
    feature_names = tuple(name for i, name in enumerate(header) if i != label_idx)
    values = array("d")
    codes = None if label_idx is None else array("q")
    code_of: dict[str, int] = {}  # label name -> code, in first-seen order
    for n_rows, (line, row) in enumerate(rows, 1):
        if len(row) != n_cols:
            raise DataError(f"{path} line {line}: expected {n_cols} columns, found {len(row)}")
        for i, cell in enumerate(row):
            cell = cell.strip()
            if i == label_idx:
                if cell == schema.missing_token or cell == "":
                    raise DataError(f"{path} line {line}: missing label value")
                codes.append(code_of.setdefault(cell, len(code_of)))
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
                        f"{path} line {line}: {kind} value {reprlib.repr(cell)} "
                        f"in column {header[i]!r}"
                    )
                values.append(value)
    raw = np.frombuffer(values).reshape(n_rows, len(feature_names))
    labels = None if codes is None else (list(code_of), np.frombuffer(codes, np.int64))
    return raw, feature_names, labels


def load_csv(path: str | Path, schema: CsvSchema) -> Dataset:
    return ingest_csv(path, schema)[0]


def _resolve_label_column(label_column, header, n_cols, path):
    if label_column is None:
        return None
    if isinstance(label_column, str):
        if label_column in header:
            return header.index(label_column)
        if not (label_column.isascii() and label_column.isdigit()):
            raise DataError(f"{path}: no column named {reprlib.repr(label_column)} "
                            f"(have {reprlib.repr(header)})")
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
                f"{path}: positive class {reprlib.repr(positive_class)} never appears "
                f"(labels seen: {reprlib.repr(names)})"
            )
        if len(names) == 2 and names[1] != positive_class:
            names = [names[1], names[0]]
    return tuple(names)


# Cells per block of the CSV writer (341 rows of 11 features and a label): 1,024 to 16,384
# wrote 100k such rows in 0.57-0.63 s, not 0.75 s row by row, at 0.14-1.3 MB of peak.
_BLOCK_CELLS = 4096


def _csv_blocks(ds: Dataset):
    r"""The text of :func:`csv_text`: the header, then one ``%`` of a
    ``"%r,...,%r,%s\r\n" * rows`` template per block (``%r`` of a float is its
    repr, which needs no quoting), each class name quoted by ``csv.writer`` once,
    as a row's only cell if there are no features, else as a later cell."""
    buf = io.StringIO()
    csv.writer(buf).writerow(list(ds.feature_names) + ([] if ds.labels is None else ["label"]))
    yield buf.getvalue()
    n_features = ds.features.shape[1]
    fields, names = ["%r"] * n_features, []
    if ds.labels is not None:
        fields.append("%s")
        for name in ds.class_names:
            buf = io.StringIO()
            csv.writer(buf).writerow([name] if n_features == 0 else ["", name])
            names.append(buf.getvalue()[min(n_features, 1):-2])
    line = ",".join(fields) + "\r\n"
    step = max(1, _BLOCK_CELLS // max(len(fields), 1))
    for start in range(0, ds.features.shape[0], step):
        rows = ds.features[start:start + step].tolist()
        if ds.labels is not None:
            for row, code in zip(rows, ds.labels[start:start + step].tolist()):
                row.append(names[code])
        yield (line * len(rows)) % tuple(itertools.chain.from_iterable(rows))


def csv_text(ds: Dataset) -> str:
    """A dataset as CSV text (header row, label column named 'label').

    Floats are written with repr's shortest round-trip form, so a reload
    reproduces the matrix exactly; the text is what ``csv.writer`` writes.
    """
    return "".join(_csv_blocks(ds))


def save_csv(ds: Dataset, path: str | Path) -> None:
    """Write the bytes of :func:`csv_text` to ``path``, a block of rows at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(_csv_blocks(ds))


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
    return ds._sharing(features=scaler.standardize(ds.features))


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
