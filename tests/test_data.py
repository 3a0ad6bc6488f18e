import csv
import dataclasses
import itertools
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimiclearn import data
from mimiclearn.classifiers import ORIGIN_STUDENT, ClassifierSpec, decide_batch, fit

from mimiclearn.data import (
    CsvSchema,
    Dataset,
    SplitSpec,
    apply_scaler,
    csv_text,
    fit_scaler,
    ingest_csv,
    kfold,
    load_csv,
    save_csv,
    split_manifest_json,
    stratified_split,
)
from mimiclearn.errors import DataError
from mimiclearn.model_io import model_text
from mimiclearn.rng import generator

from oracles import csv_text_rowwise, parse_rows_cellwise


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestIngest:
    def test_header_and_label_by_name(self, tmp_path):
        path = _write(tmp_path, "a,b,label\n1,2,yes\n3,4,no\n5,6,yes\n")
        ds, stats = ingest_csv(path, CsvSchema(label_column="label"))
        assert ds.feature_names == ("a", "b")
        assert ds.class_names == ("no", "yes")  # sorted
        assert ds.labels.tolist() == [1, 0, 1]
        assert stats.n_rows == 3 and stats.n_imputed == 0
        np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_headerless_label_by_index(self, tmp_path):
        path = _write(tmp_path, "1,2,0\n3,4,1\n")
        ds = load_csv(path, CsvSchema(label_column=2, has_header=False))
        assert ds.feature_names == ("x0", "x1")
        assert ds.labels.tolist() == [0, 1]

    def test_positive_class_becomes_index_one(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,malignant\n2,benign\n")
        ds = load_csv(
            path, CsvSchema(label_column="label", positive_class="malignant")
        )
        assert ds.class_names == ("benign", "malignant")
        path2 = _write(tmp_path, "a,label\n1,malignant\n2,benign\n", "d2.csv")
        flipped = load_csv(
            path2, CsvSchema(label_column="label", positive_class="benign")
        )
        assert flipped.class_names == ("malignant", "benign")
        assert flipped.labels.tolist() == [0, 1]

    def test_unknown_positive_class(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,x\n2,y\n")
        with pytest.raises(DataError):
            load_csv(path, CsvSchema(label_column="label", positive_class="z"))

    def test_missing_values_imputed_with_column_median(self, tmp_path):
        path = _write(tmp_path, "a,b,label\n1,10,0\n?,20,1\n3,?,0\n5,40,1\n")
        ds, stats = ingest_csv(path, CsvSchema(label_column="label"))
        assert stats.n_imputed == 2
        assert ds.features[1, 0] == pytest.approx(np.median([1, 3, 5]))
        assert ds.features[2, 1] == pytest.approx(np.median([10, 20, 40]))

    def test_custom_missing_token(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,0\nNA,1\n3,0\n")
        ds, stats = ingest_csv(
            path, CsvSchema(label_column="label", missing_token="NA")
        )
        assert stats.n_imputed == 1
        assert ds.features[1, 0] == pytest.approx(2.0)

    def test_numeric_missing_token_is_imputed(self, tmp_path):
        path = _write(tmp_path, "a,b,label\n1,-999,x\n3,4,y\n-999,6,x\n")
        ds, stats = ingest_csv(path, CsvSchema(label_column="label", missing_token="-999"))
        assert stats.n_imputed == 2
        np.testing.assert_array_equal(ds.features, [[1, 5], [3, 4], [2, 6]])

    def test_missing_label_rejected(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,0\n2,?\n")
        with pytest.raises(DataError, match="missing label"):
            ingest_csv(path, CsvSchema(label_column="label"))

    def test_ragged_row_names_line(self, tmp_path):
        path = _write(tmp_path, "a,b,label\n1,2,0\n3,0\n")
        with pytest.raises(DataError, match="line 3"):
            ingest_csv(path, CsvSchema(label_column="label"))

    @pytest.mark.parametrize("text", ["a,y\n1,p\n\nfoo,n\n", 'a,y\n1,"p\nq"\nfoo,n\n'],
                             ids=["blank-line", "quoted-line-break"])
    def test_bad_cell_names_its_file_line(self, tmp_path, text, monkeypatch):
        # the third row starts on line 4: line numbers count file lines, not rows
        path = _write(tmp_path, text)
        want = f"{path} line 4: non-numeric value 'foo' in column 'a'"
        assert _ingest_result(path, CsvSchema(label_column="y")) == want
        monkeypatch.setattr(data, "_parse_rows", _parse_rows_by_oracle)
        assert _ingest_result(path, CsvSchema(label_column="y")) == want

    def test_non_numeric_feature_cell(self, tmp_path):
        path = _write(tmp_path, "a,label\nfoo,0\n1,1\n")
        with pytest.raises(DataError, match="non-numeric"):
            ingest_csv(path, CsvSchema(label_column="label"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            ingest_csv(tmp_path / "nope.csv", CsvSchema())

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = _write(tmp_path, f"a,b,label\n1,2,0\n3,{cell},1\n")
        with pytest.raises(DataError, match=f"line 3: non-finite value '{cell}' "
                                            "in column 'b'"):
            ingest_csv(path, CsvSchema(label_column="label"))

    @pytest.mark.parametrize("token", ["?", "-999"])  # a text token and a numeric one
    @pytest.mark.parametrize("cell", ["1_0", "1_000", "\u0661\u0662", "\uff11\uff12"])
    def test_python_only_number_forms_refused(self, tmp_path, cell, token):
        # float() reads these as 10, 1000 and 12; a CSV number is plain ASCII
        path = _write(tmp_path, f"a,b,label\n1,2,0\n3,{cell},1\n")
        with pytest.raises(DataError, match=f"line 3: non-numeric value '{cell}' "
                                            "in column 'b'"):
            ingest_csv(path, CsvSchema(label_column="label", missing_token=token))

    def test_negative_label_index_counts_from_the_end(self, tmp_path):
        path = _write(tmp_path, "1,2,0\n3,4,1\n")
        ds = load_csv(path, CsvSchema(label_column=-1, has_header=False))
        assert ds.feature_names == ("x0", "x1")
        assert ds.labels.tolist() == [0, 1]
        assert load_csv(path, CsvSchema(label_column=-3, has_header=False)
                        ).feature_names == ("x1", "x2")
        with pytest.raises(DataError, match="index -4 out of range"):
            load_csv(path, CsvSchema(label_column=-4, has_header=False))

    def test_unlabeled_load(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n3,4\n")
        ds = load_csv(path, CsvSchema(label_column=None))
        assert ds.labels is None and ds.class_names == ()
        assert ds.features.shape == (2, 2)

    def test_save_load_round_trip(self, tmp_path, toy):
        # -0.0, subnormals, 1e16 and 1e-5 read back bit for bit through both readers
        edges = np.array([[-0.0, 5e-324, 1e16], [1e-5, -2.5e-310, -1e-5]])
        ds = Dataset(np.vstack([toy.features, edges]), toy.feature_names,
                     np.append(toy.labels, [0, 1]), toy.class_names, toy.source_id)
        path = tmp_path / "toy.csv"
        save_csv(ds, path)
        assert path.read_bytes() == csv_text(ds).encode("utf-8")
        # one "?" cell more sends the same rows to the cell-by-cell parser
        imputed = _write(tmp_path, csv_text(ds) + f"?,0,0,{toy.class_names[0]}\r\n", "imputed.csv")
        schema = CsvSchema(label_column="label", positive_class=toy.class_names[1])
        assert _takes_the_c_reader(path, schema)
        assert not _takes_the_c_reader(imputed, schema)
        rows = np.arange(ds.n_rows)
        for back in (load_csv(path, schema), load_csv(imputed, schema).select(rows)):
            assert back.features.tobytes() == ds.features.tobytes()
            np.testing.assert_array_equal(back.labels, ds.labels)
            assert back.class_names == ds.class_names
            assert back.feature_names == ds.feature_names

    def test_missing_cells_in_several_columns(self, tmp_path):
        path = _write(tmp_path, "a,b,label\n?,1,x\n2,?,y\n4,3,x\n?,?,y\n8,5,x\n")
        ds, stats = ingest_csv(path, CsvSchema(label_column="label"))
        assert stats.n_imputed == 4
        np.testing.assert_array_equal(
            ds.features, [[4, 1], [2, 3], [4, 3], [4, 3], [8, 5]]
        )
        path = _write(tmp_path, "a,b,label\n1,?,x\n2,?,y\n", "empty_column.csv")
        with pytest.raises(DataError, match="column 'b' has no known values"):
            ingest_csv(path, CsvSchema(label_column="label"))

    # the DataError is a bad cell's ("x"), or the header step's (no column "nope")
    @pytest.mark.parametrize("label_column", ["label", "nope"])
    def test_read_error_later_in_the_file_is_reported_first(self, tmp_path, label_column):
        # the undecodable byte lies past the first read buffers
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,label\n1,0\nx,1\n" + b"2,1\n" * 20_000 + b"\xff,0\n")
        with pytest.raises(DataError, match="cannot read as a UTF-8 CSV"):
            ingest_csv(path, CsvSchema(label_column=label_column))

    def test_long_bad_cell_is_echoed_cut_short(self, tmp_path):
        # a quote before a number runs its cell on to the next quote, 60 KB later
        rows = ["1.5,2,x"] * 8_000
        rows[1] = '"' + rows[1]
        rows[-1] = '"' + rows[-1]
        path = _write(tmp_path, "a,b,label\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError) as err:
            ingest_csv(path, CsvSchema(label_column="label"))
        message = str(err.value)
        assert len(message) < len(str(path)) + 100 and "\n" not in message
        assert re.fullmatch(r".* line 3: non-numeric value '1\.5,2,x\\n.*' in column 'a'",
                            message)

    # the clean file takes the C reader, the one with a "?" the cell-by-cell parser
    @pytest.mark.parametrize("missing", [False, True], ids=["clean", "one-missing-cell"])
    def test_peak_allocation_stays_near_the_matrix(self, tmp_path, missing):
        # 20,000 x 11 float64 is 1.8 MB; holding every cell as a string
        # before parsing any of them peaks above 20 MB
        src = _big_dataset()
        path = tmp_path / "big.csv"
        save_csv(src, path)
        want = src.features.copy()
        if missing:  # one "?" cell, which the cell-by-cell parser imputes
            header, first, rest = path.read_text(encoding="utf-8").split("\n", 2)
            path.write_text(f"{header}\n?{first[first.index(','):]}\n{rest}", encoding="utf-8")
            want[0, 0] = np.median(want[1:, 0])
        tracemalloc.start()
        try:
            ds, stats = ingest_csv(path, CsvSchema(label_column="label"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.n_imputed == int(missing)
        np.testing.assert_array_equal(ds.features, want)
        np.testing.assert_array_equal(ds.labels, src.labels)
        assert peak < 10_000_000, f"ingest peaked at {peak / 1e6:.1f} MB"

    def test_clean_file_is_read_without_a_copy_of_the_matrix(self, tmp_path):
        # the C reader alone peaks near 2.3 MB; a copy of the matrix and labels adds 1.9 MB
        src = _big_dataset()
        path = tmp_path / "big.csv"
        save_csv(src, path)
        tracemalloc.start()
        try:
            ds, _ = ingest_csv(path, CsvSchema(label_column="label"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.tobytes() == src.features.tobytes()
        assert peak < 3_000_000, f"ingest peaked at {peak / 1e6:.2f} MB"


def _big_dataset():
    """20,000 rows of 11 normal features and two alternating classes."""
    n, d = 20_000, 11
    return Dataset(
        features=generator(7).normal(size=(n, d)),
        feature_names=tuple(f"x{i}" for i in range(d)),
        labels=np.arange(n) % 2,
        class_names=("negative", "positive"),
        source_id="big",
    )


_CSV_CELLS = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.floats(-1e6, 1e6).map(repr),
    st.integers(-1000, 1000).map(lambda v: f"  {v} "),
    st.sampled_from(["", "  ", "?", "NA", "-999", "nan", "inf", "1e400", "1_0", "abc",
                     "\u0661\u0662", "\xa03\xa0"]),
)


def _ingest_result(path, schema):
    try:
        ds, stats = ingest_csv(path, schema)
    except DataError as exc:
        return str(exc)
    labels = None if ds.labels is None else ds.labels.tobytes()
    return (ds.features.shape, ds.features.tobytes(), ds.feature_names, labels,
            ds.class_names, stats.n_imputed)


@given(rows=st.lists(st.tuples(st.lists(_CSV_CELLS, min_size=2, max_size=2),
                                st.sampled_from(["a", " b ", "", "  ", "?", "NA", "-999"])),
                      min_size=1, max_size=4),
       n_features=st.integers(1, 2), label_column=st.sampled_from([None, 0, -1]),
       has_header=st.booleans(), missing_token=st.sampled_from(["?", "NA", "-999", "nan"]))
@example(rows=[(["1", "-999"], "x"), ([" 2", "3 "], "y")], n_features=2, label_column=-1,
         has_header=False, missing_token="-999")
@settings(max_examples=100, deadline=None)
def test_ingest_matches_the_cell_by_cell_reference(
    rows, n_features, label_column, has_header, missing_token
):
    """The same features, labels and imputed count, or the same DataError."""
    place = {None: lambda cells, label: cells, 0: lambda cells, label: [label] + cells,
             -1: lambda cells, label: cells + [label]}[label_column]
    text = "".join(",".join(place(cells[:n_features], label)) + "\n" for cells, label in rows)
    schema = CsvSchema(label_column=label_column, has_header=has_header,
                       missing_token=missing_token)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cells.csv"
        path.write_text(text, encoding="utf-8")
        got = _ingest_result(path, schema)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_read_clean_csv", _no_c_reader)
            by_rows = _ingest_result(path, schema)
            mp.setattr(data, "_parse_rows", _parse_rows_by_oracle)
            want = _ingest_result(path, schema)
    assert got == by_rows == want


def _no_c_reader(path, schema, header, label_idx, skip_lines):
    return None


def _parse_rows_by_oracle(rows, header, label_idx, schema, path):
    """``parse_rows_cellwise``, given the header row back, with its label list
    as (first-seen names, codes)."""
    if schema.has_header:
        rows = itertools.chain([(1, header)], rows)
    raw, feature_names, label_values = parse_rows_cellwise(rows, schema, path)
    if label_values is None:
        return raw, feature_names, None
    first_seen: dict[str, int] = {}
    codes = [first_seen.setdefault(v, len(first_seen)) for v in label_values]
    return raw, feature_names, (list(first_seen), np.array(codes, dtype=np.int64))


_RAW_FEATURES = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(lambda v: f" {v}\t"),
    st.floats(-1e6, 1e6).map(repr),
    st.sampled_from(["", "  ", "?", "NA", "-999", "-9.99e2", "nan", "inf", "Infinity",
                     "1e500", "1_0", "\u0661\u0662", "0x10", "\x1c1", "\xa01", "\ufeff1",
                     '"1"', "1\x00", "abc"]),
)
_RAW_LABELS = st.one_of(
    st.sampled_from(["a", "b", " b ", "c d"]),
    st.sampled_from(["", "  ", "?", "NA", "-999", '"a"', "a\x00", "\xe9", "1"]),
)


@st.composite
def _raw_csv(draw):
    """CSV text that either reader may take, and the schema to read it with."""
    n_cols = draw(st.integers(1, 3))
    label_column = draw(st.sampled_from([None, 0, 1, -1]))
    label_idx = None if label_column is None else label_column % n_cols
    has_header = draw(st.booleans())
    lines = [",".join(f" c{i}" for i in range(n_cols))] if has_header else []
    for _ in range(draw(st.integers(0, 4))):
        line = draw(st.sampled_from([None] * 5 + ["", "  "]))  # None: a row of cells
        if line is None:
            width = n_cols + draw(st.sampled_from([0] * 6 + [-1, 1]))
            line = ",".join(draw(_RAW_LABELS if i == label_idx else _RAW_FEATURES)
                            for i in range(width))
        lines.append(line)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    schema = CsvSchema(label_column=label_column, has_header=has_header,
                       missing_token=draw(st.sampled_from(["?", "NA", "-999"])))
    return draw(st.sampled_from(["", "\ufeff"])) + text, schema


_LABELED = CsvSchema(label_column="y")


@given(case=_raw_csv())
@example(case=("a,y\n1,p\n2,n\n", _LABELED))  # clean: the C reader's own read
@example(case=("a,y\r1,p\r2,n\r", _LABELED))  # CR-only line ends
@example(case=("\ufeffa,y\r\n1,p\r\n\r\n2,n", _LABELED))  # BOM, CRLF, a blank line
@example(case=("a,y\n1,p\n  \n2,n\n", _LABELED))  # a whitespace-only line
@example(case=("a,y\n1,p,\n2,n\n", _LABELED))  # an extra, empty, trailing cell
@example(case=("a,y\n1,p,5\n2,n\n", _LABELED))  # an extra cell: usecols would skip it
@example(case=("a,b,y\n1,2,p\n3,n\n", _LABELED))  # a missing cell
@example(case=('a,y\n1,"p"\n2,n\n', _LABELED))  # a quoted label
@example(case=("a,y\n1,p\n2\x00,n\n", _LABELED))  # a NUL byte
@example(case=("a,y\n1_0,p\n2,n\n", _LABELED))
@example(case=("a,y\n\u0661\u0662,p\n2,n\n", _LABELED))
@example(case=("a,y\n0x10,p\n2,n\n", _LABELED))
@example(case=("a,y\n\x1c1,p\n\xa02,n\n", _LABELED))  # both read as numbers by both
@example(case=("a,y\nnan,p\n2,n\n", _LABELED))
@example(case=("a,y\n1e500,p\n2,n\n", _LABELED))
@example(case=("a,y\n-9.99e2,p\n2,n\n", CsvSchema("y", missing_token="-999")))
@example(case=("a,y\n-999,p\n2,n\n", CsvSchema("y", missing_token="-999")))
@example(case=("a,y\n1, p \n2,n\t\n", _LABELED))  # labels with outer whitespace
@example(case=("a,y\n1,  \n2,n\n", _LABELED))  # a blank label
@example(case=("y,a,b\np,1,2\nn,3,4\n", _LABELED))  # the label column first
@example(case=("a,y,b\n1,p,2\n3,n,4\n", _LABELED))  # the label column in the middle
@example(case=("1,2\n3,4\n", CsvSchema(label_column=None, has_header=False)))
@example(case=("a,y\n", _LABELED))  # a header and no data rows
@example(case=("a,y\n\n\r\n", _LABELED))  # blank data lines only
@example(case=("a,y\n0." + "0" * 140_000 + "1,p\n", _LABELED))  # over csv's field limit
# loadtxt skips empty lines only, so neither reads zero rows or warns of no data
@example(case=("a\n  \n", CsvSchema()))  # a whitespace-only data line
@example(case=("a,y\n\r\n1,p\n2,n\n", _LABELED))  # an empty CRLF line after the header
@example(case=("\n\na,y\n1,p\n\n2,n\n", _LABELED))  # blank lines before the header
@settings(max_examples=100, deadline=None)
def test_c_reader_matches_the_row_parser(case):
    """Reading raw bytes with the C reader gives what the row parser gives:
    the same features, labels and imputed count, or the same DataError."""
    text, schema = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        path.write_bytes(text.encode("utf-8"))
        got = _ingest_result(path, schema)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_read_clean_csv", _no_c_reader)
            want = _ingest_result(path, schema)
    assert got == want


@pytest.mark.parametrize("text, c_reader", [
    ("a,y\n1,p\n2,n\n", True),
    ("\ufeffa,y\r\n1, p \r\n\r\n\x1c2,n", True),
    ("a,y\r1,p\r2,n\r", True),
    ("\n\na,y\n1,p\n\n2,n\n", True),  # blank lines before the header
    ("a,y\n\r\n1,p\n2,n\n", True),
    ("a,y\n?,p\n2,n\n", False),  # a missing cell to impute
    ("a,y\n1,p,5\n2,n\n", False),
    ("a,y\n1,p\n  \n2,n\n", False),
    ('a,y\n1,"p"\n2,n\n', False),
    ("a,y\ninf,p\n2,n\n", False),
    ("a,y\n", False),
])
def test_which_files_take_the_c_reader(tmp_path, text, c_reader):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _takes_the_c_reader(path, _LABELED) == c_reader


def _takes_the_c_reader(path, schema):
    """Whether ``ingest_csv`` reads ``path`` through the C reader."""
    c_reader, results = data._read_clean_csv, []

    def read_clean_csv(*args):
        results.append(c_reader(*args))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_read_clean_csv", read_clean_csv)
        try:
            ingest_csv(path, schema)
        except DataError:
            pass
    return bool(results) and results[0] is not None


@given(case=_raw_csv())
@example(case=("y,a\nb,1\n a ,2\nb,3\n", _LABELED))  # first-seen order is not sorted order
@example(case=("a,y,b\n1,z,2\n3,\xe9,4\n5,c d,6\n", _LABELED))
@example(case=("1,2\n3,4\n", CsvSchema(label_column=None, has_header=False)))
@settings(max_examples=100, deadline=None)
def test_both_readers_code_labels_alike(case):
    """Where the C reader takes a file, its labels are ``_parse_rows``': the
    same distinct names in first-seen order and the same codes."""
    text, schema = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = data._numbered(csv.reader(fh))
            try:
                header, label_idx, first = data._head(rows, schema, path)
            except DataError:  # an empty file or a header only: neither reader runs
                return
            clean = data._read_clean_csv(path, schema, header, label_idx, first[0] - 1)
            if clean is None:
                return
            parsed = data._parse_rows(itertools.chain([first], rows), header, label_idx,
                                      schema, path)
    assert _coded(clean[2]) == _coded(parsed[2])


def _coded(labels):
    return None if labels is None else (labels[0], labels[1].dtype, labels[1].tobytes())


@pytest.mark.parametrize("place", [0, 1, 3], ids=["label-first", "label-middle", "label-last"])
def test_ingested_features_fit_and_decide_as_a_contiguous_copy(tmp_path, place):
    """The C reader's features are a strided view of its one pass; every family
    fits and decides on them exactly as on a C-contiguous copy."""
    rng = generator(5)
    X = rng.normal(size=(60, 3)) * [1.0, 1e3, 1e-3] + [0.0, 5e3, 1.0]
    names = np.where(X[:, 0] + rng.normal(size=60) > 0, "yes", "no")
    lines = [["a", "b", "c"]] + [list(map(repr, row)) for row in X.tolist()]
    for line, name in zip(lines, ["y", *names]):
        line.insert(place, name)
    path = tmp_path / "clean.csv"
    path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
    assert _takes_the_c_reader(path, _LABELED)
    ds, _ = ingest_csv(path, _LABELED)
    copy = Dataset(np.array(ds.features), ds.feature_names, ds.labels, ds.class_names, "copy")
    assert not ds.features.flags.c_contiguous and copy.features.flags.c_contiguous
    assert copy.features.tobytes() == X.tobytes()
    for spec in [ClassifierSpec("rf", {"n_trees": 3}, seed=1), ClassifierSpec("svm", seed=1),
                 ClassifierSpec("knn", seed=1), ClassifierSpec("nb", seed=1)]:
        model, want = fit(spec, ds, ORIGIN_STUDENT), fit(spec, copy, ORIGIN_STUDENT)
        if spec.kind == "knn":  # raw training rows, which model_text refuses to write
            assert [a.tobytes() for a in (model.params.points, model.params.labels)] == [
                a.tobytes() for a in (want.params.points, want.params.labels)]
        else:
            assert model_text(model) == model_text(want)
        for got, expected in zip(decide_batch(model, ds.features),
                                 decide_batch(model, copy.features)):
            assert got.tobytes() == expected.tobytes()


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310,
                                 1e16, 1e-5, 0.1, 1e22, 1.7976931348623157e308])
_CELL_TEXT = st.one_of(
    st.sampled_from(["a,b", 'say "hi"', "\r", "\n", "x\r\ny", "\u00e9", "\u65e5\u672c", "", " ",
                     "-0.0"]),
    st.text(max_size=4),
)


@st.composite
def _table(draw):
    """A table for the CSV writer, with a row count at or next to its block size.

    A stand-in with Dataset's fields takes what Dataset refuses (no features,
    a non-finite value); any other table is a Dataset."""
    n_features, labeled = draw(st.integers(0, 3)), draw(st.booleans())
    block = max(1, data._BLOCK_CELLS // max(n_features + labeled, 1))
    n = draw(st.sampled_from([0, 1, 2, block - 1, block, block + 1]))
    pool = np.array(draw(st.lists(st.one_of(_EDGE_FLOATS, st.floats()), min_size=1, max_size=8)))
    rng = generator(draw(st.integers(0, 2**32 - 1)))
    table = SimpleNamespace(
        features=pool[rng.integers(pool.size, size=(n, n_features))],
        feature_names=tuple(draw(st.lists(_CELL_TEXT, min_size=n_features,
                                          max_size=n_features))),
        labels=None, class_names=tuple(draw(st.lists(_CELL_TEXT, min_size=1, max_size=3))))
    if labeled:
        table.labels = rng.integers(len(table.class_names), size=n)
    if n_features and np.isfinite(table.features).all():
        return Dataset(source_id="t", **vars(table))
    return table


@given(table=_table())
@example(table=SimpleNamespace(features=np.zeros((3, 0)), feature_names=(),
                               labels=np.array([0, 1, 0]), class_names=("", "a,b")))
@example(table=SimpleNamespace(features=np.zeros((2, 0)), feature_names=(), labels=None,
                               class_names=()))
@settings(max_examples=100, deadline=None)
def test_writer_matches_the_row_by_row_reference(table):
    """``csv_text`` and ``save_csv`` write the bytes ``csv.writer`` writes row by row."""
    want = csv_text_rowwise(table)
    assert csv_text(table) == want
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        save_csv(table, path)
        assert path.read_bytes() == want.encode("utf-8")


class TestScaler:
    def test_standardizes_to_zero_mean_unit_std(self, toy):
        scaler = fit_scaler(toy)
        scaled = apply_scaler(toy, scaler)
        np.testing.assert_allclose(scaled.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.features.std(axis=0), 1.0, atol=1e-12)

    def test_scaled_dataset_shares_the_labels_and_copies_no_matrix(self):
        # 100,000 x 11 features are 8.8 MB; a second copy of the scaled matrix peaks at 18 MB
        n, d = 100_000, 11
        ds = Dataset(generator(8).normal(size=(n, d)), tuple(f"x{i}" for i in range(d)),
                     np.arange(n) % 2, ("a", "b"), "big")
        scaler = fit_scaler(ds)
        apply_scaler(ds.select(np.arange(2)), scaler)  # warm-up
        tracemalloc.start()
        try:
            scaled = apply_scaler(ds, scaler)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11_000_000, f"apply_scaler peaked at {peak / 1e6:.1f} MB"
        assert np.shares_memory(scaled.labels, ds.labels)
        assert not scaled.features.flags.writeable
        np.testing.assert_array_equal(scaled.features, (ds.features - scaler.means)
                                      / scaler.std_devs)

    def test_constant_column_passes_through_unchanged(self):
        ds = Dataset(
            features=np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]),
            feature_names=("a", "b"),
            labels=np.array([0, 1, 0]),
            class_names=("n", "p"),
            source_id="t",
        )
        scaled = apply_scaler(ds, fit_scaler(ds))
        np.testing.assert_allclose(scaled.features[:, 1], 0.0)

    def test_columns_near_the_float_limit_stay_finite(self):
        # the sums of the first two columns overflow; the third keeps its bytes
        n = np.arange(60)
        X = np.column_stack([
            np.where(n % 2, 1e308, -1e308),  # alternating
            np.where(n < 45, 1.7e308, -1.7e308),  # unbalanced
            n * 0.1,
        ])
        ds = Dataset(features=X, feature_names=("a", "b", "c"), labels=n % 2,
                     class_names=("n", "p"), source_id="t")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaler = fit_scaler(ds)
            scaled = apply_scaler(ds, scaler).features
        np.testing.assert_allclose(scaler.means[:2], [0.0, 0.85e308], rtol=1e-15)
        np.testing.assert_allclose(scaler.std_devs[:2], [1e308, 1.7e308 * 0.75 ** 0.5],
                                   rtol=1e-15)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-12)
        c = X[:, 2]
        np.testing.assert_array_equal(scaled[:, 2], (c - c.mean()) / c.std())

    def test_column_count_mismatch(self, toy):
        scaler = fit_scaler(toy)
        narrower = Dataset(
            features=toy.features[:, :2],
            feature_names=toy.feature_names[:2],
            labels=toy.labels,
            class_names=toy.class_names,
            source_id="t",
        )
        with pytest.raises(DataError):
            apply_scaler(narrower, scaler)


class TestStratifiedSplit:
    def test_partition_covers_dataset_exactly(self, breast_ds):
        split = stratified_split(breast_ds, SplitSpec(seed=3))
        ids = np.concatenate(
            [split.row_ids["private"], split.row_ids["public"], split.row_ids["test"]]
        )
        assert len(ids) == breast_ds.n_rows
        assert len(np.unique(ids)) == breast_ds.n_rows

    def test_sizes_follow_fractions(self, breast_ds):
        split = stratified_split(breast_ds, SplitSpec(seed=3))
        n = breast_ds.n_rows
        # stratified largest-remainder: each part within one row per class
        assert abs(split.private.n_rows - 0.5 * n) <= 2
        assert abs(split.public_pool.n_rows - 0.3 * n) <= 2
        assert abs(split.test.n_rows - 0.2 * n) <= 2

    def test_per_class_proportions_within_one(self, breast_ds):
        split = stratified_split(breast_ds, SplitSpec(seed=3))
        for c in range(2):
            total = int((breast_ds.labels == c).sum())
            private_c = int((split.private.labels == c).sum())
            test_c = int((split.test.labels == c).sum())
            assert abs(private_c - 0.5 * total) <= 1
            assert abs(test_c - 0.2 * total) <= 1

    def test_public_pool_is_unlabeled(self, breast_ds):
        split = stratified_split(breast_ds, SplitSpec(seed=3))
        assert split.public_pool.labels is None
        np.testing.assert_array_equal(
            split.public_pool.features, breast_ds.features[split.row_ids["public"]]
        )
        # the pool's true labels do not travel beside it
        assert [f.name for f in dataclasses.fields(split)] == [
            "private", "public_pool", "test", "row_ids"]

    def test_deterministic_in_seed(self, breast_ds):
        a = stratified_split(breast_ds, SplitSpec(seed=11))
        b = stratified_split(breast_ds, SplitSpec(seed=11))
        c = stratified_split(breast_ds, SplitSpec(seed=12))
        np.testing.assert_array_equal(a.row_ids["test"], b.row_ids["test"])
        assert not np.array_equal(a.row_ids["test"], c.row_ids["test"])

    def test_rejects_unlabeled_and_tiny_classes(self, toy):
        with pytest.raises(DataError):
            stratified_split(toy.without_labels(), SplitSpec())
        tiny = toy.select(np.arange(4))
        if np.unique(tiny.labels).size == 2:
            with pytest.raises(DataError):
                stratified_split(tiny, SplitSpec())

    def test_fraction_validation(self):
        with pytest.raises(DataError):
            SplitSpec(0.5, 0.3, 0.3)
        with pytest.raises(DataError):
            SplitSpec(1.0, 0.0, 0.0)

    def test_manifest_lists_row_ids(self, toy):
        import json

        spec = SplitSpec(seed=5)
        split = stratified_split(toy, spec)
        manifest = json.loads(split_manifest_json(split, spec))
        assert manifest["seed"] == 5
        assert manifest["counts"]["private"] == split.private.n_rows
        assert manifest["row_ids"]["test"] == [int(i) for i in split.row_ids["test"]]


class TestKfold:
    def test_every_row_assigned_and_sizes_balanced(self, heart_ds):
        k = 10
        assignment = kfold(heart_ds, k, seed=2)
        sizes = [len(assignment.test_indices(f)) for f in range(k)]
        assert sum(sizes) == heart_ds.n_rows
        assert max(sizes) - min(sizes) <= 1

    def test_stratified_within_one_per_class(self, heart_ds):
        k = 10
        assignment = kfold(heart_ds, k, seed=2)
        for c in range(2):
            per_fold = [
                int((heart_ds.labels[assignment.test_indices(f)] == c).sum())
                for f in range(k)
            ]
            assert max(per_fold) - min(per_fold) <= 1

    def test_train_test_disjoint(self, toy):
        assignment = kfold(toy, 4, seed=0)
        for f in range(4):
            overlap = np.intersect1d(
                assignment.test_indices(f), assignment.train_indices(f)
            )
            assert overlap.size == 0

    def test_deterministic(self, toy):
        a = kfold(toy, 5, seed=9)
        b = kfold(toy, 5, seed=9)
        np.testing.assert_array_equal(a.fold_of_sample, b.fold_of_sample)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deals_rows_round_robin_with_a_carried_cursor(self, heart_ds, seed):
        # reference: deal each class's shuffled rows out one at a time
        rng = generator(seed)
        expected = np.empty(heart_ds.n_rows, dtype=np.int64)
        cursor = 0
        for c in range(2):
            members = np.nonzero(heart_ds.labels == c)[0]
            for j, i in enumerate(members[rng.permutation(members.size)]):
                expected[i] = (cursor + j) % 7
            cursor = (cursor + members.size) % 7
        np.testing.assert_array_equal(
            kfold(heart_ds, 7, seed=seed).fold_of_sample, expected
        )

    def test_k_validation(self, toy):
        with pytest.raises(DataError):
            kfold(toy, 1, seed=0)
        with pytest.raises(DataError):
            kfold(toy, toy.n_rows + 1, seed=0)


class TestDataset:
    def test_label_values_must_fit_class_names(self):
        with pytest.raises(DataError):
            Dataset(
                features=np.zeros((2, 1)),
                feature_names=("a",),
                labels=np.array([0, 2]),
                class_names=("n", "p"),
                source_id="t",
            )

    def test_select_and_with_labels(self, toy):
        sub = toy.select(np.array([0, 2, 4]))
        assert sub.n_rows == 3
        np.testing.assert_array_equal(sub.labels, toy.labels[[0, 2, 4]])
        relabeled = toy.without_labels().with_labels(toy.labels)
        np.testing.assert_array_equal(relabeled.labels, toy.labels)

    def test_caller_arrays_are_copied(self):
        X, y = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1])
        ds = Dataset(X, ("a", "b"), y, ("n", "p"), "t")
        X[0, 0], y[0] = 99.0, 1
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    def test_relabeled_datasets_share_the_frozen_features(self, toy):
        labels = np.array(toy.labels)
        unlabeled = toy.without_labels()
        relabeled = unlabeled.with_labels(labels)
        for ds in (unlabeled, relabeled):
            assert np.shares_memory(ds.features, toy.features)
            assert not ds.features.flags.writeable
        assert not np.shares_memory(relabeled.labels, labels)  # a caller's array

    def test_relabeling_and_selecting_copy_no_matrix(self):
        # 100,000 x 11 features are 8.8 MB; each step allocates only its result
        n, d = 100_000, 11
        ds = Dataset(generator(8).normal(size=(n, d)), tuple(f"x{i}" for i in range(d)),
                     np.arange(n) % 2, ("a", "b"), "big")
        half = np.arange(0, n, 2)
        steps = {
            "without_labels": (ds.without_labels, 0),
            "with_labels": (lambda: ds.with_labels(ds.labels), ds.labels.nbytes),
            "select": (lambda: ds.select(half), (ds.features.nbytes + ds.labels.nbytes) // 2),
        }
        ds.select(half[:2]).without_labels().with_labels(half[:2] % 2)  # warm-up
        for name, (step, result_bytes) in steps.items():
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < result_bytes + 50_000, f"{name} peaked at {peak / 1e6:.2f} MB"

    def test_features_are_read_only(self, toy):
        with pytest.raises(ValueError):
            toy.features[0, 0] = 99.0
