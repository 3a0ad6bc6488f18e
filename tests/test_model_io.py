import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mimiclearn
from mimiclearn.classifiers import (
    ORIGIN_STUDENT,
    ORIGIN_TEACHER,
    ClassifierSpec,
    ForestModel,
    NbModel,
    TrainedModel,
    TreeNodes,
    default_specs,
    fit,
    predict_batch,
    score_batch,
)
from mimiclearn.classifiers.svm import SvmModel
from mimiclearn.data import Dataset, ScalerParams
from mimiclearn.errors import DataError, ModelFormatError, PipelineError, PrivacyError
from mimiclearn.model_io import (
    MODEL_FORMAT_VERSION,
    export_model,
    file_json,
    import_model,
    model_text,
    model_to_file,
    parse_model_file,
)
from mimiclearn.rng import generator
from mimiclearn.synthetic import breast_cancer_like, cardio_like, heart_disease_like

from oracles import file_json_dumps, model_record

EXPORTABLE = ("svm", "rf", "nb")


def _student(kind, train, seed=3):
    hp = {"n_trees": 12, "max_depth": 5} if kind == "rf" else {}
    return fit(ClassifierSpec(kind, hp, seed=seed), train, ORIGIN_STUDENT)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", EXPORTABLE)
    def test_predictions_and_scores_survive_exactly(self, kind, heart_ds, tmp_path):
        model = _student(kind, heart_ds)
        path = tmp_path / f"{kind}.json"
        export_model(model, path)
        back = import_model(path)
        X = heart_ds.features[:60]
        np.testing.assert_array_equal(predict_batch(back, X), predict_batch(model, X))
        np.testing.assert_array_equal(score_batch(back, X), score_batch(model, X))
        assert back.class_names == model.class_names
        assert back.origin == ORIGIN_STUDENT
        assert back.spec == model.spec

    @pytest.mark.parametrize("kind", EXPORTABLE)
    def test_import_then_export_reproduces_the_file(self, kind, heart_ds):
        text = file_json(model_to_file(_student(kind, heart_ds)))
        assert file_json(model_to_file(parse_model_file(text))) == text

    @pytest.mark.parametrize("a,b", [(1 + 2**-52, 1 + 2**-51), (-5e-324, 0.0)])
    def test_forest_split_between_adjacent_floats_exports(self, a, b):
        # (a + b) / 2 rounds onto b; a threshold there sent both values left,
        # an empty right leaf that export refuses
        ds = Dataset(np.array([[a], [b], [a], [b]]), ("x",), np.array([0, 1, 0, 1]),
                     ("no", "yes"), "adjacent")
        model = fit(ClassifierSpec("rf", {"n_trees": 2, "max_depth": 3}, seed=1), ds,
                    ORIGIN_STUDENT)
        back = parse_model_file(file_json(model_to_file(model)))
        for tree in back.params.trees:
            assert tree.threshold[tree.feature >= 0].tolist() == [a]
        assert predict_batch(back, ds.features).tolist() == [0, 1, 0, 1]

    def test_export_refuses_a_model_that_would_not_import(self, toy):
        model = _student("svm", toy)
        broken = SvmModel(weights=model.params.weights * np.nan, bias=0.0)
        with pytest.raises(PipelineError, match="would not import"):
            model_to_file(dataclasses.replace(model, params=broken))

    def test_export_is_byte_deterministic(self, toy, tmp_path):
        model = _student("nb", toy)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        export_model(model, a)
        export_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_created_at_default_is_reproducible_null(self, toy, tmp_path):
        model = _student("svm", toy)
        path = tmp_path / "m.json"
        export_model(model, path)
        assert json.loads(path.read_text())["created_at"] is None

    @pytest.mark.parametrize("kind", EXPORTABLE)
    def test_a_timestamped_file_from_an_earlier_build_imports(self, kind):
        # earlier builds could write a string created_at; the reader drops it
        text = model_text(_heart_student(kind, 1))
        stamped = text.replace('"created_at": null', '"created_at": "2024-01-01T00:00:00Z"')
        assert stamped != text
        model, old = parse_model_file(text), parse_model_file(stamped)
        assert model_text(old) == text
        rows = heart_disease_like().features
        assert predict_batch(old, rows).tobytes() == predict_batch(model, rows).tobytes()
        assert score_batch(old, rows).tobytes() == score_batch(model, rows).tobytes()

    def test_failed_export_keeps_the_old_file(self, toy, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        export_model(_student("svm", toy), path)
        old = path.read_bytes()

        def fail(*args, **kwargs):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            export_model(_student("nb", toy), path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_scaler_travels_with_scaled_families(self, toy, tmp_path):
        path = tmp_path / "svm.json"
        export_model(_student("svm", toy), path)
        payload = json.loads(path.read_text())
        assert payload["scaler"] is not None
        export_model(_student("nb", toy), path)
        assert json.loads(path.read_text())["scaler"] is None


@functools.cache
def _heart_student(kind, seed):
    """A student of ``kind`` fit on heart_disease_like at ``seed``, fit once."""
    return _student(kind, heart_disease_like(), seed)


def _as_lists(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    return [_as_lists(v) for v in value] if isinstance(value, list) else value


_RECORDS = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=6)
    | hnp.arrays(st.sampled_from([np.int64, np.float64]),
                 hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=4),
    max_leaves=12,
)


class TestWriter:
    @given(kind=st.sampled_from(EXPORTABLE), seed=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_students_are_written_as_the_standard_encoder_writes_them(self, kind, seed):
        model = _heart_student(kind, seed)
        record = model_record(model)
        expected = file_json_dumps(record)
        assert model_text(model) == expected
        assert file_json(record) == expected  # nested lists, as model_to_file returns
        assert model_to_file(model) == record

    @given(record=st.dictionaries(st.text(max_size=4), _RECORDS, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_any_record_is_written_as_the_standard_encoder_writes_it(self, record):
        """Arrays of any shape, empty ones, infinities, NaNs, bools, big ints
        and escaped strings: file_json writes the bytes json.dumps writes."""
        assert file_json(record) == file_json_dumps(_as_lists(record))

    @pytest.mark.parametrize("kind", EXPORTABLE)
    def test_export_decodes_the_bytes_it_wrote(self, kind):
        """A writer that turns the first number of the first numeric list into
        1e999 (an infinity once parsed) is caught by the self-check."""
        def corrupt(record):
            return re.sub(r"(\[\s+)-?[0-9][0-9.e+-]*", r"\g<1>1e999", file_json(record),
                          count=1)

        model = _heart_student(kind, 1)
        assert corrupt(model_record(model)) != model_text(model)
        with pytest.raises(PipelineError, match="would not import again"):
            model_text(model, encode=corrupt)


class TestPrivacyRefusals:
    @pytest.mark.parametrize("kind", ("svm", "knn", "rf", "nb"))
    def test_teacher_models_never_serialize(self, kind, toy, tmp_path):
        teacher = fit(ClassifierSpec(kind, {}, seed=1), toy, ORIGIN_TEACHER)
        with pytest.raises(PrivacyError, match="teacher"):
            export_model(teacher, tmp_path / "t.json")
        assert not (tmp_path / "t.json").exists()

    def test_knn_student_never_serializes(self, toy, tmp_path):
        student = fit(ClassifierSpec("knn", {}, seed=1), toy, ORIGIN_STUDENT)
        with pytest.raises(PrivacyError, match="training rows"):
            export_model(student, tmp_path / "k.json")

    def test_teacher_origin_in_file_refused_at_import(self, toy, tmp_path):
        payload = model_to_file(_student("nb", toy))
        payload["origin"] = ORIGIN_TEACHER
        with pytest.raises(PrivacyError):
            parse_model_file(json.dumps(payload))

    def test_knn_kind_in_file_refused_at_import(self, toy):
        record = model_to_file(_student("nb", toy))
        record["kind"] = "knn"
        record["hyperparameters"] = {"n_neighbors": 8}
        with pytest.raises(PrivacyError):
            parse_model_file(json.dumps(record))

    @pytest.mark.parametrize("kind", EXPORTABLE)
    def test_no_private_row_appears_in_export(self, kind, breast_ds, tmp_path):
        """No length-d numeric array in the file may equal a training row."""
        model = _student(kind, breast_ds)
        path = tmp_path / "s.json"
        export_model(model, path)
        payload = json.loads(path.read_text())
        d = breast_ds.n_features
        rows = {tuple(r) for r in breast_ds.features}

        def walk(node):
            if isinstance(node, list):
                if len(node) == d and all(
                    isinstance(v, (int, float)) for v in node
                ):
                    assert tuple(float(v) for v in node) not in rows
                for child in node:
                    walk(child)
            elif isinstance(node, dict):
                for child in node.values():
                    walk(child)

        walk(payload)


_CELLS = st.floats(-1e6, 1e6, allow_nan=False)
_HYPERPARAMETERS = {
    "svm": st.fixed_dictionaries({"reg_lambda": st.sampled_from([1e-4, 0.01, 1.0]),
                                  "epochs": st.integers(1, 3)}),
    "rf": st.fixed_dictionaries({"n_trees": st.integers(1, 5),
                                 "max_depth": st.integers(0, 4),
                                 "min_split": st.integers(2, 4)}),
    "nb": st.fixed_dictionaries({"var_smoothing": st.sampled_from([1e-9, 1e-3])}),
}


@pytest.mark.parametrize("kind", EXPORTABLE)
@given(data=st.data(), n_features=st.integers(1, 4), n_rows=st.integers(2, 12),
       seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_exported_students_round_trip_exactly(kind, data, n_features, n_rows, seed):
    """On small random two-class data, export either refuses with
    PipelineError or writes a file whose model predicts and scores
    bit-identically and exports to the same bytes again."""
    X = np.array(data.draw(st.lists(st.lists(_CELLS, min_size=n_features,
                                             max_size=n_features),
                                    min_size=n_rows, max_size=n_rows)))
    # the first two rows hold one class each, so every fit sees both
    y = np.array([0, 1] + data.draw(st.lists(st.integers(0, 1), min_size=n_rows - 2,
                                             max_size=n_rows - 2)))
    ds = Dataset(features=X, feature_names=tuple(f"f{i}" for i in range(n_features)),
                 labels=y, class_names=("no", "yes"), source_id="hypothesis")
    spec = ClassifierSpec(kind, data.draw(_HYPERPARAMETERS[kind]), seed=seed)
    model = fit(spec, ds, ORIGIN_STUDENT)
    try:
        text = file_json(model_to_file(model))
    except PipelineError:
        return
    back = parse_model_file(text)
    assert predict_batch(back, X).tobytes() == predict_batch(model, X).tobytes()
    assert score_batch(back, X).tobytes() == score_batch(model, X).tobytes()
    assert file_json(model_to_file(back)) == text


@functools.cache
def _small_export(kind):
    """The file of a small student: nb, svm, or rf with two shallow trees."""
    hp = {"n_trees": 2, "max_depth": 3} if kind == "rf" else {}
    train = heart_disease_like().select(np.arange(40))
    return model_text(fit(ClassifierSpec(kind, hp, seed=2), train, ORIGIN_STUDENT))


_FRAGMENTS = st.one_of(
    st.sampled_from(["", ",", ":", "[", "]", "{", "}", '"', "null", "true", "false", "0", "1",
                     "-1", "2", "-0.0", "0.5", "1e308", "1e999", "NaN", "Infinity", "[]", "{}",
                     "[1, 2]", '"x"', '"rf"', '"svm"', '"nb"', '"knn"', '"teacher-private"',
                     '"student-shareable"', '"n_trees": 1', '"kind": "nb"', "9" * 30]),
    st.integers(-5, 40).map(str),
    st.floats().map(repr),
)


@pytest.mark.parametrize("kind", EXPORTABLE)
@given(splices=st.lists(st.tuples(st.floats(0, 1), st.integers(0, 12), _FRAGMENTS),
                        min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_mutated_model_files_are_refused_or_round_trip(kind, splices):
    """A model file with 1-3 spans replaced by JSON fragments is refused with
    ModelFormatError or PrivacyError, or imports as a model whose file
    imports and renders to the same bytes again."""
    text = _small_export(kind)
    for where, length, fragment in splices:
        at = round(where * len(text))
        text = text[:at] + fragment + text[at + length:]
    try:
        model = parse_model_file(text)
    except (ModelFormatError, PrivacyError):
        return
    again = model_text(model)
    assert model_text(parse_model_file(again)) == again


# (family, path to a field of its model file, a value the import must refuse)
BAD_FIELDS = [
    ("rf", ("parameters", "trees"), [1]),
    ("rf", ("parameters", "trees", 0, "counts", 0), [1]),
    ("rf", ("parameters", "trees", 0, "counts", 0), [0.5, 1]),
    ("rf", ("hyperparameters", "max_depth"), 2.5),
    ("rf", ("hyperparameters", "max_depth"), 2.0),
    ("nb", ("parameters", "priors"), ["a", "b"]),
    ("nb", ("seed",), True),
    ("svm", ("scaler", "means", 0), "x"),
    ("svm", ("parameters", "bias"), True),
    ("svm", ("parameters", "bias"), 2**1024),
    ("rf", ("hyperparameters", "n_trees"), 10**30),
    ("svm", ("hyperparameters", "reg_lambda"), 1e-310),
    ("nb", ("class_names",), ["a", "a"]),
    ("rf", ("parameters", "trees", 0, "feature", 0), 2**63),
    ("rf", ("parameters", "trees", 0, "right", 0), 1),  # node 1 shared, one orphaned
    ("rf", ("hyperparameters", "n_trees"), 1000),
    ("rf", ("hyperparameters", "max_depth"), 0),
    ("nb", ("created_at",), 5),  # earlier builds wrote a string or null
]


class TestFormatValidation:
    def _valid_payload(self, toy):
        return model_to_file(_student("nb", toy))

    @pytest.mark.parametrize(
        "kind, path, value", BAD_FIELDS,
        ids=[f"{k}-{'.'.join(map(str, p))}={v!r}"[:60] for k, p, v in BAD_FIELDS],
    )
    def test_malformed_field_refused(self, kind, path, value, toy):
        payload = model_to_file(_student(kind, toy))
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ModelFormatError):
            parse_model_file(json.dumps(payload))

    def test_truncated_json(self, toy):
        text = file_json(model_to_file(_student("nb", toy)))
        with pytest.raises(ModelFormatError):
            parse_model_file(text[: len(text) // 2])

    def test_not_an_object(self):
        for text in ("[1, 2, 3]", "[" * 100_000 + "]" * 100_000):
            with pytest.raises(ModelFormatError):
                parse_model_file(text)

    def test_future_version_refused(self, toy):
        payload = self._valid_payload(toy)
        payload["format_version"] = 999
        with pytest.raises(ModelFormatError, match="version"):
            parse_model_file(json.dumps(payload))
        assert MODEL_FORMAT_VERSION == 1

    def test_missing_key(self, toy):
        payload = self._valid_payload(toy)
        del payload["parameters"]
        with pytest.raises(ModelFormatError):
            parse_model_file(json.dumps(payload))

    def test_unknown_kind(self, toy):
        payload = self._valid_payload(toy)
        payload["kind"] = "perceptron"
        with pytest.raises(ModelFormatError):
            parse_model_file(json.dumps(payload))

    def test_priors_must_sum_to_one(self, toy):
        payload = self._valid_payload(toy)
        payload["parameters"]["priors"] = [0.9, 0.3]
        with pytest.raises(ModelFormatError, match="priors"):
            parse_model_file(json.dumps(payload))

    def test_variances_must_be_positive(self, toy):
        payload = self._valid_payload(toy)
        payload["parameters"]["variances"][0][0] = 0.0
        with pytest.raises(ModelFormatError):
            parse_model_file(json.dumps(payload))

    def test_tree_children_must_point_forward(self, heart_ds, tmp_path):
        model = _student("rf", heart_ds)
        payload = model_to_file(model)
        tree = payload["parameters"]["trees"][0]
        if tree["feature"][0] >= 0:  # root is internal in any grown tree
            tree["left"][0] = 0  # self-loop
        with pytest.raises(ModelFormatError):
            parse_model_file(json.dumps(payload))

    @pytest.mark.parametrize("kind", EXPORTABLE)
    def test_every_array_field_is_checked(self, kind, toy):
        """Dropping, shortening, or putting a string or a bool into any array of
        the scaler or the parameters (every tree's included) is refused."""
        record = model_to_file(_student(kind, toy))

        def arrays(node):  # (object, key) of every list of numbers or of lists
            for key, value in node.items():
                if isinstance(value, list) and value and isinstance(value[0], dict):
                    for item in value:
                        yield from arrays(item)
                elif isinstance(value, list):
                    yield node, key
                elif isinstance(value, dict):
                    yield from arrays(value)

        def with_first(value, first):
            value = json.loads(json.dumps(value))
            inner = value
            while isinstance(inner[0], list):
                inner = inner[0]
            inner[0] = first
            return value

        sections = {"parameters": record["parameters"], "scaler": record["scaler"] or {}}
        found = list(arrays(sections))
        assert len(found) >= 2
        for node, key in found:
            value = node[key]
            for edit in ("drop", value[:-1], with_first(value, "x"), with_first(value, True)):
                if edit == "drop":
                    del node[key]
                else:
                    node[key] = edit
                with pytest.raises(ModelFormatError):
                    parse_model_file(json.dumps(record))
                node[key] = value
        parse_model_file(json.dumps(record))

    @pytest.mark.parametrize("kind, path", [
        ("rf", ("parameters", "trees", 0, "feature", 2)),
        ("svm", ("parameters", "weights", 0)),
        ("nb", ("parameters", "means", 0, 0)),
    ], ids=["rf", "svm", "nb"])
    def test_bool_inside_an_array_is_refused(self, kind, path):
        """numpy reads [true, 2] as integers, so a bool in an array imported as
        1 and exported to other bytes; the layout check refuses it first."""
        payload = model_to_file(_heart_student(kind, 1))
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = True
        field = [key for key in path if isinstance(key, str)][-1]
        with pytest.raises(ModelFormatError, match=f"{field} must hold"):
            parse_model_file(json.dumps(payload))

    def test_tree_counts_must_be_nonnegative(self, heart_ds):
        payload = model_to_file(_student("rf", heart_ds))
        tree = payload["parameters"]["trees"][0]
        leaf = tree["feature"].index(-1)
        tree["counts"][leaf] = [-1, 2]
        with pytest.raises(ModelFormatError):
            parse_model_file(json.dumps(payload))

    def test_import_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            import_model(tmp_path / "absent.json")


class TestHandBuiltFile:
    def test_nb_file_written_by_hand_predicts_by_the_formula(self, tmp_path):
        """A file built from known Gaussians imports into a model whose
        decisions match the densities computed with plain math."""
        payload = {
            "format_version": 1,
            "kind": "nb",
            "hyperparameters": {"var_smoothing": 1e-9},
            "seed": 0,
            "origin": ORIGIN_STUDENT,
            "class_names": ["low", "high"],
            "n_features": 1,
            "scaler": None,
            "parameters": {
                "priors": [0.5, 0.5],
                "means": [[0.0], [4.0]],
                "variances": [[1.0], [1.0]],
                "epsilon": 1e-9,
            },
            "created_at": None,
        }
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        model = import_model(path)
        rng = generator(8)
        for x in rng.uniform(-3.0, 7.0, size=25):
            log_low = -0.5 * (math.log(2 * math.pi) + x**2)
            log_high = -0.5 * (math.log(2 * math.pi) + (x - 4.0) ** 2)
            expected = int(log_high > log_low)
            assert predict_batch(model, np.array([[x]]))[0] == expected


def _hand_built(kind):
    """A student of ``kind`` built without a fit, and its model file object."""
    params, scaler, parameters, scaler_json = {
        "svm": (
            SvmModel(weights=np.array([0.5, -1.25]), bias=0.75),
            ScalerParams(means=np.array([1.0, 2.0]), std_devs=np.array([0.5, 4.0])),
            {"weights": [0.5, -1.25], "bias": 0.75},
            {"means": [1.0, 2.0], "std_devs": [0.5, 4.0]},
        ),
        "nb": (
            NbModel(priors=np.array([0.25, 0.75]),
                    means=np.array([[0.0, 1.0], [2.0, 3.0]]),
                    variances=np.array([[1.0, 0.5], [2.0, 0.25]]), epsilon=1e-9),
            None,
            {"priors": [0.25, 0.75], "means": [[0.0, 1.0], [2.0, 3.0]],
             "variances": [[1.0, 0.5], [2.0, 0.25]], "epsilon": 1e-9},
            None,
        ),
        "rf": (
            ForestModel(trees=(TreeNodes(
                feature=np.array([1, -1, -1]), threshold=np.array([0.5, 0.0, 0.0]),
                left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
                counts=np.array([[3, 2], [3, 0], [0, 2]]),
            ),), n_features=2, n_classes=2),
            None,
            {"n_classes": 2, "trees": [{
                "feature": [1, -1, -1], "threshold": [0.5, 0.0, 0.0],
                "left": [1, -1, -1], "right": [2, -1, -1],
                "counts": [[3, 2], [3, 0], [0, 2]],
            }]},
            None,
        ),
    }[kind]
    spec = ClassifierSpec(kind, {"n_trees": 1} if kind == "rf" else {}, seed=5)
    model = TrainedModel(spec=spec, params=params, class_names=("no", "yes"),
                         scaler=scaler, origin=ORIGIN_STUDENT)
    record = {
        "format_version": 1,
        "kind": kind,
        "hyperparameters": dict(spec.hyperparameters),
        "seed": 5,
        "origin": ORIGIN_STUDENT,
        "class_names": ["no", "yes"],
        "n_features": 2,
        "scaler": scaler_json,
        "parameters": parameters,
        "created_at": None,
    }
    return model, record


@pytest.mark.parametrize("kind", EXPORTABLE)
def test_hand_built_model_writes_the_literal_layout(kind):
    """The file layout of each family, pinned without host arithmetic: key
    names, list nesting, and which numbers are written as ints."""
    model, expected = _hand_built(kind)
    record = model_to_file(model)
    assert record == expected
    params = record["parameters"]
    if kind == "rf":
        tree = params["trees"][0]
        ints = tree["feature"] + tree["left"] + tree["right"] + sum(tree["counts"], [])
        assert all(type(v) is int for v in ints)
        assert all(type(v) is float for v in tree["threshold"])
    else:
        assert type(params["bias" if kind == "svm" else "epsilon"]) is float
    text = file_json(record)
    assert model_to_file(parse_model_file(text)) == expected
    assert file_json(model_to_file(parse_model_file(text))) == text


@pytest.mark.parametrize("kind", EXPORTABLE)
def test_scaler_that_contradicts_the_family_is_refused(kind):
    """svm is fit on standardized rows and rf and nb on raw ones, so an svm
    file without a scaler, or an rf or nb file with one, would predict on
    rows scaled unlike its training rows."""
    _, record = _hand_built(kind)
    flipped = {"means": [1.0, 2.0], "std_devs": [0.5, 4.0]} if record["scaler"] is None else None
    with pytest.raises(ModelFormatError, match="scaler"):
        parse_model_file(file_json({**record, "scaler": flipped}))


# sha256 of file_json(model_to_file(...)) for rf students fit on the bundled
# generators (not on CSVs under data/, which would move them); a forest change
# that moves any tree byte changes these
GOLDEN_RF_DIGESTS = {
    ("breast", 1, "default"): "f91786dd76e31c44410cd67a9cd959a092bab1fa522ebedbb768ee1fc007775d",
    ("breast", 2, "default"): "9dad521a226cde462276e0703f6fca2498a37501ffb2a7ffa65cc9048a28c2fa",
    ("heart", 1, "default"): "c8f29d21647095765754b0f7313b77c1f5f576134a492271065ed33f8c1f1a4a",
    ("heart", 2, "default"): "742124618523652e4e0f5ac1ee86b9420ecb570fc55e20efc5de1d246bc715af",
    ("cardio", 1, "default"): "f491e9b248197257a7f18fe9727c08a7a285f579e1e6b33825af023e282d4486",
    ("cardio", 2, "default"): "ee19a39e578ba0aa6a71d05035715f247bc20c68bc75b5b63761ec49df89028a",
    ("breast", 1, "small"): "d5f10cc07966ef70fe5af4d15fe4cc7e720c92216a75b70c72f70493ed611719",
    ("heart", 1, "small"): "cf63e0075231cd75b9583be096a7d60a5e5b8e526dce2da72422071e86715db8",
    ("cardio", 1, "small"): "99a1c647ca15366f5c799333fe38971f9eee2209462916911a63c90872f3e0b1",
}
GOLDEN_DATASETS = {
    "breast": breast_cancer_like,
    "heart": heart_disease_like,
    "cardio": cardio_like,
}
SMALL_RF = {"n_trees": 7, "max_depth": 4, "min_split": 5}


@pytest.mark.parametrize(
    "key", sorted(GOLDEN_RF_DIGESTS), ids=lambda key: "-".join(map(str, key))
)
def test_rf_student_file_matches_golden_digest(key):
    name, seed, config = key
    spec = default_specs(seed)[2]
    assert spec.kind == "rf"
    if config == "small":
        spec = ClassifierSpec("rf", SMALL_RF, seed=spec.seed)
    model = fit(spec, GOLDEN_DATASETS[name](), ORIGIN_STUDENT)
    digest = hashlib.sha256(file_json(model_to_file(model)).encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_RF_DIGESTS[key]


# (sha256 of file_json(model_to_file(...)), sha256 of the score_batch bytes on
# the generator's rows) for default svm students fit on the bundled
# generators; the svm sums with math.fsum and never calls BLAS, so these hold
# under every BLAS kernel (the child-process test below checks two more)
GOLDEN_SVM_DIGESTS = {
    ("breast", 1): (
        "ba78b291a952c42000d230eb997d6b3492af833652f8c4012666cd415188978a",
        "8d55f19a7252c79bf9a2ed81da0de2a5274521ee145818bff58fe7f9962b6502",
    ),
    ("breast", 2): (
        "8e89e086a5beb7af01236d3677b95e2c1d8d63042cf62d98738c81c320bc6ebc",
        "3fd1a48f50559068689ffd150af29c9850a5ed7a00ac4d934d0e8aaedb857f82",
    ),
    ("heart", 1): (
        "68cdba13847f154ca1ab943ab2c1d60be992118f0b6ccc0a40082fddb4c2a085",
        "318950919da6f9dea34e358c934922ea96aa6c3b8e22608fc1386c5dabe04786",
    ),
    ("heart", 2): (
        "d0a360663aa98163de9f26f7f5150b34ef001085cf62961c3fd40a28aba8fb03",
        "6d1924c86492bfd2b05f3d4b4b290cb2d4d8bda1d3818f72431704f720d551e2",
    ),
    ("cardio", 1): (
        "d316bae5ba12876beb8f287dbc176cbb65820790a2b63b7bcbed6b6dc442f94c",
        "d23043d285bad0eaf3a5dbf04bfe8952feb5deaa7a827b57752dbe4245889e1c",
    ),
    ("cardio", 2): (
        "d6c0969407b0f1c78e5bfb07eee9a2c459183366ce6091c7b801190162eaa4c6",
        "af95871b706e8a233307562dca1b5d430fd803ce14291f5f9f4b029760cb9c0a",
    ),
}


@pytest.mark.parametrize(
    "key", sorted(GOLDEN_SVM_DIGESTS), ids=lambda key: "-".join(map(str, key))
)
def test_svm_student_file_matches_golden_digest(key):
    name, seed = key
    spec = default_specs(seed)[0]
    assert spec.kind == "svm"
    ds = GOLDEN_DATASETS[name]()
    model = fit(spec, ds, ORIGIN_STUDENT)
    file_digest = hashlib.sha256(file_json(model_to_file(model)).encode("utf-8"))
    score_digest = hashlib.sha256(score_batch(model, ds.features).tobytes())
    assert (file_digest.hexdigest(), score_digest.hexdigest()) == GOLDEN_SVM_DIGESTS[key]


# prints the name of the OpenBLAS kernel numpy runs on, or nothing when
# numpy's BLAS is not an OpenBLAS that can report it
_OPENBLAS_CORE_PROBE = """
import ctypes, glob, os, numpy
blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
dirs = [os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs"),
        blas.get("lib directory") or ""]
for path in sorted(p for d in dirs for p in glob.glob(os.path.join(d, "*openblas*.so*"))):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                   "openblas_get_corename64_", "openblas_get_corename"):
        if hasattr(lib, symbol):
            getattr(lib, symbol).restype = ctypes.c_char_p
            print(getattr(lib, symbol)().decode())
            raise SystemExit
"""


@pytest.mark.parametrize("core", ["Sandybridge", "Haswell"])
def test_svm_golden_digests_hold_under_another_blas_kernel(core):
    """The svm digests again, in a child process on another OpenBLAS kernel.

    Only the child's environment names the kernel. Where OpenBLAS cannot run
    that kernel here (another CPU family, or another BLAS), the child would
    not test what this test claims, so it is skipped.
    """
    package_root = str(Path(mimiclearn.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    root = Path(__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-c", _OPENBLAS_CORE_PROBE],
        env=env, cwd=root, capture_output=True, text=True, timeout=60,
    )
    active = probe.stdout.strip()
    if probe.returncode != 0 or active != core:
        pytest.skip(f"OpenBLAS kernel {core} is not available here "
                    f"(active kernel: {active or 'unknown'})")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_svm_student_file_matches_golden_digest"],
        env=env, cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert f"{len(GOLDEN_SVM_DIGESTS)} passed" in child.stdout, child.stdout
