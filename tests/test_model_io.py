import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from mimiclearn.classifiers import (
    ORIGIN_STUDENT,
    ORIGIN_TEACHER,
    ClassifierSpec,
    default_specs,
    fit,
    predict_batch,
    score_batch,
)
from mimiclearn.classifiers.svm import SvmModel
from mimiclearn.errors import DataError, ModelFormatError, PipelineError, PrivacyError
from mimiclearn.model_io import (
    MODEL_FORMAT_VERSION,
    export_model,
    file_json,
    import_model,
    model_to_file,
    parse_model_file,
)
from mimiclearn.rng import generator
from mimiclearn.synthetic import breast_cancer_like, cardio_like, heart_disease_like

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
        record = export_model(model, tmp_path / "m.json")
        assert record["created_at"] is None
        stamped = model_to_file(model, created_at="2024-01-01T00:00:00Z")
        assert stamped["created_at"] == "2024-01-01T00:00:00Z"

    def test_scaler_travels_with_scaled_families(self, toy, tmp_path):
        path = tmp_path / "svm.json"
        export_model(_student("svm", toy), path)
        payload = json.loads(path.read_text())
        assert payload["scaler"] is not None
        export_model(_student("nb", toy), path)
        assert json.loads(path.read_text())["scaler"] is None


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

    def test_wrong_vector_length(self, toy):
        payload = self._valid_payload(toy)
        payload["parameters"]["priors"] = [1.0]
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
