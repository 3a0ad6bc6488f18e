import json
import math
import tracemalloc

import numpy as np
import pytest

import mimiclearn
from mimiclearn import classifiers
from mimiclearn.classifiers import (
    FAMILIES,
    ORIGIN_STUDENT,
    ORIGIN_TEACHER,
    ClassifierSpec,
    default_specs,
    fit,
    predict_batch,
)
from mimiclearn.data import Dataset, SplitSpec, kfold, stratified_split
from mimiclearn.errors import DataError, PipelineError
from mimiclearn.mimic import (
    PipelineConfig,
    _cross_validate,
    annotate,
    evaluate_fidelity,
    run_json,
    run_pipeline,
    train_student,
    train_teacher,
)
from mimiclearn.rng import STAGE_FOLDS, STAGE_SPLIT, derive_seed, generator
from mimiclearn.synthetic import cardio_like, heart_disease_like

from oracles import cross_validate_foldwise, threshold_toy


def _assert_same_model(a, b):
    """Byte-level parameter equality, covering every family."""
    assert a.spec == b.spec
    for name in vars(a.params):
        va, vb = getattr(a.params, name), getattr(b.params, name)
        if isinstance(va, np.ndarray):
            np.testing.assert_array_equal(va, vb)
        elif isinstance(va, tuple) and va and hasattr(va[0], "feature"):
            assert len(va) == len(vb)
            for ta, tb in zip(va, vb):
                np.testing.assert_array_equal(ta.feature, tb.feature)
                np.testing.assert_array_equal(ta.threshold, tb.threshold)
                np.testing.assert_array_equal(ta.left, tb.left)
                np.testing.assert_array_equal(ta.right, tb.right)
                np.testing.assert_array_equal(ta.counts, tb.counts)
        else:
            assert va == vb

SMALL_SPECS = (
    ClassifierSpec("svm", {}, seed=1),
    ClassifierSpec("knn", {}, seed=2),
    ClassifierSpec("rf", {"n_trees": 15, "max_depth": 6}, seed=3),
    ClassifierSpec("nb", {}, seed=4),
)


def _recomputed_winner(race):
    """Independent restatement of the selection rule used by the races."""
    def key(i):
        report = race.reports[i]
        primary = (
            report.mean_accuracy
            if race.selection_metric == "accuracy"
            else report.mean_macro_f1
        )
        return (primary, report.mean_macro_f1, -i)

    return max(range(len(race.reports)), key=key)


class TestConfig:
    def test_validation(self):
        with pytest.raises(PipelineError):
            PipelineConfig(specs=())
        with pytest.raises(PipelineError):
            PipelineConfig(specs=SMALL_SPECS, cv_k=1)
        with pytest.raises(PipelineError):
            PipelineConfig(specs=SMALL_SPECS, selection_metric="recall")
        with pytest.raises(DataError):
            PipelineConfig(specs=SMALL_SPECS, fractions=(0.7, 0.2, 0.2))

    @pytest.mark.parametrize("field, value", [
        ("cv_k", 3.0), ("cv_k", True), ("seed", 1.5), ("seed", "7"),
        ("seed", True), ("fractions", (0.5, 0.5, 0)), ("fractions", [1, 0.0, 0.0]),
        ("specs", ("nb",)),
    ], ids=repr)
    def test_wrongly_typed_value_is_a_pipeline_error(self, field, value):
        message = f"{field} must be (an integer|a list of three floats|ClassifierSpec)"
        with pytest.raises(PipelineError, match=message):
            PipelineConfig(**{"specs": SMALL_SPECS, field: value})

    def test_json_dict_reads_back(self):
        config = PipelineConfig(specs=SMALL_SPECS, seed=7, cv_k=4,
                                selection_metric="macro_f1")
        raw = config.to_json_dict()
        del raw["seed"]
        assert PipelineConfig.from_json_dict(raw, 7) == config
        assert PipelineConfig.from_json_dict({}, 7) == PipelineConfig(
            specs=default_specs(7), seed=7)


class TestRace:
    def test_winner_maximizes_selection_metric(self, heart_ds):
        split = stratified_split(heart_ds, SplitSpec(seed=derive_seed(2, STAGE_SPLIT)))
        for metric in ("accuracy", "macro_f1"):
            config = PipelineConfig(
                specs=SMALL_SPECS, seed=2, cv_k=5, selection_metric=metric
            )
            _, race = train_teacher(split.private, config)
            assert race.winner_index == _recomputed_winner(race)
            assert race.selection_metric == metric
            assert len(race.reports) == len(SMALL_SPECS)
            for report in race.reports:
                assert len(report.fold_accuracies) == 5

    def test_exact_tie_prefers_registration_order(self, toy):
        spec = ClassifierSpec("nb", {}, seed=5)
        config = PipelineConfig(specs=(spec, spec), seed=5, cv_k=4)
        _, race = train_teacher(toy, config)
        assert race.reports[0].mean_accuracy == race.reports[1].mean_accuracy
        assert race.winner_index == 0


    def test_default_race_grows_rf_folds_two_per_wave(self, monkeypatch):
        # run-cardio's teacher race: a default config on the 700-row private
        # part of cardio_like grows its rf folds in ceil(k / 2) waves of two
        dataset = cardio_like()
        private = stratified_split(dataset, SplitSpec(seed=derive_seed(1, STAGE_SPLIT))).private
        config = PipelineConfig(specs=default_specs(1), seed=1)
        waves, grow = [], classifiers.fit_forests

        def counted(X, y, subsets, *args):
            waves.append(len(subsets))
            return grow(X, y, subsets, *args)

        monkeypatch.setattr(classifiers, "fit_forests", counted)
        _, race = train_teacher(private, config)
        assert private.n_rows == 700 and waves == [2] * math.ceil(config.cv_k / 2)
        assignment = kfold(private, config.cv_k, derive_seed(1, STAGE_FOLDS))
        rf = race.reports[FAMILIES.index("rf")]
        assert rf == cross_validate_foldwise(rf.spec, private, assignment)

    @pytest.mark.parametrize("cv_k", [2, 5])
    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda spec: spec.kind)
    def test_fold_scores_equal_fold_by_fold_fits(self, heart_ds, spec, cv_k):
        # an odd k leaves rf a lone last fold
        assignment = kfold(heart_ds, cv_k, 7)
        assert _cross_validate(spec, heart_ds, assignment) == cross_validate_foldwise(
            spec, heart_ds, assignment)


class TestAnnotate:
    def test_size_and_label_set_invariants(self, heart_ds):
        split = stratified_split(heart_ds, SplitSpec(seed=derive_seed(1, STAGE_SPLIT)))
        teacher = fit(
            ClassifierSpec("rf", {"n_trees": 15}, seed=1), split.private, ORIGIN_TEACHER
        )
        ann = annotate(teacher, split.public_pool)
        assert ann.labels.shape == (split.public_pool.n_rows,)
        assert set(np.unique(ann.labels)) <= {0, 1}
        assert ann.class_names == teacher.class_names
        np.testing.assert_array_equal(ann.features, split.public_pool.features)

    def test_annotations_are_teacher_predictions(self, toy):
        split = stratified_split(toy, SplitSpec(seed=derive_seed(4, STAGE_SPLIT)))
        teacher = fit(ClassifierSpec("nb", {}, seed=4), split.private, ORIGIN_TEACHER)
        ann = annotate(teacher, split.public_pool)
        np.testing.assert_array_equal(
            ann.labels, predict_batch(teacher, split.public_pool.features)
        )
        # the pool's frozen features are shared, not copied again
        assert np.shares_memory(ann.features, split.public_pool.features)
        assert not ann.features.flags.writeable and not ann.labels.flags.writeable

    def test_nb_annotation_peak_allocation_stays_bounded(self, cardio_ds):
        # a 100,000 x 11 pool (8.8 MB of features) labeled by an nb teacher;
        # two fresh temporaries of the pool's shape per class peaked at 20.1 MB
        teacher = fit(ClassifierSpec("nb", {}, seed=1), cardio_ds, ORIGIN_TEACHER)
        features = generator(1).normal(size=(100_000, cardio_ds.n_features))
        pool = Dataset(features, cardio_ds.feature_names, None, (), "pool")
        annotate(teacher, pool.select(np.arange(10)))  # warm-up: first calls
        tracemalloc.start()
        try:
            annotate(teacher, pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15_000_000, f"nb annotation peaked at {peak / 1e6:.1f} MB"

    def test_refuses_student_model_and_labeled_pool(self, toy):
        split = stratified_split(toy, SplitSpec(seed=derive_seed(4, STAGE_SPLIT)))
        student = fit(ClassifierSpec("nb", {}, seed=4), split.private, ORIGIN_STUDENT)
        with pytest.raises(PipelineError, match="teacher"):
            annotate(student, split.public_pool)
        teacher = fit(ClassifierSpec("nb", {}, seed=4), split.private, ORIGIN_TEACHER)
        labeled_pool = split.public_pool.with_labels(toy.labels[split.row_ids["public"]])
        with pytest.raises(PipelineError, match="unlabeled"):
            annotate(teacher, labeled_pool)


class TestStudent:
    def test_poisoned_pool_labels_cannot_reach_the_student(self, breast_ds):
        """Students are bit-identical whether the pool's true labels are
        intact or flipped: annotation depends on features and teacher only."""
        split = stratified_split(
            breast_ds, SplitSpec(seed=derive_seed(3, STAGE_SPLIT))
        )
        config = PipelineConfig(specs=SMALL_SPECS, seed=3, cv_k=5)
        teacher = fit(
            ClassifierSpec("rf", {"n_trees": 15}, seed=3), split.private, ORIGIN_TEACHER
        )

        poisoned_labels = np.array(breast_ds.labels)
        pool_rows = split.row_ids["public"]
        poisoned_labels[pool_rows] = 1 - poisoned_labels[pool_rows]
        poisoned_source = breast_ds.with_labels(poisoned_labels)
        poisoned_pool = poisoned_source.select(pool_rows).without_labels()

        student_a, _ = train_student(annotate(teacher, split.public_pool), config)
        student_b, _ = train_student(annotate(teacher, poisoned_pool), config)
        _assert_same_model(student_a, student_b)

    def test_single_class_annotation_rejected(self, toy):
        split = stratified_split(toy, SplitSpec(seed=derive_seed(4, STAGE_SPLIT)))
        teacher = fit(ClassifierSpec("nb", {}, seed=4), split.private, ORIGIN_TEACHER)
        ann = annotate(teacher, split.public_pool)
        one_class = ann.with_labels(np.zeros_like(ann.labels))
        with pytest.raises(PipelineError, match="one class"):
            train_student(one_class, PipelineConfig(specs=SMALL_SPECS, cv_k=4))
        with pytest.raises(DataError, match="labeled"):
            train_student(ann.without_labels(), PipelineConfig(specs=SMALL_SPECS, cv_k=4))

    def test_a_class_annotated_on_fewer_rows_than_cv_k_is_refused(self):
        # the private part has 8 rows of each class, so the teacher race runs;
        # the teacher then labels 2 of the 8 pool rows 'absent', too few for
        # 3 folds, which is the teacher's doing, not the input data's
        rows = np.sort(generator(1).choice(303, 30, replace=False))
        config = PipelineConfig.from_json_dict(
            {"specs": [{"kind": "nb"}, {"kind": "svm", "hyperparameters": {"epochs": 2}}],
             "cv_k": 3}, 1)
        with pytest.raises(PipelineError) as info:
            run_pipeline(heart_disease_like().select(rows), config)
        assert str(info.value) == ("teacher annotated only 2 pool rows as 'absent'; "
                                   "the student race needs cv_k=3")


class TestFidelity:
    def test_oracle_teacher_makes_agreement_equal_accuracy(self, toy):
        run = run_pipeline(toy, PipelineConfig(specs=SMALL_SPECS, seed=6, cv_k=5))
        teacher_test_acc = run.fidelity.teacher.positive.accuracy
        assert teacher_test_acc == 1.0  # the toy is exactly learnable
        assert abs(
            run.fidelity.agreement - run.fidelity.student.positive.accuracy
        ) < 1e-12

    def test_deltas_are_teacher_minus_student(self, heart_ds):
        run = run_pipeline(heart_ds, PipelineConfig(specs=SMALL_SPECS, seed=2, cv_k=5))
        fid = run.fidelity
        assert fid.deltas["accuracy"] == pytest.approx(
            fid.teacher.positive.accuracy - fid.student.positive.accuracy
        )
        assert fid.deltas["auc"] == pytest.approx(
            fid.teacher.roc.auc - fid.student.roc.auc
        )
        assert 0.0 <= fid.agreement <= 1.0
        assert fid.n_test == run.part_counts["test"]
        assert sum(run.part_counts.values()) == heart_ds.n_rows

    def test_requires_labeled_test_and_binary_models(self, toy):
        model = fit(ClassifierSpec("nb", {}, seed=1), toy, ORIGIN_TEACHER)
        student = fit(ClassifierSpec("nb", {}, seed=1), toy, ORIGIN_STUDENT)
        with pytest.raises(DataError):
            evaluate_fidelity(model, student, toy.without_labels())


class TestRunPipeline:
    def test_run_json_is_deterministic_and_jobs_free(self, heart_ds):
        config = PipelineConfig(specs=SMALL_SPECS, seed=9, cv_k=5)
        text_a = run_json(run_pipeline(heart_ds, config))
        text_b = run_json(run_pipeline(heart_ds, config))
        assert text_a == text_b

    def test_json_shape(self, toy):
        run = run_pipeline(toy, PipelineConfig(specs=SMALL_SPECS, seed=6, cv_k=5))
        payload = json.loads(run_json(run))
        assert "timings" not in json.dumps(payload)  # wall-clock never leaks
        assert payload["config"]["seed"] == 6
        assert set(payload["split"]["counts"]) == {"private", "public_pool", "test"}
        assert payload["teacher_race"]["winner_kind"] == run.teacher_race.winner.spec.kind
        assert payload["fidelity"]["agreement"] == run.fidelity.agreement
        counts = payload["annotation"]["label_counts"]
        assert sum(counts) == payload["split"]["counts"]["public_pool"]

    def test_models_carry_origins(self, toy):
        run = run_pipeline(toy, PipelineConfig(specs=SMALL_SPECS, seed=6, cv_k=5))
        assert run.teacher.origin == ORIGIN_TEACHER
        assert run.student.origin == ORIGIN_STUDENT

    def test_requires_binary_labeled_data(self, toy):
        with pytest.raises(DataError):
            run_pipeline(toy.without_labels(), PipelineConfig(specs=SMALL_SPECS))
        three = threshold_toy(seed=1)
        relabeled = type(three)(
            features=three.features,
            feature_names=three.feature_names,
            labels=np.where(np.arange(three.n_rows) % 3 == 0, 2, three.labels),
            class_names=("low", "high", "odd"),
            source_id="t",
        )
        with pytest.raises(PipelineError):
            run_pipeline(relabeled, PipelineConfig(specs=SMALL_SPECS))


# the package's public names; adding or removing one is a deliberate API change
PUBLIC_API = [
    "ClassMetrics", "ClassifierSpec", "ConfusionMatrix",
    "CsvSchema", "CvReport", "DEFAULT_HYPERPARAMETERS", "DataError", "Dataset",
    "FAMILIES", "FidelityReport", "FoldAssignment", "IngestStats",
    "MODEL_FORMAT_VERSION", "MetricsReport", "ModelFormatError", "ORIGIN_STUDENT",
    "ORIGIN_TEACHER", "PipelineConfig", "PipelineError", "PipelineRun",
    "PrivacyError", "RaceResult", "RocCurve", "ScalerParams", "SplitResult",
    "SplitSpec", "TrainedModel", "accuracy", "annotate", "apply_scaler",
    "confusion", "default_specs", "evaluate_fidelity", "export_model", "f1", "fit",
    "fit_scaler", "import_model", "ingest_csv", "kfold", "load_csv",
    "macro_metrics", "model_to_file", "parse_model_file", "positive_metrics",
    "precision", "predict", "predict_batch", "recall", "roc", "run_json",
    "run_pipeline", "save_csv", "score", "score_batch", "split_manifest_json",
    "stratified_split", "train_student", "train_teacher",
]


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 59
    assert sorted(mimiclearn.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        getattr(mimiclearn, name)
