"""Acceptance gate: eight end-to-end criteria, one test (and one printed
PASS/FAIL line) each.

The benchmark-shaped datasets come from ``conftest.dataset_or_surrogate``:
real prepared CSVs under ``data/`` when available, otherwise the bundled
deterministic generators. Thresholds are fixed; seeds 1-5 throughout.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from mimiclearn.classifiers import (
    ORIGIN_STUDENT,
    ORIGIN_TEACHER,
    ClassifierSpec,
    default_specs,
    fit,
    predict_batch,
)
from mimiclearn.classifiers.bayes import nb_log_posterior
from mimiclearn.cli import EXIT_OK, main
from mimiclearn.data import SplitSpec, save_csv, stratified_split
from mimiclearn.errors import PrivacyError
from mimiclearn.metrics import positive_metrics, roc
from mimiclearn.mimic import (
    PipelineConfig,
    annotate,
    evaluate_fidelity,
    run_pipeline,
    train_student,
)
from mimiclearn.model_io import export_model, file_json, model_to_file
from mimiclearn.rng import STAGE_SPLIT, derive_seed, generator

from oracles import (
    confusion_counts_loop,
    forest_predict_walk,
    knn_predict_bruteforce,
    linearly_separable,
    nb_log_posterior_direct,
    prf_from_counts,
    threshold_toy,
)

SEEDS = (1, 2, 3, 4, 5)


def _verdict(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _rf_fidelity(ds, seed):
    """Teacher = RF on the private part; student = RF mimic of it."""
    split = stratified_split(ds, SplitSpec(seed=derive_seed(seed, STAGE_SPLIT)))
    spec = ClassifierSpec("rf", {}, seed=seed)
    teacher = fit(spec, split.private, ORIGIN_TEACHER)
    annotated = annotate(teacher, split.public_pool)
    student, _ = train_student(annotated, PipelineConfig(specs=(spec,), seed=seed))
    return evaluate_fidelity(teacher, student, split.test)


@pytest.fixture(scope="module")
def fidelity_stats(breast_ds, heart_ds, cardio_ds):
    """Seed-averaged RF teacher/student accuracy and AUC per dataset."""
    stats = {}
    for name, ds in (("breast", breast_ds), ("heart", heart_ds), ("cardio", cardio_ds)):
        start = time.perf_counter()
        fids = [_rf_fidelity(ds, seed) for seed in SEEDS]
        stats[name] = {
            "teacher_acc": float(np.mean([f.teacher.positive.accuracy for f in fids])),
            "student_acc": float(np.mean([f.student.positive.accuracy for f in fids])),
            "teacher_auc": float(np.mean([f.teacher.roc.auc for f in fids])),
            "student_auc": float(np.mean([f.student.roc.auc for f in fids])),
            "elapsed": time.perf_counter() - start,
        }
        stats[name]["auc_gap"] = (
            stats[name]["teacher_auc"] - stats[name]["student_auc"]
        )
    return stats


@pytest.fixture(scope="module")
def breast_teacher_races(breast_ds):
    """Full four-family selection race on the private partition, per seed."""
    races = []
    for seed in SEEDS:
        config = PipelineConfig(specs=default_specs(seed), seed=seed)
        races.append(run_pipeline(breast_ds, config).teacher_race)
    return races


def test_criterion_1_breast_teacher_accuracy_and_student_gap(fidelity_stats):
    s = fidelity_stats["breast"]
    gap = s["teacher_acc"] - s["student_acc"]
    ok = (
        s["teacher_acc"] >= 0.94
        and gap <= 0.05
        and s["elapsed"] < 120.0
    )
    _verdict(
        1,
        ok,
        f"breast RF teacher acc {s['teacher_acc']:.4f} (>=0.94), "
        f"teacher-student gap {gap:.4f} (<=0.05), "
        f"elapsed {s['elapsed']:.1f}s (<120s), 5-seed averages",
    )


def test_criterion_2_rf_highest_svm_lowest_cv_accuracy(breast_teacher_races):
    hits = 0
    for race in breast_teacher_races:
        by_kind = {r.spec.kind: r.mean_accuracy for r in race.reports}
        ordered = sorted(by_kind, key=by_kind.get)
        hits += ordered[-1] == "rf" and ordered[0] == "svm"
    _verdict(
        2,
        hits >= 4,
        f"breast CV ranking has RF highest and SVM lowest on {hits}/5 seeds (>=4)",
    )


def test_criterion_3_heart_teacher_accuracy_and_student_gap(fidelity_stats):
    s = fidelity_stats["heart"]
    gap = s["teacher_acc"] - s["student_acc"]
    ok = s["teacher_acc"] >= 0.78 and gap <= 0.08
    _verdict(
        3,
        ok,
        f"heart RF teacher acc {s['teacher_acc']:.4f} (>=0.78), "
        f"teacher-student gap {gap:.4f} (<=0.08), 5-seed averages",
    )


def test_criterion_4_auc_gap_largest_on_least_separable_dataset(fidelity_stats):
    b, h, c = (fidelity_stats[k] for k in ("breast", "heart", "cardio"))
    lowest_auc = c["teacher_auc"] < min(b["teacher_auc"], h["teacher_auc"])
    largest_gap = c["auc_gap"] > max(b["auc_gap"], h["auc_gap"])
    _verdict(
        4,
        lowest_auc and largest_gap,
        "teacher AUC "
        f"breast {b['teacher_auc']:.4f} / heart {h['teacher_auc']:.4f} / "
        f"cardio {c['teacher_auc']:.4f} (cardio lowest: {lowest_auc}); "
        "teacher-student AUC gap "
        f"breast {b['auc_gap']:.4f} / heart {h['auc_gap']:.4f} / "
        f"cardio {c['auc_gap']:.4f} (cardio largest: {largest_gap}), "
        "5-seed averages",
    )


def test_criterion_5_metric_oracles():
    rng = generator(20240817)
    worst_metric = 0.0
    worst_auc = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        y_true = rng.integers(0, 2, size=n)
        y_true[:2] = (0, 1)  # both classes present for the ROC
        y_pred = rng.integers(0, 2, size=n)
        scores = rng.normal(size=n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force score ties

        report = positive_metrics(y_true, y_pred)
        tp, fp, tn, fn = confusion_counts_loop(y_true, y_pred, 1)
        precision, recall, f1 = prf_from_counts(tp, fp, tn, fn)
        worst_metric = max(
            worst_metric,
            abs(report.accuracy - (tp + tn) / n),
            abs(report.precision - precision),
            abs(report.recall - recall),
            abs(report.f1 - f1),
        )

        # exhaustive pairwise Mann-Whitney with half-credit ties
        pos = scores[y_true == 1][:, None]
        neg = scores[y_true == 0][None, :]
        expected_auc = float(
            ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size)
        )
        worst_auc = max(worst_auc, abs(roc(scores, y_true).auc - expected_auc))

    ok = worst_metric <= 1e-12 and worst_auc <= 1e-9
    _verdict(
        5,
        ok,
        f"1000 instances: max acc/precision/recall/f1 deviation {worst_metric:.2e} "
        f"(<=1e-12), max AUC deviation {worst_auc:.2e} (<=1e-9)",
    )


def test_criterion_6_classifier_oracles(heart_ds):
    rng = generator(424242)

    knn_fails = 0
    for trial in range(200):
        n_classes = int(rng.integers(2, 4))
        n_train = int(rng.integers(8, 40))
        k = int(rng.integers(1, min(9, n_train + 1)))
        X = rng.normal(size=(n_train, int(rng.integers(1, 6))))
        y = rng.integers(0, n_classes, size=n_train)
        y[:n_classes] = np.arange(n_classes)
        from mimiclearn.data import Dataset

        train = Dataset(
            X, tuple(f"x{i}" for i in range(X.shape[1])), y,
            tuple(f"c{i}" for i in range(n_classes)), "oracle",
        )
        model = fit(ClassifierSpec("knn", {"n_neighbors": k}), train, ORIGIN_TEACHER)
        queries = rng.normal(size=(10, train.n_features))
        q_scaled = (queries - model.scaler.means) / model.scaler.std_devs
        t_scaled = (train.features - model.scaler.means) / model.scaler.std_devs
        expected = knn_predict_bruteforce(t_scaled, train.labels, q_scaled, k, n_classes)
        if not np.array_equal(predict_batch(model, queries), expected):
            knn_fails += 1

    forest = fit(
        ClassifierSpec("rf", {"n_trees": 25, "max_depth": 8}, seed=9),
        heart_ds,
        ORIGIN_TEACHER,
    )
    sample = heart_ds.features[:100]
    rf_ok = np.array_equal(
        predict_batch(forest, sample), forest_predict_walk(forest.params, sample)
    )

    nb_dev = 0.0
    for seed in range(5):
        r2 = generator(seed)
        X = r2.normal(size=(40, 4))
        y = r2.integers(0, 3, size=40)
        y[:3] = (0, 1, 2)
        from mimiclearn.data import Dataset

        train = Dataset(X, ("a", "b", "c", "d"), y, ("u", "v", "w"), "oracle")
        nb = fit(ClassifierSpec("nb", {}), train, ORIGIN_TEACHER)
        queries = r2.normal(size=(20, 4))
        nb_dev = max(
            nb_dev,
            float(
                np.abs(
                    nb_log_posterior(nb.params, queries)
                    - nb_log_posterior_direct(nb.params, queries)
                ).max()
            ),
        )

    svm_hits = 0
    for seed in range(50):
        ds = linearly_separable(seed=seed)
        model = fit(ClassifierSpec("svm", {}, seed=seed), ds, ORIGIN_TEACHER)
        svm_hits += float(np.mean(predict_batch(model, ds.features) == ds.labels)) == 1.0

    ok = knn_fails == 0 and rf_ok and nb_dev <= 1e-9 and svm_hits == 50
    _verdict(
        6,
        ok,
        f"KNN brute-force mismatches {knn_fails}/200 (=0), RF tree-walk match "
        f"{rf_ok}, NB max log-posterior deviation {nb_dev:.2e} (<=1e-9), "
        f"SVM separable training acc 1.0 on {svm_hits}/50 (=50)",
    )


def test_criterion_7_privacy_guards(breast_ds):
    # teacher export must fail in 100% of attempts
    toy = threshold_toy(seed=3)
    attempts = refusals = 0
    for kind in ("svm", "knn", "rf", "nb"):
        for seed in (0, 1, 2):
            teacher = fit(ClassifierSpec(kind, {}, seed=seed), toy, ORIGIN_TEACHER)
            attempts += 1
            try:
                model_to_file(teacher)
            except PrivacyError:
                refusals += 1

    # poisoned pool labels must leave the student bit-identical
    split = stratified_split(breast_ds, SplitSpec(seed=derive_seed(1, STAGE_SPLIT)))
    spec = ClassifierSpec("rf", {"n_trees": 20}, seed=1)
    teacher = fit(spec, split.private, ORIGIN_TEACHER)
    config = PipelineConfig(specs=(spec,), seed=1, cv_k=5)
    pool_rows = split.row_ids["public"]
    flipped = np.array(breast_ds.labels)
    flipped[pool_rows] = 1 - flipped[pool_rows]
    poisoned_pool = (
        breast_ds.with_labels(flipped).select(pool_rows).without_labels()
    )
    student_a, _ = train_student(annotate(teacher, split.public_pool), config)
    student_b, _ = train_student(annotate(teacher, poisoned_pool), config)
    poison_ok = file_json(model_to_file(student_a)) == file_json(
        model_to_file(student_b)
    )

    # scan oracle: no exported array may equal a private feature row
    leaked = 0
    private_rows = {tuple(r) for r in split.private.features}
    d = breast_ds.n_features
    for kind in ("svm", "rf", "nb"):
        student = fit(
            ClassifierSpec(kind, {}, seed=1),
            annotate(teacher, split.public_pool),
            ORIGIN_STUDENT,
        )
        payload = json.loads(file_json(model_to_file(student)))

        def walk(node):
            nonlocal leaked
            if isinstance(node, list):
                if len(node) == d and all(isinstance(v, (int, float)) for v in node):
                    if tuple(float(v) for v in node) in private_rows:
                        leaked += 1
                for child in node:
                    walk(child)
            elif isinstance(node, dict):
                for child in node.values():
                    walk(child)

        walk(payload)

    ok = refusals == attempts and poison_ok and leaked == 0
    _verdict(
        7,
        ok,
        f"teacher export refused {refusals}/{attempts} (=all), poisoned-pool "
        f"students bit-identical: {poison_ok}, private rows found in exports: "
        f"{leaked} (=0)",
    )


def test_criterion_8_cmd_run_byte_identical(breast_ds, tmp_path):
    csv_path = tmp_path / "data.csv"
    save_csv(breast_ds, csv_path)
    outputs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        code = main(
            [
                "run",
                "--data", str(csv_path),
                "--label-column", "label",
                "--positive-class", breast_ds.class_names[1],
                "--seed", "2",
                "--jobs", jobs,
                "--out-dir", str(out),
            ]
        )
        assert code == EXIT_OK
        outputs.append(
            {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
            }
        )
    identical = outputs[0] == outputs[1] == outputs[2]
    _verdict(
        8,
        identical,
        f"cmd_run reruns byte-identical across {sorted(outputs[0])} "
        f"with jobs 1,1,4: {identical}",
    )
