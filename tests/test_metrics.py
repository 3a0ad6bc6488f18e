import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimiclearn.classifiers import ClassifierSpec
from mimiclearn.metrics import (
    ConfusionMatrix,
    accuracy,
    confusion,
    left_sum,
    macro_metrics,
    positive_metrics,
    roc,
)
from mimiclearn.mimic import CvReport
from oracles import auc_mann_whitney, confusion_counts_loop, prf_from_counts

# labeled prediction pairs: two parallel int vectors of equal length
pairs = st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
    )
)


class TestConfusion:
    @given(pairs)
    @settings(max_examples=200, deadline=None)
    def test_counts_match_explicit_loop(self, pair):
        y_true, y_pred = np.array(pair[0]), np.array(pair[1])
        for positive in (0, 1, 2):
            c = confusion(y_true, y_pred, positive)
            assert (c.tp, c.fp, c.tn, c.fn) == confusion_counts_loop(
                y_true, y_pred, positive
            )
            assert c.total == len(y_true)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, tn=0, fn=0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            confusion(np.array([0, 1]), np.array([0]), 1)
        with pytest.raises(ValueError):
            confusion(np.array([]), np.array([]), 1)


class TestPositiveMetrics:
    def test_textbook_example(self):
        y_true = np.array([1, 1, 1, 0, 0, 0, 0, 1])
        y_pred = np.array([1, 0, 1, 0, 1, 0, 0, 1])
        report = positive_metrics(y_true, y_pred)
        assert report.accuracy == pytest.approx(6 / 8)
        assert report.precision == pytest.approx(3 / 4)
        assert report.recall == pytest.approx(3 / 4)
        assert report.f1 == pytest.approx(3 / 4)
        assert report.zero_denominator == ()

    def test_zero_denominators_give_zero_and_flag(self):
        never_pos = positive_metrics(np.array([1, 0]), np.array([0, 0]))
        assert never_pos.precision == 0.0
        assert "precision" in never_pos.zero_denominator
        no_true_pos = positive_metrics(np.array([0, 0]), np.array([1, 0]))
        assert no_true_pos.recall == 0.0
        assert "recall" in no_true_pos.zero_denominator
        assert "f1" in no_true_pos.zero_denominator

    def test_flag_order(self):
        # positive: precision, recall, f1 in that order; macro: sorted
        y = np.array([0, 0])
        assert positive_metrics(y, y).zero_denominator == ("precision", "recall", "f1")
        assert macro_metrics(y, y, 2).zero_denominator == ("f1", "precision", "recall")

    @given(pairs)
    @settings(max_examples=200, deadline=None)
    def test_matches_count_oracle(self, pair):
        y_true = np.array(pair[0]) % 2
        y_pred = np.array(pair[1]) % 2
        report = positive_metrics(y_true, y_pred)
        tp, fp, tn, fn = confusion_counts_loop(y_true, y_pred, 1)
        precision, recall, f1 = prf_from_counts(tp, fp, tn, fn)
        assert report.accuracy == pytest.approx((tp + tn) / len(y_true), abs=1e-12)
        assert report.precision == pytest.approx(precision, abs=1e-12)
        assert report.recall == pytest.approx(recall, abs=1e-12)
        assert report.f1 == pytest.approx(f1, abs=1e-12)

    @given(pairs)
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_permutation_invariant(self, pair):
        y_true = np.array(pair[0]) % 2
        y_pred = np.array(pair[1]) % 2
        report = positive_metrics(y_true, y_pred)
        for value in (report.accuracy, report.precision, report.recall, report.f1):
            assert 0.0 <= value <= 1.0
        order = np.argsort(y_pred, kind="stable")[::-1]
        shuffled = positive_metrics(y_true[order], y_pred[order])
        assert shuffled.accuracy == report.accuracy
        assert shuffled.precision == report.precision
        assert shuffled.recall == report.recall

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            positive_metrics(np.array([]), np.array([]))


class TestMacroMetrics:
    def test_equal_weight_average_of_per_class(self):
        y_true = np.array([0, 0, 0, 0, 0, 0, 1, 1])
        y_pred = np.array([0, 0, 0, 0, 0, 1, 1, 0])
        report = macro_metrics(y_true, y_pred, 2)
        per = {m.class_index: m for m in report.per_class}
        assert report.precision == pytest.approx(
            (per[0].precision + per[1].precision) / 2
        )
        assert report.recall == pytest.approx((per[0].recall + per[1].recall) / 2)
        assert per[0].support == 6 and per[1].support == 2

    @given(pairs)
    @settings(max_examples=100, deadline=None)
    def test_report_f1_is_harmonic_of_report_precision_recall(self, pair):
        y_true, y_pred = np.array(pair[0]), np.array(pair[1])
        report = macro_metrics(y_true, y_pred, 3)
        p, r = report.precision, report.recall
        expected = 2 * p * r / (p + r) if p + r else 0.0
        assert report.f1 == pytest.approx(expected, abs=1e-12)

    @given(pairs)
    @settings(max_examples=100, deadline=None)
    def test_support_weighted_recall_equals_accuracy(self, pair):
        y_true, y_pred = np.array(pair[0]), np.array(pair[1])
        report = macro_metrics(y_true, y_pred, 3)
        weighted = sum(
            m.recall * m.support for m in report.per_class if m.support
        ) / len(y_true)
        # recall of an absent class is flagged, not fabricated
        absent = [m.class_index for m in report.per_class if m.support == 0]
        if not absent:
            assert weighted == pytest.approx(report.accuracy, abs=1e-12)

    def test_absent_class_flags_zero_denominator(self):
        report = macro_metrics(np.array([0, 0]), np.array([0, 0]), 2)
        assert "recall" in report.zero_denominator
        assert "f1" in report.zero_denominator
        per = {m.class_index: m for m in report.per_class}
        assert per[1].recall == 0.0 and per[1].support == 0

    def test_two_class_minimum(self):
        with pytest.raises(ValueError):
            macro_metrics(np.array([0, 0]), np.array([0, 0]), 1)


def _neumaier_sum(values):
    """The compensated sum Python 3.12's builtin ``sum()`` returns for floats."""
    total = compensation = 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


class TestLeftToRightSums:
    # artifact means are Python 3.11's sum(): left to right from 0.0, on every
    # Python; each input here is one where the compensated sum differs
    def test_cv_means_add_the_folds_left_to_right(self):
        folds = (0.1,) * 10
        assert left_sum(folds) == 0.9999999999999999 != _neumaier_sum(folds)
        report = CvReport(ClassifierSpec("nb", {}), folds, folds[::-1])
        assert report.mean_accuracy == report.mean_macro_f1 == 0.09999999999999999

    def test_macro_precision_and_recall_add_the_classes_left_to_right(self):
        y_true = np.array([0, 1, 0, 2, 2, 2, 2, 1, 0, 0, 2, 1, 2])
        y_pred = np.array([1, 1, 0, 1, 1, 2, 1, 2, 0, 0, 1, 1, 2])
        report = macro_metrics(y_true, y_pred, 3)
        for name in ("precision", "recall"):
            per_class = [getattr(c, name) for c in report.per_class]
            assert left_sum(per_class) != _neumaier_sum(per_class)
            assert getattr(report, name) == left_sum(per_class) / 3
            assert getattr(report, name) != _neumaier_sum(per_class) / 3


class TestRoc:
    def test_perfect_and_inverted_separation(self):
        y = np.array([0, 0, 1, 1])
        perfect = roc(np.array([0.1, 0.2, 0.8, 0.9]), y)
        assert perfect.auc == pytest.approx(1.0)
        inverted = roc(np.array([0.9, 0.8, 0.2, 0.1]), y)
        assert inverted.auc == pytest.approx(0.0)

    def test_constant_scores_give_half(self):
        curve = roc(np.ones(6), np.array([0, 1, 0, 1, 0, 1]))
        assert curve.auc == pytest.approx(0.5)
        # a single tie group: the curve is the diagonal (0,0) -> (1,1)
        np.testing.assert_allclose(curve.fpr, [0.0, 1.0])
        np.testing.assert_allclose(curve.tpr, [0.0, 1.0])

    def test_curve_shape_and_monotonicity(self):
        rng = np.random.default_rng(5)
        scores = np.round(rng.random(120), 2)  # deliberate ties
        y = rng.integers(0, 2, 120)
        y[:2] = [0, 1]
        curve = roc(scores, y)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.isposinf(curve.thresholds[0])
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert np.all(np.diff(curve.thresholds) < 0)

    def test_tied_scores_collapse_to_one_point(self):
        scores = np.array([0.9, 0.5, 0.5, 0.1])
        y = np.array([1, 1, 0, 0])
        curve = roc(scores, y)
        # groups: {0.9}, {0.5, 0.5}, {0.1} -> 3 points after (0,0)
        assert len(curve.fpr) == 4

    @given(
        st.integers(min_value=2, max_value=80).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.integers(0, 9).map(lambda v: v / 4.0),
                    min_size=n,
                    max_size=n,
                ),
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_trapezoid_auc_equals_mann_whitney(self, pair):
        scores = np.array(pair[0])
        y = np.array(pair[1])
        if y.min() == y.max():
            y[0] = 1 - y[0]
        curve = roc(scores, y)
        assert curve.auc == pytest.approx(
            auc_mann_whitney(scores, y), abs=1e-9
        )

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            roc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_csv_round_trip(self):
        curve = roc(np.array([0.9, 0.4, 0.6, 0.1]), np.array([1, 0, 1, 0]))
        lines = curve.to_csv_text().strip().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert len(lines) == 1 + len(curve.fpr)
        got = np.array(
            [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        )
        np.testing.assert_array_equal(got[:, 1], curve.fpr)
        np.testing.assert_array_equal(got[:, 2], curve.tpr)


class TestReportShape:
    def test_json_dict_carries_flags_and_averaging(self):
        report = positive_metrics(np.array([0, 0]), np.array([1, 0]))
        d = report.to_json_dict()
        assert d["averaging"] == "positive"
        assert d["zero_denominator"] == list(report.zero_denominator)
        macro = macro_metrics(np.array([0, 1]), np.array([0, 1]), 2).to_json_dict()
        assert macro["averaging"] == "macro"
        assert len(macro["per_class"]) == 2

    def test_positive_json_dict_is_literal(self):
        report = positive_metrics(np.array([0, 0, 1, 1]), np.array([0, 0, 0, 0]))
        assert report.to_json_dict() == {
            "n": 4, "accuracy": 0.5, "precision": 0.0, "recall": 0.0, "f1": 0.0,
            "averaging": "positive", "zero_denominator": ["precision", "f1"],
        }

    def test_macro_json_dict_is_literal(self):
        report = macro_metrics(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 0]), 4)
        half = {"precision": 0.5, "recall": 0.5, "f1": 0.5, "support": 2}
        empty = {"precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 0}
        assert report.to_json_dict() == {
            "n": 4, "accuracy": 0.5, "precision": 0.25, "recall": 0.25, "f1": 0.25,
            "averaging": "macro",
            "zero_denominator": ["f1", "precision", "recall"],
            "per_class": [
                {"class_index": 0, **half}, {"class_index": 1, **half},
                {"class_index": 2, **empty}, {"class_index": 3, **empty},
            ],
        }

    def test_spec_json_dict_is_literal(self):
        spec = ClassifierSpec("rf", {"n_trees": 3}, seed=7)
        d = spec.to_json_dict()
        assert d == {"kind": "rf", "seed": 7, "hyperparameters": {
            "n_trees": 3, "max_depth": 16, "min_split": 2}}
        assert d["hyperparameters"] is not spec.hyperparameters

    def test_accuracy_of_empty_confusion_rejected(self):
        with pytest.raises(ValueError):
            accuracy(ConfusionMatrix(0, 0, 0, 0))
