import inspect
import math
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimiclearn.classifiers import (
    DEFAULT_HYPERPARAMETERS,
    FAMILIES,
    ORIGIN_STUDENT,
    ORIGIN_TEACHER,
    ClassifierSpec,
    TrainedModel,
    decide_batch,
    default_specs,
    fit,
    fold_fits,
    fold_models,
    predict,
    predict_batch,
    score_batch,
    specs_from_config,
)
from mimiclearn.classifiers import forest, knn, svm
from mimiclearn.classifiers.bayes import fit_nb, nb_log_posterior
from mimiclearn.classifiers.forest import (
    WALK_ROWS,
    ForestModel,
    TreeNodes,
    fit_forest,
    fit_forests,
    forest_votes,
)
from mimiclearn.classifiers.knn import KnnModel, fit_knn, knn_vote
from mimiclearn.classifiers.svm import SvmModel, fit_svm, svm_margin
from mimiclearn.data import Dataset, ScalerParams, apply_scaler, fit_scaler, kfold
from mimiclearn.errors import PipelineError
from mimiclearn.metrics import roc
from mimiclearn.model_io import export_model, import_model
from mimiclearn.rng import STAGE_TREE, derive_seed, generator
from mimiclearn.synthetic import cardio_like, heart_disease_like

from oracles import (
    fit_forest_recursive,
    fit_svm_stepwise,
    forest_predict_walk,
    forest_votes_walk,
    knn_predict_bruteforce,
    knn_votes_bruteforce,
    linearly_separable,
    nb_log_posterior_direct,
    nb_log_posterior_expression,
    neumaier_sum,
    pushed_sum,
    threshold_toy,
)


def _random_dataset(rng, n_rows, n_features, n_classes=2):
    X = rng.normal(size=(n_rows, n_features))
    y = rng.integers(0, n_classes, size=n_rows)
    # make sure every class appears
    y[:n_classes] = np.arange(n_classes)
    return Dataset(
        features=X,
        feature_names=tuple(f"x{i}" for i in range(n_features)),
        labels=y,
        class_names=tuple(f"c{i}" for i in range(n_classes)),
        source_id="random",
    )


class TestSpecs:
    def test_defaults_filled_and_frozen(self):
        spec = ClassifierSpec("rf", {"n_trees": 7})
        assert spec.hyperparameters["n_trees"] == 7
        assert spec.hyperparameters["max_depth"] == DEFAULT_HYPERPARAMETERS["rf"]["max_depth"]

    def test_unknown_kind_and_keys_rejected(self):
        with pytest.raises(PipelineError):
            ClassifierSpec("boost", {})
        with pytest.raises(PipelineError):
            ClassifierSpec("knn", {"temperature": 1})

    def test_invalid_values_rejected(self):
        for kind, hp, seed in (
            ("svm", {"reg_lambda": 0.0}, 0),
            ("rf", {"min_split": 1}, 0),
            ("svm", {"epochs": True}, 0),
            ("rf", {"max_depth": 2.0}, 0),
            ("nb", {"var_smoothing": float("inf")}, 0),
            ("nb", None, 0),
            ("nb", {}, "1"),
            ("rf", {"n_trees": 10**30}, 0),
            ("svm", {"reg_lambda": 1e-310, "epochs": 2}, 0),
        ):
            with pytest.raises(PipelineError):
                ClassifierSpec(kind, hp, seed=seed)

    def test_default_specs_cover_all_families_with_distinct_seeds(self):
        specs = default_specs(seed=3)
        assert tuple(s.kind for s in specs) == FAMILIES
        assert len({s.seed for s in specs}) == len(specs)

    def test_config_entry_without_seed_gets_the_default_specs_seed(self):
        entries = [{"kind": kind} for kind in reversed(FAMILIES)]
        entries[1]["seed"] = 99
        specs = specs_from_config(entries, seed=3)
        assert [s.kind for s in specs] == [e["kind"] for e in entries]
        assert [s.seed for s in specs] == [
            99 if i == 1 else d.seed for i, d in enumerate(default_specs(seed=3))
        ]


class TestKnnOracle:
    def test_matches_bruteforce_on_random_instances(self):
        rng = generator(1234)
        for trial in range(40):
            n_classes = int(rng.integers(2, 4))
            n_train = int(rng.integers(8, 40))
            k = int(rng.integers(1, min(9, n_train + 1)))
            train = _random_dataset(rng, n_train, int(rng.integers(1, 6)), n_classes)
            model = fit(
                ClassifierSpec("knn", {"n_neighbors": k}), train, ORIGIN_TEACHER
            )
            queries = rng.normal(size=(12, train.n_features))
            got = predict_batch(model, queries)
            # the oracle sees the same standardized coordinates the model uses
            q_scaled = (queries - model.scaler.means) / model.scaler.std_devs
            t_scaled = (train.features - model.scaler.means) / model.scaler.std_devs
            want = knn_predict_bruteforce(
                t_scaled, train.labels, q_scaled, k, n_classes
            )
            np.testing.assert_array_equal(got, want)
            if n_classes == 2:
                votes, _ = knn_votes_bruteforce(
                    t_scaled, train.labels, q_scaled, k, n_classes
                )
                np.testing.assert_array_equal(
                    score_batch(model, queries), [v[1] / k for v in votes]
                )

    def test_distance_ties_break_by_training_index(self):
        # two training points equidistant from the query with different labels
        train = Dataset(
            features=np.array([[1.0], [-1.0], [5.0]]),
            feature_names=("x",),
            labels=np.array([1, 0, 0]),
            class_names=("a", "b"),
            source_id="t",
        )
        model = fit(ClassifierSpec("knn", {"n_neighbors": 1}), train, ORIGIN_TEACHER)
        # scaler is symmetric here, so row 0 and row 1 stay equidistant from 0
        assert predict(model, np.array([0.0])) == 1  # lower index wins

    def test_vote_tie_falls_back_to_nearest(self):
        train = Dataset(
            features=np.array([[0.0], [1.0], [10.0], [11.0]]),
            feature_names=("x",),
            labels=np.array([1, 1, 0, 0]),
            class_names=("a", "b"),
            source_id="t",
        )
        model = fit(ClassifierSpec("knn", {"n_neighbors": 4}), train, ORIGIN_TEACHER)
        assert predict(model, np.array([2.0])) == 1
        assert predict(model, np.array([9.0])) == 0

    def test_needs_at_least_k_rows(self):
        rng = generator(0)
        train = _random_dataset(rng, 5, 2)
        with pytest.raises(PipelineError):
            fit(ClassifierSpec("knn", {"n_neighbors": 6}), train, ORIGIN_TEACHER)

    def test_far_rows_keep_their_neighbours(self):
        # the squared distances of the first two rows overflow, and so does
        # standardizing 1.5e308 by std 0.25; an exact oracle ranks the points
        points = np.array([[-1.7e308, 1.0], [1.0e308, -2.0], [1.7e308, 3.0], [0.5, 0.25]])
        labels = np.array([0, 0, 1, 1])
        scaler = ScalerParams(np.array([0.0, 1.0]), np.array([0.25, 2.0]))
        X = np.array([[1.5e308, 1.0], [-1.0e308, 4.0], [1e300, -1e300], [3e307, 2.0]])
        z = [[(Fraction(x) - Fraction(m)) / Fraction(s)
              for x, m, s in zip(row, scaler.means, scaler.std_devs)] for row in X]
        for k in (1, 2, 3):
            model = TrainedModel(ClassifierSpec("knn", {"n_neighbors": k}),
                                 KnnModel(points, labels, 2), ("a", "b"), scaler,
                                 ORIGIN_STUDENT)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scores = score_batch(model, X)
            for row, got in zip(z, scores):
                order = sorted(range(4), key=lambda i: (
                    sum((a - Fraction(p)) ** 2 for a, p in zip(row, points[i])), i))
                assert got == labels[order[:k]].mean()

    def test_far_rows_of_a_fit_model_leave_other_rows_alone(self):
        # so far out every standardized z - p rounds to z, overflow or not, so
        # each training point is as near as the next and the vote is the first
        # k points'; the rows beside them score as they do alone
        ds = heart_disease_like()
        model = fit(ClassifierSpec("knn", seed=1), ds, ORIGIN_STUDENT)
        far = np.resize([-1e308, 1e308], ds.n_features) * np.array([[1.0], [-1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = score_batch(model, np.vstack([ds.features[:20], far]))
        assert scores[:20].tobytes() == score_batch(model, ds.features[:20]).tobytes()
        assert scores[20:].tolist() == [model.params.labels[:8].mean()] * 2

    @given(
        n_rows=st.integers(1, 30),
        n_train=st.integers(1, 50),
        k_pick=st.sampled_from(["1", "n_train", "between"]),
        cells=st.sampled_from(["tied", "spread", "non-finite"]),
        data_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_picks_the_stable_sort_neighbours(
        self, n_rows, n_train, k_pick, cells, data_seed
    ):
        rng = generator(data_seed)
        k = {"1": 1, "n_train": n_train}.get(k_pick) or int(rng.integers(1, n_train + 1))
        if cells == "spread":
            d2 = rng.random((n_rows, n_train))
        else:  # few distinct distances, so ties straddle the k-th often
            d2 = rng.integers(0, 4, size=(n_rows, n_train)).astype(np.float64)
        if cells == "non-finite":
            odd = rng.random(d2.shape) < 0.25
            d2[odd] = rng.choice([np.nan, np.inf], size=int(odd.sum()))
        want = np.argsort(d2, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(knn._nearest(d2, k), want)

    def test_predict_peak_allocation_stays_bounded(self):
        # 770 queries against 630 points of 11 features, the size of a cardio
        # race fold; all queries in one chunk hold a 43 MB difference buffer
        ds = cardio_like()
        model = fit_knn(ds.features[:630], ds.labels[:630], 2, 5)
        knn_vote(model, ds.features[630:640], 5)  # warm-up: first calls
        tracemalloc.start()
        try:
            knn_vote(model, ds.features[630:], 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, f"knn predict peaked at {peak / 1e6:.1f} MB"


@st.composite
def _tied_forest_data(draw):
    """2 to 60 rows of 1 to 12 features drawn from six cells, and 2 or 3 classes."""
    n_rows, n_features = draw(st.integers(2, 60)), draw(st.integers(1, 12))
    cells = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 1.0, 4.0])
    X = np.array(draw(st.lists(cells, min_size=n_rows * n_features,
                               max_size=n_rows * n_features))).reshape(n_rows, n_features)
    n_classes = draw(st.integers(2, 3))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows,
                               max_size=n_rows)), dtype=np.int64)
    return X, y, n_classes


def _run_labels(runs):
    """Labels 0, 1, 0, ... in runs of the given lengths."""
    return np.concatenate([np.full(n, i % 2) for i, n in enumerate(runs)])


# fit_forest arguments for a tree shape, and a check that every tree has it
_LAYOUT_CASES = {
    # labels alternate below 30 and are all 1 above: the root cuts off the
    # pure rows as a right leaf after a deep left subtree
    "right-leaf-after-deep-left": (
        (np.arange(40.0)[:, None], _run_labels([1] * 29 + [11]), 2, 6, 40, 2, 1),
        lambda trees: all(t.feature[t.right[0]] < 0 and _leaf_depths(t).max() >= 7
                          for t in trees)),
    # runs of 32, 16, 8, ... rows: each split cuts off the first run as a left leaf
    "right-chain": (
        (np.arange(64.0)[:, None], _run_labels([32, 16, 8, 4, 2, 1, 1]), 2, 5, 40, 2, 1),
        lambda trees: all(np.all(t.feature[t.left[t.feature >= 0]] < 0)
                          and _leaf_depths(t).max() >= 4 for t in trees)),
    # one row of class 1 in six: some bootstraps miss it and are root leaves
    "root-leaves-beside-splits": (
        (np.arange(6.0)[:, None], _run_labels([5, 1]), 2, 12, 16, 2, 1),
        lambda trees: {t.n_nodes for t in trees} == {1, 3}),
    "depth-0": (
        (np.arange(40.0)[:, None], _run_labels([1] * 40), 2, 6, 0, 2, 1),
        lambda trees: {t.n_nodes for t in trees} == {1}),
}


class TestForestOracle:
    def test_matches_per_tree_walk(self, heart_ds):
        spec = ClassifierSpec("rf", {"n_trees": 15, "max_depth": 6}, seed=5)
        model = fit(spec, heart_ds, ORIGIN_TEACHER)
        X = heart_ds.features[:80]
        np.testing.assert_array_equal(
            predict_batch(model, X), forest_predict_walk(model.params, X)
        )

    def test_trees_are_valid_preorder_arrays(self, heart_ds):
        spec = ClassifierSpec("rf", {"n_trees": 10, "max_depth": 5}, seed=2)
        model = fit(spec, heart_ds, ORIGIN_TEACHER)
        for tree in model.params.trees:
            n = len(tree.feature)
            for i in range(n):
                if tree.feature[i] >= 0:
                    assert i < tree.left[i] < n
                    assert i < tree.right[i] < n
                else:
                    assert tree.left[i] == -1 and tree.right[i] == -1
                    assert tree.counts[i].sum() > 0

    def test_default_forest_layout(self, heart_ds):
        model = fit(ClassifierSpec("rf", {}, seed=3), heart_ds, ORIGIN_TEACHER)
        for tree in model.params.trees:
            _assert_preorder_layout(tree)

    @pytest.mark.parametrize("shape", sorted(_LAYOUT_CASES))
    def test_preorder_layout_of_chosen_shapes(self, shape):
        args, has_shape = _LAYOUT_CASES[shape]
        model = fit_forest(*args)
        assert has_shape(model.trees)
        _assert_same_trees(model, fit_forest_recursive(*args))
        for tree in model.trees:
            _assert_preorder_layout(tree)

    @pytest.mark.parametrize("in_flight", [1, 7, 100])
    @pytest.mark.parametrize("step_rows", [1, forest.STEP_ROWS, 10**9])
    def test_trees_do_not_depend_on_batching(self, step_rows, in_flight, monkeypatch):
        # a step takes stack tops while they fit its row budget, and at least
        # one; 12 trees through 1, 7 or all slots, one node or all per step;
        # and candidate draws in blocks of 1, 3 or BLOCK calls: 3 calls read
        # 15 halves on 6 features, an odd count, so the buffered half changes
        # from one block to the next
        monkeypatch.setattr(forest, "STEP_ROWS", step_rows)
        monkeypatch.setattr(forest, "TREES_IN_FLIGHT", in_flight)
        X, y = _small_forest_data()
        args = (X, y, 3, 12, 16, 2, 6)
        want = fit_forest_recursive(*args)
        for block in (1, 3, forest.BLOCK):
            monkeypatch.setattr(forest, "BLOCK", block)
            _assert_same_trees(fit_forest(*args), want)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_trees_equal_the_recursive_reference(self, n_classes):
        # small integer ranges make ties the rule; scaling half the trials
        # onto adjacent doubles makes some midpoints round up onto the
        # larger value, so the <= mask and the cut position disagree
        rng = generator(40 + n_classes)
        eps = np.finfo(np.float64).eps
        for trial in range(16):
            n_rows = int(rng.integers(12, 120))
            n_features = int(rng.integers(1, 7))
            X = rng.integers(0, int(rng.integers(2, 6)), size=(n_rows, n_features))
            X = 1.0 + eps * X if trial % 2 else X.astype(np.float64)
            y = rng.integers(0, n_classes, size=n_rows)
            args = (
                X, y, n_classes, 3,
                int(rng.choice([0, 1, 3, 16])),  # max_depth
                int(rng.choice([2, 5, 20])),  # min_split
                int(rng.integers(0, 1000)),  # seed
            )
            _assert_same_trees(fit_forest(*args), fit_forest_recursive(*args))

    @pytest.mark.parametrize("n_classes", [2, 3, 4, 9])
    def test_trees_equal_the_recursive_reference_past_both_limits(
        self, n_classes, monkeypatch
    ):
        # 7 trees through 3 slots, and roots larger than a step's row budget,
        # so slots are reused and big nodes run alone; the tie-heavy data of
        # the test above; 9 classes also cover numpy's pairwise class sum
        monkeypatch.setattr(forest, "TREES_IN_FLIGHT", 3)
        monkeypatch.setattr(forest, "STEP_ROWS", 40)
        rng = generator(70 + n_classes)
        eps = np.finfo(np.float64).eps
        for trial in range(8):
            n_rows = int(rng.integers(41, 120))
            n_features = int(rng.integers(1, 7))
            X = rng.integers(0, int(rng.integers(2, 6)), size=(n_rows, n_features))
            X = 1.0 + eps * X if trial % 2 else X.astype(np.float64)
            y = rng.integers(0, n_classes, size=n_rows)
            args = (X, y, n_classes, 7, 16, 2, int(rng.integers(0, 1000)))
            _assert_same_trees(fit_forest(*args), fit_forest_recursive(*args))

    @pytest.mark.parametrize("min_split", [2, 3, 7, 12])
    def test_trees_equal_the_recursive_reference_on_repeated_rows(self, min_split):
        # 40 rows copied from 5 distinct ones: a node holds few distinct rows
        # but many draws, so its size and split tests must count the draws
        rng = generator(90 + min_split)
        for max_depth in (1, 3, 16):
            for _ in range(4):
                pick = rng.integers(0, 5, size=40)
                X = rng.integers(0, 4, size=(5, 3)).astype(np.float64)[pick]
                y = np.where(rng.random(40) < 0.7, pick % 3, rng.integers(0, 3, size=40))
                args = (X, y, 3, 5, max_depth, min_split, int(rng.integers(0, 1000)))
                _assert_same_trees(fit_forest(*args), fit_forest_recursive(*args))

    @given(data=_tied_forest_data(), n_trees=st.integers(1, 4),
           max_depth=st.integers(1, 16), min_split=st.integers(2, 5),
           seed=st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_trees_equal_the_recursive_reference_on_tied_cells(
        self, data, n_trees, max_depth, min_split, seed
    ):
        # 1 to 12 features, so 1 to 4 candidates; cells from six values, -0.0
        # and 0.0 among them, so most candidate columns hold long runs of ties
        X, y, n_classes = data
        args = (X, y, n_classes, n_trees, max_depth, min_split, seed)
        _assert_same_trees(fit_forest(*args), fit_forest_recursive(*args))

    def test_steps_hold_each_drawn_row_once(self, monkeypatch):
        # a tree's root holds its distinct bootstrap rows, not one entry per draw
        X, y = _small_forest_data()
        split_step, sizes = forest._split_step, []

        def record_sizes(*args):
            sizes.append(inspect.signature(split_step).bind(*args).arguments["m"].tolist())
            return split_step(*args)

        monkeypatch.setattr(forest, "_split_step", record_sizes)
        fit_forest(X, y, 3, 1, 16, 2, 4)
        sample = generator(derive_seed(4, STAGE_TREE, 0)).integers(0, 100, size=100)
        assert sizes[0] == [np.count_nonzero(np.bincount(sample))] != [100]

    def test_fit_peak_allocation_stays_bounded(self):
        # a default forest on 700 rows, the size of a run's teacher refit;
        # growing all its trees at once without a row budget peaks near 34 MB
        ds = cardio_like()
        hp = DEFAULT_HYPERPARAMETERS["rf"]
        args = (ds.features[:700], ds.labels[:700], 2, hp["n_trees"], hp["max_depth"],
                hp["min_split"], 1)
        fit_forest(*args[:3], 2, *args[4:])  # warm-up: lazy imports and first calls
        tracemalloc.start()
        try:
            fit_forest(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000, f"forest fit peaked at {peak / 1e6:.1f} MB"

    def test_student_fit_peak_allocation_stays_bounded(self):
        # a default forest on all 1,400 rows, the shape of the evaluate-100k
        # student; one (features, trees * rows) presorted table peaked at 12.3 MB
        ds = cardio_like()
        hp = DEFAULT_HYPERPARAMETERS["rf"]
        args = (ds.features, ds.labels, 2, hp["n_trees"], hp["max_depth"],
                hp["min_split"], 1)
        fit_forest(*args[:3], 2, *args[4:])  # warm-up: lazy imports and first calls
        tracemalloc.start()
        try:
            fit_forest(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, f"forest fit peaked at {peak / 1e6:.1f} MB"

    def test_student_export_and_import_peak_allocation_stays_bounded(self, tmp_path):
        # the 1,400-row student again, written to and read from a model file;
        # the nested-list record and json.dumps(indent=2) peaked at 39.8 MB,
        # and json.loads of the whole file at 20.9 MB
        ds = cardio_like()
        model = fit(ClassifierSpec("rf", seed=1), ds, ORIGIN_STUDENT)
        path = tmp_path / "student.json"
        export_model(model, path)  # warm-up: first calls
        peaks = []
        for step in (lambda: export_model(model, path), lambda: import_model(path)):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 20_000_000, f"export peaked at {peaks[0] / 1e6:.1f} MB"
        assert peaks[1] < 16_000_000, f"import peaked at {peaks[1] / 1e6:.1f} MB"

    def test_midpoint_of_adjacent_huge_values_is_finite(self):
        # (a + b) / 2 overflows to -inf here; the classes split at the root
        X = np.repeat([-1.5e308, -1e308], 8)[:, None]
        y = np.repeat([0, 1], 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_forest(X, y, 2, 5, 16, 2, 1)
        for tree in model.trees:
            assert tree.feature.tolist() == [0, -1, -1]
            assert tree.threshold[0] == -1.25e308
            assert tree.counts[1:].min(axis=1).tolist() == [0, 0]  # pure children

    def test_deep_chain_grows_without_recursion(self):
        # one feature, alternating labels: no split separates the classes
        # well, so the tree grows 78 levels deep
        n = 3000
        train = Dataset(
            features=np.arange(n, dtype=np.float64)[:, None],
            feature_names=("x",),
            labels=np.arange(n) % 2,
            class_names=("a", "b"),
            source_id="chain",
        )
        spec = ClassifierSpec("rf", {"n_trees": 1, "max_depth": 5000}, seed=1)
        fit(spec, train, ORIGIN_TEACHER)  # warm-up: lazy imports and first calls

        frame, stack_depth = sys._getframe(), 0
        while frame is not None:
            frame, stack_depth = frame.f_back, stack_depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth + 60)
        try:
            with pytest.raises(RecursionError):
                fit_forest_recursive(
                    train.features, train.labels, 2, 1, 5000, 2, spec.seed
                )
            tree = fit(spec, train, ORIGIN_TEACHER).params.trees[0]
        finally:
            sys.setrecursionlimit(limit)

        assert _leaf_depths(tree).max() == 78

    def test_walk_matches_per_tree_walk_on_edge_values(self):
        # each feature draws from its own split thresholds, NaN, +-inf and
        # random values, so rows land exactly on thresholds
        rng = generator(12)
        train = _random_dataset(rng, 150, 5, n_classes=3)
        spec = ClassifierSpec("rf", {"n_trees": 12, "max_depth": 8}, seed=4)
        model = fit(spec, train, ORIGIN_TEACHER)
        forest = model.params
        columns = []
        for f in range(5):
            thresholds = [t.threshold[t.feature == f] for t in forest.trees]
            pool = np.concatenate(
                thresholds + [[np.nan, np.inf, -np.inf], rng.normal(size=20)]
            )
            columns.append(rng.choice(pool, size=300))
        X = np.column_stack(columns)
        want = np.array(forest_votes_walk(forest, X))
        np.testing.assert_array_equal(forest_votes(forest, X), want)
        pred, scores = decide_batch(model, X)
        np.testing.assert_array_equal(pred, forest_predict_walk(forest, X))
        np.testing.assert_array_equal(scores, want[:, 1] / 12.0)

    @pytest.mark.parametrize("case", [
        "depth-0", "one-tree", "six-trees", "chain-40", "leaf-every-depth",
    ])
    @pytest.mark.parametrize("n_rows", [WALK_ROWS - 1, WALK_ROWS, WALK_ROWS + 1])
    def test_walk_shapes_and_block_edges(self, heart_ds, case, n_rows):
        # chain-40 has paths far past the walk's first round; leaf-every-depth
        # ends paths at each level from 0 to 24, so every round drops some ids
        forest, X = _walk_case(case, heart_ds)
        X = X[np.arange(n_rows) % len(X)]
        X = X * generator(n_rows).uniform(0.9, 1.1, size=X.shape)
        np.testing.assert_array_equal(forest_votes(forest, X), forest_votes_walk(forest, X))

    def test_forest_without_features_votes_its_root_leaves(self):
        # a Dataset refuses zero feature columns, so fit the forest directly
        model = fit_forest(np.zeros((6, 0)), np.arange(6) % 2, 2, 3, 0, 2, 1)
        X = np.zeros((WALK_ROWS + 1, 0))
        np.testing.assert_array_equal(forest_votes(model, X), forest_votes_walk(model, X))

    @pytest.mark.parametrize("max_depth", [0, 4])
    def test_fit_without_features_equals_the_recursive_reference(self, max_depth):
        # no feature to cut on: every tree is its root leaf, two classes or not
        args = (np.zeros((6, 0)), np.arange(6) % 2, 2, 3, max_depth, 2, 1)
        _assert_same_trees(fit_forest(*args), fit_forest_recursive(*args))

    def test_vote_fraction_score_matches_votes(self, heart_ds):
        spec = ClassifierSpec("rf", {"n_trees": 9, "max_depth": 4}, seed=3)
        model = fit(spec, heart_ds, ORIGIN_TEACHER)
        scores = score_batch(model, heart_ds.features[:30])
        assert np.all((scores * 9) % 1 == 0)  # integer vote counts
        assert scores.min() >= 0 and scores.max() <= 1


def _walk_case(case, heart_ds):
    """A forest and rows to walk it with, by ``test_walk_shapes_and_block_edges`` case."""
    if case == "leaf-every-depth":
        return _caterpillar_forest(24), np.arange(-1.0, 26.0, 0.5)[:, None]
    if case == "chain-40":
        # one feature, alternating labels: every path runs to the depth limit
        n = 400
        X, y = np.arange(n, dtype=np.float64)[:, None], np.arange(n) % 2
        forest = fit_forest(X, y, 2, 3, 40, 2, 1)
        assert max(_leaf_depths(tree).max() for tree in forest.trees) == 40
        return forest, X
    hp = {"depth-0": {"n_trees": 4, "max_depth": 0}, "one-tree": {"n_trees": 1},
          "six-trees": {"n_trees": 6, "max_depth": 5}}[case]
    model = fit(ClassifierSpec("rf", hp, seed=6), heart_ds, ORIGIN_TEACHER)
    return model.params, heart_ds.features


def _caterpillar_forest(depth):
    """A root-only tree and a chain whose split at depth d sends x <= d to a
    leaf: leaves at every depth from 0 to ``depth``, voting by parity."""
    n = 2 * depth + 1
    split = np.arange(n) % 2 == 0
    split[-1] = False
    ids = np.arange(n)
    chain = TreeNodes(
        feature=np.where(split, 0, -1),
        threshold=np.where(split, ids // 2, 0).astype(np.float64),
        left=np.where(split, ids + 1, -1),
        right=np.where(split, ids + 2, -1),
        counts=np.stack([ids // 2 % 2, 1 - ids // 2 % 2], axis=1),
    )
    root = TreeNodes(np.array([-1]), np.zeros(1), np.array([-1]), np.array([-1]),
                     np.array([[2, 1]]))
    assert sorted(_leaf_depths(chain)) == list(range(1, depth + 1)) + [depth]
    return ForestModel(trees=(root, chain), n_features=1, n_classes=2)


def _leaf_depths(tree):
    depth = np.zeros(tree.n_nodes, dtype=np.int64)
    for i in np.nonzero(tree.feature >= 0)[0]:
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    return depth[tree.feature < 0]


def _assert_preorder_layout(tree):
    # preorder puts a split node's left child right after it
    ids, split = np.arange(tree.n_nodes), tree.feature >= 0
    np.testing.assert_array_equal(tree.left[split], ids[split] + 1)
    assert np.all(tree.right[split] > ids[split] + 1)
    leaf = ~split
    assert np.all(tree.feature[leaf] == -1)
    assert tree.threshold[leaf].tobytes() == bytes(8 * leaf.sum())  # +0.0
    assert np.all(tree.left[leaf] == -1) and np.all(tree.right[leaf] == -1)


def _assert_same_trees(a, b):
    # assert_array_equal alone would accept an int32 array against an int64 one
    for ta, tb in zip(a.trees, b.trees, strict=True):
        for name in ("feature", "threshold", "left", "right", "counts"):
            xa, xb = getattr(ta, name), getattr(tb, name)
            assert (name, xa.dtype, xa.shape) == (name, xb.dtype, xb.shape)
            np.testing.assert_array_equal(xa, xb)


def _small_forest_data():
    rng = generator(17)
    X = rng.integers(0, 5, size=(100, 6)).astype(np.float64)
    return X, rng.integers(0, 3, size=100)


class TestFreshDraws:
    # every fit draws each tree's candidates afresh, so any sequence of fits
    # equals the recursive oracle, fit by fit
    @pytest.mark.parametrize("other", [
        {"keep": 3}, {"n_features": 2}, {"seed": 8},
    ], ids=["rows", "features", "seed"])
    def test_interleaved_shapes_equal_the_oracle(self, other):
        X, y = _small_forest_data()

        def fit_args(fold, keep=10, n_features=6, seed=3):
            rows = np.arange(100) % keep != fold
            return X[rows, :n_features], y[rows], 3, 6, 16, 2, seed

        for args in (fit_args(0), fit_args(1), fit_args(0, **other), fit_args(2)):
            _assert_same_trees(fit_forest(*args), fit_forest_recursive(*args))

    def test_other_depths_equal_the_oracle(self):
        X, y = _small_forest_data()
        rows = np.arange(100) % 10 != 0
        for max_depth, min_split in ((2, 2), (16, 2), (3, 10), (16, 5)):
            args = (X[rows], y[rows], 3, 6, max_depth, min_split, 5)
            _assert_same_trees(fit_forest(*args), fit_forest_recursive(*args))

    def test_fit_after_an_interrupted_fit_equals_the_oracle(self, monkeypatch):
        X, y = _small_forest_data()
        rows = np.arange(100) % 10 != 0
        monkeypatch.setattr(forest, "TREES_IN_FLIGHT", 32)
        deep = (X[rows], y[rows], 3, 40, 16, 2, 7)  # 40 trees: 8 wait to start
        split_step, calls = forest._split_step, []

        def stop_at_fifth_step(*args):
            calls.append(len(calls))
            if len(calls) == 5:
                raise KeyboardInterrupt
            return split_step(*args)

        monkeypatch.setattr(forest, "_split_step", stop_at_fifth_step)
        with pytest.raises(KeyboardInterrupt):
            fit_forest(*deep)
        monkeypatch.setattr(forest, "_split_step", split_step)
        _assert_same_trees(fit_forest(*deep), fit_forest_recursive(*deep))

    def test_default_forest_grows_in_one_wave(self, monkeypatch):
        # every tree of a default-size forest starts before the first step
        X, y = _small_forest_data()
        n_trees = DEFAULT_HYPERPARAMETERS["rf"]["n_trees"]
        plain, seeds = forest.generator, []
        monkeypatch.setattr(forest, "generator", lambda seed: seeds.append(seed) or plain(seed))

        def stop_at_first_step(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(forest, "_split_step", stop_at_first_step)
        with pytest.raises(KeyboardInterrupt):
            fit_forest(X, y, 3, n_trees, 16, 2, 9)
        assert len(seeds) == n_trees

    def test_race_folds_equal_the_oracle_through_fit(self, cardio_ds):
        spec = ClassifierSpec("rf", {"n_trees": 5, "max_depth": 8}, seed=4)
        for k in range(3):
            part = cardio_ds.select(np.nonzero(np.arange(cardio_ds.n_rows) % 4 != k)[0])
            model = fit(spec, part, ORIGIN_TEACHER)
            _assert_same_trees(model.params, fit_forest_recursive(
                part.features, part.labels, 2, 5, 8, 2, 4))


def _fold_subsets(n_rows, k, seed):
    """A race's waves of training rows: folds drawn at random, so their sizes
    differ, then each fold's training rows, two folds per wave (an odd k
    leaves a lone last fold)."""
    fold_of = generator(seed).integers(0, k, size=n_rows)
    train = [np.flatnonzero(fold_of != fold) for fold in range(k)]
    return [train[first : first + 2] for first in range(0, k, 2)]


def _assert_wave_equals_own_fits(X, y, subsets, n_classes, n_trees, max_depth, min_split, seed):
    wave = fit_forests(X, y, subsets, n_classes, n_trees, max_depth, min_split, seed)
    assert len(wave.trees) == len(subsets) * n_trees
    for i, rows in enumerate(subsets):
        own = fit_forest(X[rows], y[rows], n_classes, n_trees, max_depth, min_split, seed)
        trees = wave.trees[i * n_trees : (i + 1) * n_trees]
        _assert_same_trees(ForestModel(trees, wave.n_features, wave.n_classes), own)


class TestFoldWaves:
    # a wave grows several ascending row subsets of one matrix together; each
    # subset's trees equal those of its own fit, in every field and dtype

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_waves_equal_own_fits_on_tied_cells(self, n_classes):
        # the tie-heavy data of test_trees_equal_the_recursive_reference
        rng = generator(140 + n_classes)
        eps = np.finfo(np.float64).eps
        for trial in range(8):
            n_rows = int(rng.integers(24, 120))
            n_features = int(rng.integers(1, 7))
            X = rng.integers(0, int(rng.integers(2, 6)), size=(n_rows, n_features))
            X = 1.0 + eps * X if trial % 2 else X.astype(np.float64)
            y = rng.integers(0, n_classes, size=n_rows)
            k = int(rng.choice([2, 3, 5]))
            max_depth = int(rng.choice([0, 1, 3, 16]))
            min_split = int(rng.choice([2, 5, 20]))
            for subsets in _fold_subsets(n_rows, k, trial):
                _assert_wave_equals_own_fits(X, y, subsets, n_classes, 3, max_depth,
                                             min_split, int(rng.integers(0, 1000)))

    @pytest.mark.parametrize("n_trees, max_depth", [(1, 16), (7, 16), (100, 16), (7, 0)])
    def test_waves_equal_own_fits_at_forest_sizes(self, n_trees, max_depth):
        X, y = _small_forest_data()
        for subsets in _fold_subsets(100, 3, n_trees):
            _assert_wave_equals_own_fits(X, y, subsets, 3, n_trees, max_depth, 2, 11)

    @pytest.mark.parametrize("in_flight", [1, 7, 100])
    @pytest.mark.parametrize("step_rows", [1, forest.STEP_ROWS, 10**9])
    def test_waves_do_not_depend_on_batching(self, step_rows, in_flight, monkeypatch):
        # the extremes of test_trees_do_not_depend_on_batching: one slot or
        # more slots than trees per subset, one node or every node per step
        monkeypatch.setattr(forest, "STEP_ROWS", step_rows)
        monkeypatch.setattr(forest, "TREES_IN_FLIGHT", in_flight)
        X, y = _small_forest_data()
        for subsets in _fold_subsets(100, 3, 5):
            _assert_wave_equals_own_fits(X, y, subsets, 3, 12, 16, 2, 6)

    def test_default_pair_grows_in_one_wave(self, monkeypatch):
        # both folds' trees start before the first step, which fills the
        # pair's budget of twice STEP_ROWS rows
        X, y = _small_forest_data()
        n_trees = DEFAULT_HYPERPARAMETERS["rf"]["n_trees"]
        plain, split_step, seeds, rows = forest.generator, forest._split_step, [], []
        monkeypatch.setattr(forest, "generator", lambda seed: seeds.append(seed) or plain(seed))

        def stop_at_first_step(*args):
            rows.append(int(inspect.signature(split_step).bind(*args).arguments["m"].sum()))
            raise KeyboardInterrupt

        monkeypatch.setattr(forest, "_split_step", stop_at_first_step)
        with pytest.raises(KeyboardInterrupt):
            fit_forests(X, y, _fold_subsets(100, 2, 1)[0], 3, n_trees, 16, 2, 9)
        assert len(seeds) == 2 * n_trees
        assert forest.STEP_ROWS < rows[0] <= 2 * forest.STEP_ROWS

    def test_fit_of_subsets_holds_each_subset_model_in_turn(self, cardio_ds):
        spec = ClassifierSpec("rf", {"n_trees": 6, "max_depth": 8}, seed=4)
        subsets = _fold_subsets(cardio_ds.n_rows, 2, 3)[0]
        model = fit(spec, cardio_ds, ORIGIN_TEACHER, subsets)
        for i, rows in enumerate(subsets):
            own = fit(spec, cardio_ds.select(rows), ORIGIN_TEACHER).params
            _assert_same_trees(ForestModel(model.params.trees[6 * i : 6 * (i + 1)], 11, 2), own)

    def test_single_class_subset_is_refused_as_its_own_fit_is(self, toy):
        spec = ClassifierSpec("rf", {"n_trees": 3})
        one_class = np.flatnonzero(toy.labels == 0)
        with pytest.raises(PipelineError) as own:
            fit(spec, toy.select(one_class), ORIGIN_TEACHER)
        with pytest.raises(PipelineError) as wave:
            fit(spec, toy, ORIGIN_TEACHER, [np.arange(toy.n_rows), one_class])
        assert str(wave.value) == str(own.value)

    @pytest.mark.parametrize("subsets", [
        [], [[]], [[2, 1]], [[1, 1]], [[-1, 2]], [[0, 10**6]], [np.array([3, 1], np.uint8)],
        [[0.0, 1.0]], [np.ones(4, bool)], [[[0, 1]]],
    ])
    def test_subsets_must_be_ascending_row_indices(self, toy, subsets):
        with pytest.raises(PipelineError, match="strictly ascending"):
            fit(ClassifierSpec("rf", {"n_trees": 3}), toy, ORIGIN_TEACHER, subsets)

    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_fold_fits_give_each_fold_its_own_model(self, heart_ds, kind, k):
        # rf pairs its folds (an odd k leaves a lone last one); the others fit
        # one fold's rows at a time; every fold model decides as its own fit
        spec = ClassifierSpec(kind, {"n_trees": 6} if kind == "rf" else {}, seed=4)
        assignment = kfold(heart_ds, k, 3)
        seen = []
        for folds, data, subsets in fold_fits(spec, heart_ds, assignment):
            assert len(folds) == (min(2, k - folds[0]) if kind == "rf" else 1)
            models = fold_models(fit(spec, data, ORIGIN_TEACHER, subsets), len(folds))
            for fold, model in zip(folds, models, strict=True):
                own = fit(spec, heart_ds.select(assignment.train_indices(fold)), ORIGIN_TEACHER)
                for got, want in zip(decide_batch(model, heart_ds.features),
                                     decide_batch(own, heart_ds.features)):
                    assert got.tobytes() == want.tobytes()
                seen.append(fold)
        assert seen == list(range(k))

    @pytest.mark.parametrize("kind", ["svm", "knn", "nb"])
    def test_other_families_fit_one_subset_per_call(self, toy, kind):
        with pytest.raises(PipelineError, match="one row subset per call"):
            fit(ClassifierSpec(kind), toy, ORIGIN_TEACHER, [np.arange(toy.n_rows)])

    def test_pair_peak_allocation_stays_bounded(self):
        # two 630-row folds of a 700-row partition, as a race grows them:
        # twice the slots and step rows of one fit, which peaks near 3.3 MB
        ds = cardio_like().select(np.arange(700))
        hp = DEFAULT_HYPERPARAMETERS["rf"]
        subsets = _fold_subsets(700, 10, 1)[0]
        args = (ds.features, ds.labels, subsets, 2, hp["n_trees"], hp["max_depth"],
                hp["min_split"], 1)
        fit_forests(*args[:4], 2, *args[5:])  # warm-up: lazy imports and first calls
        tracemalloc.start()
        try:
            fit_forests(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000, f"pair fit peaked at {peak / 1e6:.1f} MB"


class TestNaiveBayesOracle:
    def test_log_posterior_matches_direct_formula(self):
        rng = generator(99)
        for _ in range(10):
            train = _random_dataset(rng, int(rng.integers(10, 60)), 4, 3)
            model = fit(ClassifierSpec("nb", {}), train, ORIGIN_TEACHER)
            X = rng.normal(size=(15, 4))
            got = nb_log_posterior(model.params, X)
            want = nb_log_posterior_direct(model.params, X)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
            np.testing.assert_array_equal(
                predict_batch(model, X), np.argmax(want, axis=1)
            )

    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 60),
           n_features=st.integers(1, 12), n_classes=st.integers(2, 4),
           log_scale=st.integers(-3, 100), layout=st.sampled_from(["C", "F", "strided"]))
    @settings(max_examples=100, deadline=None)
    def test_one_buffer_writes_the_expression_bytes(self, seed, n_rows, n_features,
                                                    n_classes, log_scale, layout):
        # the layout of X decides how numpy rounds each row sum, so query
        # rows come C-ordered, Fortran-ordered and as a strided view
        rng = generator(seed)
        scale = 10.0 ** log_scale
        X = (rng.normal(size=(n_rows, n_features)) + rng.normal(size=n_features)) * scale
        y = rng.integers(0, n_classes, size=n_rows)  # an absent class has prior 0
        model = fit_nb(X, y, n_classes, 1e-9)
        wide = rng.normal(size=(n_rows, 2 * n_features)) * scale
        Q = {"C": wide[:, :n_features].copy(), "F": np.asfortranarray(wide[:, :n_features]),
             "strided": wide[:, ::2]}[layout]
        got = nb_log_posterior(model, Q)
        assert got.tobytes() == nb_log_posterior_expression(model, Q).tobytes()

    def test_constant_feature_survives_smoothing(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
        ds = Dataset(X, ("a", "b"), np.array([0, 0, 1, 1]), ("n", "p"), "t")
        model = fit(ClassifierSpec("nb", {}), ds, ORIGIN_TEACHER)
        assert np.all(model.params.variances > 0)
        preds = predict_batch(model, X)
        assert preds.shape == (4,)


def _svm_bytes(model):
    return model.weights.tobytes(), np.float64(model.bias).tobytes()


def _svm_outcome(fit_fn, *args):
    """Weight and bias bytes of a fit, or the type of what it raised."""
    try:
        return _svm_bytes(fit_fn(*args))
    except Exception as exc:  # compared by type against the oracle's
        return type(exc)


# log-uniform over the positive doubles from 5e-324 to 1.7e308, plus both ends
_LAMBDAS = st.one_of(
    st.sampled_from([5e-324, 1.7e308]),
    st.floats(-323.3, 308.2).map(lambda e: min(max(10.0**e, 5e-324), 1.7e308)),
)

_SVM_FITS = dict(
    reg_lambda=_LAMBDAS,
    n_rows=st.integers(1, 40),
    log_scales=st.lists(st.floats(-310.0, 300.0), max_size=12),
    zero_rows=st.sets(st.integers(0, 39), max_size=5),
    epochs=st.integers(1, 3),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 1000),
)


class _CountingMath:
    """Stands in for ``math`` inside ``svm`` and counts ``fsum`` and ``sqrt``
    calls. The radius takes one ``sqrt`` and each norm one ``fsum`` under one
    ``sqrt``; every other ``fsum`` is a margin its bound could not decide."""

    def __init__(self):
        self.fsum_calls = self.sqrt_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, values):
        self.fsum_calls += 1
        return math.fsum(values)

    def sqrt(self, value):
        self.sqrt_calls += 1
        return math.sqrt(value)

    @property
    def norms(self):
        return self.sqrt_calls - 1

    @property
    def fallbacks(self):
        return self.fsum_calls - self.norms


def _sum_toward_one(values):
    """``pushed_sum`` for the calling ``fit_svm`` step, whose ``s`` and ``b``
    are read from that frame's locals."""
    step = sys._getframe(1).f_locals
    return pushed_sum(values, step["s"], step["b"])


class TestSvm:
    def test_separates_linearly_separable_data(self):
        for seed in range(10):
            ds = linearly_separable(seed=seed)
            model = fit(ClassifierSpec("svm", {}, seed=seed), ds, ORIGIN_TEACHER)
            acc = np.mean(predict_batch(model, ds.features) == ds.labels)
            assert acc == 1.0

    def test_binary_only(self):
        rng = generator(4)
        ds = _random_dataset(rng, 30, 3, n_classes=3)
        with pytest.raises(PipelineError):
            fit(ClassifierSpec("svm", {}), ds, ORIGIN_TEACHER)

    def test_score_is_signed_margin(self, toy):
        model = fit(ClassifierSpec("svm", {}), toy, ORIGIN_TEACHER)
        scores = score_batch(model, toy.features)
        preds = predict_batch(model, toy.features)
        np.testing.assert_array_equal(preds, (scores > 0).astype(np.int64))

    def test_far_rows_score_finite_or_signed(self):
        # standardized, such rows hold infinities and their products overflow
        ds = heart_disease_like()
        model = fit(ClassifierSpec("svm", seed=1), ds, ORIGIN_STUDENT)
        far = np.resize([-1e308, 1e308], ds.n_features) * np.array([[1.0], [-1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores, preds = score_batch(model, far), predict_batch(model, far)
        assert scores.tolist() == [-math.inf, math.inf]
        # a margin this far is led by w . x / std, so the sign is that of a row
        # scaled into range
        near = score_batch(model, far * 1e-10)
        assert np.all(np.isfinite(near)) and np.array_equal(np.sign(near), np.sign(scores))
        np.testing.assert_array_equal(preds, (scores > 0).astype(np.int64))
        # products that overflow on finite rows
        margins = svm_margin(SvmModel(np.array([10.0, 10.0]), 0.0),
                             np.array([[1e308, -1e308], [1e308, 2e307], [1.0, 2.0]]))
        assert margins.tolist() == [0.0, math.inf, 30.0]

    @pytest.mark.parametrize("weights", [[-0.0, -0.0, -0.0], [-0.0, -0.0, 1.0]])
    def test_no_margin_is_negative_zero(self, weights):
        X = np.array([[1.0, -2.0, 0.0], [0.0, 0.0, -0.0], [-3.0, 0.0, 2.0],
                      [-0.0, 5.0, -0.0], [2.0, -0.0, -2.0], [0.0, -1.0, 0.0]])
        model = SvmModel(weights=np.array(weights), bias=-0.0)
        margins = svm_margin(model, X)
        assert not np.any(np.signbit(margins) & (margins == 0))
        text = roc(margins, np.array([0, 1, 0, 1, 0, 1])).to_csv_text()
        assert "-0.0" not in text

    @given(**_SVM_FITS)
    @settings(max_examples=60, deadline=None)
    def test_fit_matches_stepwise_norm_oracle(
        self, reg_lambda, n_rows, log_scales, zero_rows, epochs, data_seed, seed
    ):
        # columns scaled by 1e-310 to 1e300, some rows all zero
        rng = generator(data_seed)
        X = rng.normal(size=(n_rows, len(log_scales))) * 10.0 ** np.array(log_scales)
        X[[r for r in zero_rows if r < n_rows]] = 0.0
        y = rng.integers(0, 2, size=n_rows)
        args = (X, y, 2, reg_lambda, epochs, seed)
        assert _svm_outcome(fit_svm, *args) == _svm_outcome(fit_svm_stepwise, *args)

    def test_default_fold_fit_rarely_computes_the_norm(self, monkeypatch):
        # rows i % 10 != 0 of the first 700 cardio_like rows, as one fold
        # of a default race, standardized as fit does for svm
        ds = cardio_like().select(np.arange(700))
        part = ds.select(np.nonzero(np.arange(700) % 10 != 0)[0])
        X = apply_scaler(part, fit_scaler(part)).features
        args = (X, part.labels, 2, 1e-4, 50, 1)
        counting = _CountingMath()
        monkeypatch.setattr(svm, "math", counting)
        model = fit_svm(*args)
        steps = 50 * part.n_rows
        norms, fallbacks = counting.norms, counting.fallbacks
        assert 0 < norms < steps // 10, f"{norms} of {steps} steps took the norm"
        assert fallbacks == 0, f"{fallbacks} of {steps} margins took fsum"
        assert _svm_bytes(model) == _svm_bytes(fit_svm_stepwise(*args))

    @pytest.mark.parametrize("summation", [neumaier_sum, _sum_toward_one],
                             ids=["compensated", "worst-case"])
    @given(**_SVM_FITS)
    @settings(max_examples=60, deadline=None)
    def test_fit_under_other_summations_matches_stepwise_oracle(self, summation, **case):
        # the margin's sum only picks the branch, so a sum that errs as
        # Python 3.12's sum() does, or by the full bound toward 1, moves no byte
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(svm, "sum", summation, raising=False)
            self.test_fit_matches_stepwise_norm_oracle.hypothesis.inner_test(self, **case)

    @pytest.mark.parametrize("summation", [sum, neumaier_sum, _sum_toward_one],
                             ids=["builtin", "compensated", "worst-case"])
    @given(
        n_rows=st.integers(1, 12),
        n_features=st.integers(1, 4),
        reg_lambda=st.sampled_from([0.5, 1.0, 2.0]),
        epochs=st.integers(1, 5),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_near_one_margins_match_stepwise_oracle(
        self, summation, n_rows, n_features, reg_lambda, epochs, data_seed, seed
    ):
        # rows from {-1, 0, 1} at lambda near 1 put many margins within a few
        # roundings of 1, where only the bound keeps fsum's hinge
        rng = generator(data_seed)
        X = rng.integers(-1, 2, size=(n_rows, n_features)).astype(np.float64)
        args = (X, rng.integers(0, 2, size=n_rows), 2, reg_lambda, epochs, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(svm, "sum", summation, raising=False)
            assert _svm_outcome(fit_svm, *args) == _svm_outcome(fit_svm_stepwise, *args)

    def test_undecided_margin_falls_back_to_fsum(self, monkeypatch):
        # step 1's hinge sets w = b = 1/3, so step 2's margin is 1 up to
        # rounding, which the bound cannot decide
        args = (np.array([[1.0, 1.0]]), np.array([1]), 2, 3.0, 2, 0)
        counting = _CountingMath()
        monkeypatch.setattr(svm, "math", counting)
        model = fit_svm(*args)
        assert counting.fallbacks == 1
        assert _svm_bytes(model) == _svm_bytes(fit_svm_stepwise(*args))

    def test_compensated_oracle_matches_a_newer_builtin_sum(self):
        # the newer interpreter needs no numpy: it sums floats sent as hex
        check = "import sys; assert sys.version_info >= (3, 12)"
        newer = [path for path in map(shutil.which, ("python3.14", "python3.13", "python3.12"))
                 if path and subprocess.run([path, "-c", check], capture_output=True).returncode == 0]
        if not newer:
            pytest.skip("no Python 3.12 or later on PATH")
        rng = generator(7)
        cases = [(rng.normal(size=int(n)) * 10.0 ** rng.integers(-300, 300, size=int(n))).tolist()
                 + [1e16, 1.0, -1e16, math.inf, -math.inf, math.nan][: int(m)]
                 for n, m in zip(rng.integers(0, 14, size=400), rng.integers(0, 7, size=400))]
        lines = "".join(" ".join(v.hex() for v in case) + "\n" for case in cases)
        child = subprocess.run(
            [newer[0], "-c", "import sys\nfor line in sys.stdin:\n"
             "    print(float(sum(map(float.fromhex, line.split()))).hex())"],
            input=lines, capture_output=True, text=True, check=True)
        assert child.stdout.split() == [float(neumaier_sum(case)).hex() for case in cases]


class TestFitContract:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_deterministic_for_fixed_seed(self, kind, toy):
        a = fit(ClassifierSpec(kind, {}, seed=11), toy, ORIGIN_TEACHER)
        b = fit(ClassifierSpec(kind, {}, seed=11), toy, ORIGIN_TEACHER)
        np.testing.assert_array_equal(
            predict_batch(a, toy.features), predict_batch(b, toy.features)
        )
        np.testing.assert_array_equal(
            score_batch(a, toy.features), score_batch(b, toy.features)
        )

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_single_class_training_set_rejected(self, kind):
        X = np.arange(20, dtype=np.float64).reshape(10, 2)
        ds = Dataset(X, ("a", "b"), np.zeros(10, dtype=np.int64), ("n", "p"), "t")
        with pytest.raises(PipelineError):
            fit(ClassifierSpec(kind, {}), ds, ORIGIN_TEACHER)

    def test_scaling_policy(self, toy):
        for kind in ("svm", "knn"):
            assert fit(ClassifierSpec(kind, {}), toy, ORIGIN_TEACHER).scaler is not None
        for kind in ("rf", "nb"):
            assert fit(ClassifierSpec(kind, {}), toy, ORIGIN_TEACHER).scaler is None

    def test_origin_recorded_and_validated(self, toy):
        model = fit(ClassifierSpec("nb", {}), toy, ORIGIN_STUDENT)
        assert model.origin == ORIGIN_STUDENT
        with pytest.raises(PipelineError):
            fit(ClassifierSpec("nb", {}), toy, "shared-with-everyone")

    def test_feature_count_checked_at_predict(self, toy):
        model = fit(ClassifierSpec("rf", {"n_trees": 5}), toy, ORIGIN_TEACHER)
        with pytest.raises(Exception):
            predict_batch(model, toy.features[:, :2])

    def test_every_family_learns_the_threshold_toy(self, toy):
        for kind in FAMILIES:
            model = fit(ClassifierSpec(kind, {}, seed=1), toy, ORIGIN_TEACHER)
            acc = np.mean(predict_batch(model, toy.features) == toy.labels)
            assert acc == 1.0, kind

    def test_model_reports_shape(self, toy):
        model = fit(ClassifierSpec("nb", {}), toy, ORIGIN_TEACHER)
        assert isinstance(model, TrainedModel)
        assert model.n_features == toy.n_features
        assert model.n_classes == 2


def _nb_posterior_reference(lp):
    peak = lp.max(axis=1, keepdims=True)
    expd = np.exp(lp - peak)
    return expd / expd.sum(axis=1, keepdims=True)


class TestDecideBatch:
    @pytest.mark.parametrize("kind,n_classes", [
        (kind, c) for kind in FAMILIES for c in (2, 3) if (kind, c) != ("svm", 3)
    ])
    @pytest.mark.parametrize("n_rows", [0, 1, 40])
    def test_equals_predict_and_score(self, kind, n_classes, n_rows):
        rng = generator(70 + n_classes)
        train = _random_dataset(rng, 60, 4, n_classes)
        hp = {"rf": {"n_trees": 7}, "svm": {"epochs": 3}}.get(kind, {})
        model = fit(ClassifierSpec(kind, hp, seed=3), train, ORIGIN_STUDENT)
        rows = rng.normal(size=(n_rows, 4))
        pred, scores = decide_batch(model, rows)
        for got, want in ((pred, predict_batch(model, rows)),
                          (scores, score_batch(model, rows))):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        assert (pred.dtype, scores.dtype) == (np.int64, np.float64)
        if n_rows == 0:
            return
        # the expressions each family applied before sharing one raw output
        p = model.params
        X = rows if model.scaler is None else (
            (rows - model.scaler.means) / model.scaler.std_devs
        )
        if kind == "svm":
            want_pred = (svm_margin(p, X) > 0).astype(np.int64)
            want_score = svm_margin(p, X)
        elif kind == "knn":
            want_pred = knn_vote(p, X, 8)[0]
            want_score = knn_vote(p, X, 8)[1][:, 1] / 8.0
        elif kind == "rf":
            votes = np.array(forest_votes_walk(p, X))
            want_pred = forest_predict_walk(p, X)
            want_score = votes[:, 1] / 7.0
        else:
            want_pred = np.argmax(nb_log_posterior(p, X), axis=1)
            want_score = _nb_posterior_reference(nb_log_posterior(p, X))[:, 1]
        assert pred.tobytes() == want_pred.astype(np.int64).tobytes()
        assert scores.tobytes() == want_score.tobytes()
