import copy
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

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
    predict,
    predict_batch,
    score_batch,
    specs_from_config,
)
from mimiclearn.classifiers import forest
from mimiclearn.classifiers.bayes import nb_log_posterior
from mimiclearn.classifiers.forest import WALK_ROWS, fit_forest, forest_votes
from mimiclearn.classifiers.knn import knn_vote
from mimiclearn.classifiers.svm import svm_margin
from mimiclearn.data import Dataset, kfold
from mimiclearn.errors import PipelineError
from mimiclearn.mimic import _cross_validate
from mimiclearn.rng import generator
from mimiclearn.synthetic import cardio_like, linearly_separable, threshold_toy

from oracles import (
    fit_forest_recursive,
    forest_predict_walk,
    forest_votes_walk,
    knn_predict_bruteforce,
    knn_votes_bruteforce,
    nb_log_posterior_direct,
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
            fast, slow = fit_forest(*args), fit_forest_recursive(*args)
            for a, b in zip(fast.trees, slow.trees, strict=True):
                for name in ("feature", "threshold", "left", "right", "counts"):
                    np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

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
            fast, slow = fit_forest(*args), fit_forest_recursive(*args)
            for a, b in zip(fast.trees, slow.trees, strict=True):
                for name in ("feature", "threshold", "left", "right", "counts"):
                    np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_fit_peak_allocation_stays_bounded(self):
        # a default forest on 700 rows, the size of a run's teacher refit;
        # growing all its trees at once without a row budget peaks near 47 MB
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

        depth = np.zeros(tree.n_nodes, dtype=np.int64)
        for i in np.nonzero(tree.feature >= 0)[0]:
            depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
        assert depth.max() == 78

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

    @pytest.mark.parametrize("hp", [
        {"n_trees": 4, "max_depth": 0}, {"n_trees": 1}, {"n_trees": 6, "max_depth": 5},
    ], ids=["depth-0", "one-tree", "six-trees"])
    @pytest.mark.parametrize("n_rows", [WALK_ROWS - 1, WALK_ROWS, WALK_ROWS + 1])
    def test_walk_shapes_and_block_edges(self, heart_ds, hp, n_rows):
        model = fit(ClassifierSpec("rf", hp, seed=6), heart_ds, ORIGIN_TEACHER)
        X = heart_ds.features[np.arange(n_rows) % heart_ds.n_rows]
        X = X * generator(n_rows).uniform(0.9, 1.1, size=X.shape)
        np.testing.assert_array_equal(
            forest_votes(model.params, X), forest_votes_walk(model.params, X)
        )

    def test_forest_without_features_votes_its_root_leaves(self):
        # a Dataset refuses zero feature columns, so fit the forest directly
        model = fit_forest(np.zeros((6, 0)), np.arange(6) % 2, 2, 3, 0, 2, 1)
        X = np.zeros((WALK_ROWS + 1, 0))
        np.testing.assert_array_equal(forest_votes(model, X), forest_votes_walk(model, X))

    def test_vote_fraction_score_matches_votes(self, heart_ds):
        spec = ClassifierSpec("rf", {"n_trees": 9, "max_depth": 4}, seed=3)
        model = fit(spec, heart_ds, ORIGIN_TEACHER)
        scores = score_batch(model, heart_ds.features[:30])
        assert np.all((scores * 9) % 1 == 0)  # integer vote counts
        assert scores.min() >= 0 and scores.max() <= 1


def _assert_same_trees(a, b):
    for ta, tb in zip(a.trees, b.trees, strict=True):
        for name in ("feature", "threshold", "left", "right", "counts"):
            np.testing.assert_array_equal(getattr(ta, name), getattr(tb, name))


def _small_forest_data():
    rng = generator(17)
    X = rng.integers(0, 5, size=(100, 6)).astype(np.float64)
    return X, rng.integers(0, 3, size=100)


class TestSharedDraws:
    # fit_forest keeps the draws of its latest fit shape; every fit must still
    # equal the recursive oracle, which draws everything afresh
    @pytest.mark.parametrize("other", [
        {"keep": 3}, {"n_features": 2}, {"seed": 8},
    ], ids=["rows", "features", "seed"])
    def test_interleaved_shapes_equal_the_oracle(self, other):
        X, y = _small_forest_data()

        def fit_args(fold, keep=10, n_features=6, seed=3):
            rows = np.arange(100) % keep != fold
            return X[rows, :n_features], y[rows], 3, 6, 16, 2, seed

        # shapes A, A, B, A: B replaces the memo and A draws afresh after it
        for args in (fit_args(0), fit_args(1), fit_args(0, **other), fit_args(2)):
            _assert_same_trees(fit_forest(*args), fit_forest_recursive(*args))
            n, n_features = args[0].shape
            assert list(forest._shared_draws) == [(args[-1], n, n_features)]
            assert len(forest._shared_draws[args[-1], n, n_features]) == 6

    def test_other_depths_extend_the_stored_draws(self):
        X, y = _small_forest_data()
        rows = np.arange(100) % 10 != 0
        stored = []
        for max_depth, min_split in ((2, 2), (16, 2), (3, 10), (16, 5)):
            args = (X[rows], y[rows], 3, 6, max_depth, min_split, 5)
            _assert_same_trees(fit_forest(*args), fit_forest_recursive(*args))
            memo = forest._shared_draws[5, 90, 6]
            stored.append(sum(len(draws) for _, draws in memo.values()))
        # the deep fit extends the shallow fit's draws; later fits read them
        assert stored[0] < stored[1] == stored[2] == stored[3]

    def test_interrupted_fit_leaves_no_wrong_entry(self, monkeypatch):
        X, y = _small_forest_data()
        rows = np.arange(100) % 10 != 0
        shallow = (X[rows], y[rows], 3, 40, 2, 2, 7)  # 40 trees: 8 wait to start
        deep = (X[rows], y[rows], 3, 40, 16, 2, 7)
        fit_forest(*shallow)
        split_step, calls = forest._split_step, []

        def stop_at_fifth_step(*args):
            calls.append(len(calls))
            if len(calls) == 5:
                raise KeyboardInterrupt
            return split_step(*args)

        monkeypatch.setattr(forest, "_split_step", stop_at_fifth_step)
        with pytest.raises(KeyboardInterrupt):
            fit_forest(*deep)
        monkeypatch.undo()
        # the trees in flight had drawn past their stored draws: no entry
        assert len(forest._shared_draws[7, 90, 6]) == 40 - forest.TREES_IN_FLIGHT
        _assert_same_trees(fit_forest(*deep), fit_forest_recursive(*deep))
        assert len(forest._shared_draws[7, 90, 6]) == 40

    def test_race_folds_share_draws_through_fit(self, cardio_ds):
        spec = ClassifierSpec("rf", {"n_trees": 5, "max_depth": 8}, seed=4)
        for k in range(3):
            part = cardio_ds.select(np.nonzero(np.arange(cardio_ds.n_rows) % 4 != k)[0])
            model = fit(spec, part, ORIGIN_TEACHER)
            _assert_same_trees(model.params, fit_forest_recursive(
                part.features, part.labels, 2, 5, 8, 2, 4))
        assert list(forest._shared_draws) == [(4, part.n_rows, part.n_features)]
        assert len(forest._shared_draws[4, part.n_rows, part.n_features]) == 5

    def test_memo_of_a_default_race_stays_small(self):
        # the ten 630-row folds of a default rf spec, as in a run's teacher race
        ds = cardio_like().select(np.arange(700))
        spec = ClassifierSpec("rf", {}, seed=1)
        _cross_validate(spec, ds, kfold(ds, 10, 5))
        assert list(forest._shared_draws) == [(1, 630, ds.n_features)]
        memo = forest._shared_draws[1, 630, ds.n_features]
        assert len(memo) == DEFAULT_HYPERPARAMETERS["rf"]["n_trees"]
        # tracing the fits themselves takes half a minute: measure a deep copy
        copy.deepcopy(memo)  # warm-up
        tracemalloc.start()
        try:
            held_copy = copy.deepcopy(memo)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(held_copy) == len(memo)
        assert held < 1_000_000, f"the draws memo holds {held / 1e6:.2f} MB"


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

    def test_constant_feature_survives_smoothing(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
        ds = Dataset(X, ("a", "b"), np.array([0, 0, 1, 1]), ("n", "p"), "t")
        model = fit(ClassifierSpec("nb", {}), ds, ORIGIN_TEACHER)
        assert np.all(model.params.variances > 0)
        preds = predict_batch(model, X)
        assert preds.shape == (4,)


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
