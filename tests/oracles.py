"""Slow, independent reference implementations used to check the fast paths.

Everything here is deliberately written the dumb way -- per-row Python
loops, explicit formulas -- so that agreement with the vectorized library
code is meaningful evidence rather than the same code run twice.
"""

import math

import numpy as np

from mimiclearn.classifiers.forest import ForestModel, TreeNodes
from mimiclearn.rng import STAGE_TREE, derive_seed, generator


def knn_votes_bruteforce(train_X, train_y, query_X, k, n_classes):
    """Per-query loop: sort by (squared distance, training index), vote.

    Returns, per query, the vote count of each class and the label of the
    single nearest neighbor.
    """
    all_votes, nearest = [], []
    for q in query_X:
        d2 = [(float(((q - x) ** 2).sum()), i) for i, x in enumerate(train_X)]
        d2.sort()
        neighbor_labels = [int(train_y[i]) for _, i in d2[:k]]
        votes = [0] * n_classes
        for lab in neighbor_labels:
            votes[lab] += 1
        all_votes.append(votes)
        nearest.append(neighbor_labels[0])
    return all_votes, nearest


def knn_predict_bruteforce(train_X, train_y, query_X, k, n_classes):
    """Majority vote of :func:`knn_votes_bruteforce`.

    A tied vote falls back to the class of the single nearest neighbor.
    """
    preds = []
    for votes, nearest in zip(*knn_votes_bruteforce(
        train_X, train_y, query_X, k, n_classes
    )):
        top = max(votes)
        tied = [c for c, v in enumerate(votes) if v == top]
        preds.append(tied[0] if len(tied) == 1 else nearest)
    return np.array(preds, dtype=np.int64)


def _gini_best_split(X, y, idx, feats, n_classes):
    """Best (gini, feature, threshold) over candidate features, or None."""
    m = idx.size
    best_gini = math.inf
    best = None
    for f in feats:
        values = X[idx, f]
        order = np.argsort(values, kind="stable")
        vs = values[order]
        ys = y[idx][order]
        cut = np.nonzero(vs[1:] != vs[:-1])[0]
        if cut.size == 0:
            continue
        onehot = np.zeros((m, n_classes), dtype=np.float64)
        onehot[np.arange(m), ys] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        left_counts = prefix[cut]
        n_left = (cut + 1).astype(np.float64)
        n_right = m - n_left
        right_counts = prefix[-1] - left_counts
        gini_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
        gini = (n_left * gini_left + n_right * gini_right) / m
        j = int(np.argmin(gini))  # first minimum -> lowest threshold
        if gini[j] < best_gini:
            best_gini = float(gini[j])
            threshold = (vs[cut[j]] + vs[cut[j] + 1]) / 2.0
            best = (best_gini, int(f), float(threshold))
    return best


def _grow_tree(X, y, n_classes, max_depth, min_split, n_candidates, rng):
    n_features = X.shape[1]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    def recurse(idx: np.ndarray, depth: int) -> int:
        nid = len(feature)
        node_counts = np.bincount(y[idx], minlength=n_classes)
        feature.append(-1)
        threshold.append(0.0)  # never read at a leaf; keeps the JSON export finite
        left.append(-1)
        right.append(-1)
        counts.append(node_counts)
        if (
            depth >= max_depth
            or idx.size < min_split
            or int((node_counts > 0).sum()) <= 1
        ):
            return nid
        feats = np.sort(rng.choice(n_features, size=n_candidates, replace=False))
        best = _gini_best_split(X, y, idx, feats, n_classes)
        if best is None:
            return nid
        _, f, thr = best
        mask = X[idx, f] <= thr
        feature[nid] = f
        threshold[nid] = thr
        left[nid] = recurse(idx[mask], depth + 1)
        right[nid] = recurse(idx[~mask], depth + 1)
        return nid

    recurse(np.arange(X.shape[0]), 0)
    return TreeNodes(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        counts=np.array(counts, dtype=np.int64),
    )


def fit_forest_recursive(X, y, n_classes, n_trees, max_depth, min_split, seed):
    """``fit_forest`` with the per-node recursive grower above: same
    bootstrap and per-tree generator, one candidate feature at a time."""
    n = X.shape[0]
    n_candidates = min(X.shape[1], math.ceil(math.sqrt(X.shape[1])))
    trees = []
    for tree_index in range(n_trees):
        rng = generator(derive_seed(seed, STAGE_TREE, tree_index))
        sample = rng.integers(0, n, size=n)
        trees.append(_grow_tree(
            X[sample], y[sample], n_classes, max_depth, min_split, n_candidates, rng
        ))
    return ForestModel(trees=tuple(trees), n_features=X.shape[1], n_classes=n_classes)


def tree_predict_walk(tree, row):
    """Recursive walk of one flat-array tree for a single row."""
    node = 0
    while tree.feature[node] >= 0:
        if row[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    counts = tree.counts[node]
    best = 0
    for c in range(1, len(counts)):
        if counts[c] > counts[best]:
            best = c
    return best


def forest_votes_walk(forest, X):
    """Per-row class vote counts from one walk per (row, tree)."""
    all_votes = []
    for row in X:
        votes = [0] * forest.n_classes
        for tree in forest.trees:
            votes[tree_predict_walk(tree, row)] += 1
        all_votes.append(votes)
    return all_votes


def forest_predict_walk(forest, X):
    """Majority over per-tree walks; vote ties resolve to the lower class."""
    preds = []
    for votes in forest_votes_walk(forest, X):
        best = 0
        for c in range(1, forest.n_classes):
            if votes[c] > votes[best]:
                best = c
        preds.append(best)
    return np.array(preds, dtype=np.int64)


def nb_log_posterior_direct(model, X):
    """Log prior plus per-feature Gaussian log densities, scalar math."""
    n_classes = model.priors.shape[0]
    out = np.empty((X.shape[0], n_classes))
    for r, row in enumerate(X):
        for c in range(n_classes):
            prior = model.priors[c]
            total = math.log(prior) if prior > 0 else -math.inf
            for j, x in enumerate(row):
                m = model.means[c, j]
                v = model.variances[c, j]
                total += -0.5 * (math.log(2.0 * math.pi * v) + (x - m) ** 2 / v)
            out[r, c] = total
    return out


def confusion_counts_loop(y_true, y_pred, positive):
    """One-vs-rest confusion counts from an explicit per-sample loop."""
    tp = fp = tn = fn = 0
    for t, p in zip(y_true, y_pred):
        if p == positive:
            if t == positive:
                tp += 1
            else:
                fp += 1
        else:
            if t == positive:
                fn += 1
            else:
                tn += 1
    return tp, fp, tn, fn


def prf_from_counts(tp, fp, tn, fn):
    """Precision/recall/F1 with the zero-denominator-is-zero convention."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


def auc_mann_whitney(scores, y_true, positive=1):
    """Pairwise comparison AUC: wins count 1, score ties count half."""
    pos = [s for s, t in zip(scores, y_true) if t == positive]
    neg = [s for s, t in zip(scores, y_true) if t != positive]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))
