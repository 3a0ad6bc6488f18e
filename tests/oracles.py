"""Slow, independent reference implementations used to check the fast paths.

Everything here is deliberately written the dumb way -- per-row Python
loops, explicit formulas -- so that agreement with the vectorized library
code is meaningful evidence rather than the same code run twice. The two
seeded toy datasets at the end (a linearly separable set and a perfectly
learnable threshold) give tests inputs whose right answer is known.
"""

import csv
import dataclasses
import io
import itertools
import json
import math
import reprlib
from array import array
from operator import mul

import numpy as np

from mimiclearn.classifiers import ORIGIN_TEACHER, fit, predict_batch
from mimiclearn.classifiers.forest import ForestModel, TreeNodes
from mimiclearn.classifiers.svm import SvmModel
from mimiclearn.data import Dataset, _resolve_label_column
from mimiclearn.errors import DataError, PipelineError
from mimiclearn.metrics import macro_metrics
from mimiclearn.mimic import CvReport
from mimiclearn.rng import STAGE_SGD, STAGE_TREE, derive_seed, generator


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
            a, b = vs[cut[j]], vs[cut[j] + 1]
            threshold = (a + b) / 2.0
            if threshold == b:  # adjacent floats: the midpoint rounded up onto b
                threshold = a
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


def pcg64_halves(rng):
    """The 32-bit halves ``rng``'s next bounded draws read, from a copy of its
    state: a buffered high half first, then each raw PCG64 output low half
    first. NEP 19 fixes the raw stream; the three emulations below pin how
    numpy's ``Generator`` methods turn it into draws."""
    state = rng.bit_generator.state  # read now, not at the first half
    source = np.random.PCG64()
    source.state = state

    def halves():
        if state["has_uint32"]:
            yield state["uinteger"]
        while True:
            word = int(source.random_raw())
            yield word & 0xFFFFFFFF
            yield word >> 32

    return halves()


def lemire_draw(halves, r):
    """A draw in [0, r), r <= 2**32: a half times r, redrawn while the
    product's low word is under (2**32 - r) % r (Lemire 2019); none if r = 1."""
    if r == 1:
        return 0
    product = next(halves) * r
    while product % 2**32 < (2**32 - r) % r:
        product = next(halves) * r
    return product >> 32


def integers_from(halves, n, size):
    """``rng.integers(0, n, size)`` for n <= 2**32: one Lemire draw each."""
    return [lemire_draw(halves, n) for _ in range(size)]


def permutation_from(halves, n):
    """``rng.permutation(n)``, n < 2**32: Fisher-Yates from the top, each
    swap index drawn by masked rejection, not by Lemire's method."""
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = next(halves) & mask
        while j > i:
            j = next(halves) & mask
        items[i], items[j] = items[j], items[i]
    return items


def choice_from(halves, n, k):
    """``rng.choice(n, k, replace=False)`` where numpy uses Floyd's algorithm
    (n <= 10,000 or k <= n // 50): for j = n-k .. n-1 a draw in [0, j], or j
    if it is taken; then a Fisher-Yates shuffle of the picks."""
    picks = []
    for j in range(n - k, n):
        v = lemire_draw(halves, j + 1)
        picks.append(j if v in picks else v)
    for i in range(k - 1, 0, -1):
        j = lemire_draw(halves, i + 1)
        picks[i], picks[j] = picks[j], picks[i]
    return picks


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


def nb_log_posterior_expression(model, X):
    """``nb_log_posterior`` with each class's terms as one numpy expression, a
    fresh temporary per operation (the code before its reused buffer)."""
    n_classes = model.priors.shape[0]
    out = np.empty((X.shape[0], n_classes))
    with np.errstate(divide="ignore"):
        log_priors = np.log(model.priors)
    for c in range(n_classes):
        var = model.variances[c]
        log_lik = -0.5 * (
            np.log(2.0 * math.pi * var) + (X - model.means[c]) ** 2 / var
        ).sum(axis=1)
        out[:, c] = log_priors[c] + log_lik
    return out


def fit_svm_stepwise(X, y, n_classes, reg_lambda, epochs, seed):
    """``fit_svm`` computing ``||(w, b)||`` at every step rather than only
    where its running bound allows a projection: same draws, same float
    operations on ``w`` and ``b`` in the same order."""
    if n_classes != 2:
        raise PipelineError(
            f"linear svm supports exactly 2 classes, got {n_classes}"
        )
    n, d = X.shape
    rows = X.tolist()
    signs = (2 * y - 1).astype(np.float64).tolist()
    w = [0.0] * d
    b = 0.0
    radius = 1.0 / math.sqrt(reg_lambda)
    rng = generator(derive_seed(seed, STAGE_SGD))
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            x, s = rows[i], signs[i]
            margin = s * (math.fsum(map(mul, x, w)) + b)
            shrink = 1.0 - 1.0 / t  # == 1 - eta*reg_lambda
            if margin < 1.0:
                c = (1.0 / (reg_lambda * t)) * s  # eta * y_i
                w = [a * shrink + c * xj for a, xj in zip(w, x)]
                b = b * shrink + c
            else:
                w = [a * shrink for a in w]
                b *= shrink
            norm = math.sqrt(math.fsum(map(mul, w, w)) + b * b)
            if norm > radius:
                scale = radius / norm
                w = [a * scale for a in w]
                b *= scale
    return SvmModel(weights=np.array(w, dtype=np.float64), bias=b)


def neumaier_sum(values):
    """The builtin ``sum()`` of floats as CPython 3.12 and later compute it:
    the int start 0 plus the first value, then Neumaier's compensated
    summation, whose compensation is added at the end only when it is
    nonzero and finite."""
    values = iter(values)
    total, c = 0 + next(values, 0), 0.0
    for v in values:
        t = total + v
        c += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def pushed_sum(products, s, b):
    """A sum of the margin ``s * (sum + b)``'s products as wrong as plain
    summation (error at most gamma_{d-1} times the sum of |p|) or compensated
    summation (at most 2u + O(d u^2) times it) of d floats may be, the way
    that flips the hinge: the correctly rounded sum moved by gamma_{d+1}
    times that sum so the margin rises if it is below 1 and falls otherwise.
    Where the exact sum overflows or meets inf - inf, ``s`` times infinity."""
    products = list(products)
    u = 2.0**-53
    gamma = (len(products) + 1) * u / (1 - (len(products) + 1) * u)
    try:
        exact = math.fsum(products)
        error = gamma * math.fsum(map(abs, products))
    except (OverflowError, ValueError):
        return s * math.inf
    rise = s * (exact + b) < 1.0
    return exact + s * error if rise else exact - s * error


def parse_rows_cellwise(rows, schema, path):
    """A separate copy of ``data._parse_rows``, the cell-by-cell parser: each
    cell stripped, matched against the missing token, then parsed with
    ``float``. ``rows`` are (file line the row starts on, row) pairs. The labels
    come back as a list, one stripped name per row."""
    head = list(itertools.islice(rows, 2))
    if not head:
        raise DataError(f"empty file: {path}")
    if schema.has_header:
        header = [c.strip() for c in head.pop(0)[1]]
        if not head:
            raise DataError(f"{path}: header only, no data rows")
    else:
        header = [f"x{i}" for i in range(len(head[0][1]))]
    n_cols = len(header)
    label_idx = _resolve_label_column(schema.label_column, header, n_cols, path)
    feature_names = tuple(name for i, name in enumerate(header) if i != label_idx)
    values = array("d")
    label_values = None if label_idx is None else []
    for n_rows, (line, row) in enumerate(itertools.chain(head, rows), 1):
        if len(row) != n_cols:
            raise DataError(
                f"{path} line {line}: expected {n_cols} columns, found {len(row)}"
            )
        for i, cell in enumerate(row):
            cell = cell.strip()
            if i == label_idx:
                if cell == schema.missing_token or cell == "":
                    raise DataError(f"{path} line {line}: missing label value")
                label_values.append(cell)
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
    return raw, feature_names, label_values


def csv_text_rowwise(ds):
    """The CSV text of ``data.csv_text`` through ``csv.writer``, one row at a
    time: each float as its repr, then the class name of the row's label."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(ds.feature_names) + ([] if ds.labels is None else ["label"]))
    for r, values in enumerate(ds.features):
        row = list(map(repr, values.tolist()))
        if ds.labels is not None:
            row.append(ds.class_names[ds.labels[r]])
        writer.writerow(row)
    return buf.getvalue()


def cross_validate_foldwise(spec, train_set, assignment):
    """``mimic._cross_validate`` one fold at a time: each fold's model is fit
    on ``train_set.select`` of the other folds' rows, then scores its fold."""
    n_classes = len(train_set.class_names)
    accs, f1s = [], []
    for fold in range(assignment.k):
        fit_part = train_set.select(assignment.train_indices(fold))
        eval_part = train_set.select(assignment.test_indices(fold))
        model = fit(spec, fit_part, ORIGIN_TEACHER)
        report = macro_metrics(eval_part.labels, predict_batch(model, eval_part.features),
                               n_classes)
        accs.append(report.accuracy)
        f1s.append(report.f1)
    return CvReport(spec=spec, fold_accuracies=tuple(accs), fold_macro_f1=tuple(f1s))


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


def model_record(model) -> dict:
    """A model file's JSON object built field by field, every array as nested
    lists: the record the model-file writer must render."""
    def fields_of(params):
        values = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}

    params = model.params
    if isinstance(params, ForestModel):  # n_features is a top-level field
        parameters = {"n_classes": params.n_classes,
                      "trees": [fields_of(t) for t in params.trees]}
    else:
        parameters = fields_of(params)
    return {"format_version": 1, **model.spec.to_json_dict(), "origin": model.origin,
            "class_names": list(model.class_names), "n_features": model.n_features,
            "scaler": None if model.scaler is None else fields_of(model.scaler),
            "parameters": parameters, "created_at": None}


def file_json_dumps(record) -> str:
    """The reference text of a model file: the standard library's encoder,
    indented by two with sorted keys, plus a newline."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def linearly_separable(
    n_rows: int = 60,
    n_features: int = 5,
    margin: float = 0.8,
    seed: int = 0,
) -> Dataset:
    """Binary dataset separable by a random hyperplane with the given margin.

    Points are drawn standard normal and pushed away from the plane until
    every row satisfies ``|w . x| >= margin`` with ``w`` a random unit vector.
    """
    rng = generator(seed)
    w = rng.normal(size=n_features)
    w = w / np.sqrt(w @ w)
    X = rng.normal(size=(n_rows, n_features))
    proj = X @ w
    side = np.where(proj >= 0.0, 1.0, -1.0)
    need = np.maximum(margin - np.abs(proj), 0.0)
    X = X + (need * side)[:, None] * w[None, :]
    y = (side > 0).astype(np.int64)
    if y.min() == y.max():  # degenerate draw; force one row to the other side
        X[0] = X[0] - (np.abs(X[0] @ w) + margin) * side[0] * w
        y[0] = 1 - y[0]
    names = tuple(f"x{i}" for i in range(n_features))
    return Dataset(
        features=X,
        feature_names=names,
        labels=y,
        class_names=("neg", "pos"),
        source_id=f"synthetic:linearly_separable:{seed}",
    )


def threshold_toy(n_rows: int = 120, seed: int = 0) -> Dataset:
    """Exactly learnable: the label is 1 iff the first feature exceeds 0.

    A wide dead zone around the boundary keeps every family at 100% accuracy,
    which makes the generator handy for tests that need a perfect model.
    """
    rng = generator(seed)
    half = rng.random(n_rows) < 0.5
    first = np.where(half, rng.uniform(1.0, 3.0, n_rows),
                     rng.uniform(-3.0, -1.0, n_rows))
    rest = rng.normal(size=(n_rows, 2))
    X = np.column_stack([first, rest])
    y = (first > 0.0).astype(np.int64)
    return Dataset(
        features=X,
        feature_names=("signal", "noise_a", "noise_b"),
        labels=y,
        class_names=("low", "high"),
        source_id=f"synthetic:threshold_toy:{seed}",
    )
