"""Random forest of CART trees: Gini impurity, bootstrap per tree.

Trees are stored as flat, index-linked node arrays (children always come
after their parent), which are trivially serializable; prediction walks all
trees of a forest at once, one branch-free step per level. Each split
considers ceil(sqrt(n_features)) candidate features drawn from the tree's
own generator; candidate thresholds are the midpoints between consecutive
distinct sorted values. Equal-impurity splits resolve to the lower feature
index, then the lower threshold, so training is fully deterministic.
Per-tree seeds derive from the spec seed and tree index, and each split node
draws its candidates in preorder (node, left subtree, right subtree), so
node ids and draws follow the tree alone. Training is single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..rng import STAGE_TREE, derive_seed, generator

WALK_ROWS = 512  # rows per block of forest_votes, which holds (rows, n_trees) ids


@dataclass(frozen=True)
class TreeNodes:
    """One decision tree as parallel node arrays.

    ``feature[i] == -1`` marks a leaf (threshold is 0.0, children are -1).
    ``counts[i]`` holds the class counts of the bootstrap samples that
    reached node i; a leaf votes for its argmax class (lower index on ties).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[TreeNodes, ...]
    n_features: int
    n_classes: int


def _grow_tree(X, y, n_classes, max_depth, min_split, n_candidates, rng):
    """Grow one tree in preorder from an explicit stack (left child first).

    Each stack entry carries a ``(n_features, m)`` block whose row f lists
    the node's rows sorted by column f. The columns are argsorted once per
    tree; a split partitions every row of the block with one boolean mask,
    which keeps each row sorted. All k candidate features are scored in one
    pass over ``(k, m - 1)`` cut positions.
    """
    XT = np.ascontiguousarray(X.T)
    n_features, n = XT.shape
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []
    n_left_all = np.arange(1.0, n)
    classes = np.arange(n_classes)
    # (block, class counts, depth, id of the parent whose right child this is)
    stack = [(np.argsort(XT, axis=1, kind="stable"),
              np.bincount(y, minlength=n_classes), 0, -1)]
    while stack:
        block, node_counts, depth, right_of = stack.pop()
        nid = len(feature)
        if right_of >= 0:
            right[right_of] = nid
        feature.append(-1)
        threshold.append(0.0)  # never read at a leaf; keeps the JSON export finite
        left.append(-1)
        right.append(-1)
        counts.append(node_counts)
        m = block.shape[1]
        if depth >= max_depth or m < min_split or np.count_nonzero(node_counts) <= 1:
            continue
        feats = np.sort(rng.choice(n_features, size=n_candidates, replace=False))
        rows = block[feats]
        values = XT[feats[:, None], rows]
        prefix = np.cumsum(y[rows][..., None] == classes, axis=1)
        left_counts = prefix[:, :-1]
        n_left = n_left_all[: m - 1]
        n_right = m - n_left
        gini_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=-1)
        right_counts = node_counts - left_counts
        gini_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=-1)
        gini = (n_left * gini_left + n_right * gini_right) / m
        gini[values[:, 1:] == values[:, :-1]] = np.inf  # cut between distinct values
        # first minimum in (feature, cut) order: lowest feature, then threshold
        c, cut = divmod(int(np.argmin(gini)), m - 1)
        if gini[c, cut] == np.inf:
            continue
        f = int(feats[c])
        thr = float((values[c, cut] + values[c, cut + 1]) / 2.0)
        mask = XT[f][block] <= thr
        # the midpoint can round up onto the larger value, so the left child
        # is the first m_left rows of block[f], not always the first cut + 1
        m_left = int(np.count_nonzero(mask[0]))
        left_node_counts = prefix[c, m_left - 1].copy()
        feature[nid] = f
        threshold[nid] = thr
        left[nid] = nid + 1  # preorder: the left child is popped next
        stack.append((block[~mask].reshape(n_features, m - m_left),
                      node_counts - left_node_counts, depth + 1, nid))
        stack.append((block[mask].reshape(n_features, m_left),
                      left_node_counts, depth + 1, -1))
    return TreeNodes(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        counts=np.array(counts, dtype=np.int64),
    )


def fit_forest(X, y, n_classes, n_trees, max_depth, min_split, seed) -> ForestModel:
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


def forest_votes(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Per-row vote counts, shape (n_rows, n_classes), walking all trees at once.

    In one node table of all trees, node i's (right, left) children sit at
    ``child[2i : 2i + 2]`` and a leaf is its own child. Per block of rows,
    all (row, tree) ids step together, branch-free (predication, Asadi, Lin &
    de Vries, IEEE TKDE 2014): ``node = child[2 * node + (x <= threshold)]``,
    so NaN goes right. When no id moves, one bincount counts the leaf votes.
    """
    trees, sizes = model.trees, [tree.n_nodes for tree in model.trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    child = np.concatenate([np.stack([tree.right, tree.left], axis=1) for tree in trees])
    child += np.repeat(roots, sizes)[:, None]
    leaf = feature < 0
    feature[leaf], child[leaf] = 0, np.nonzero(leaf)[0][:, None]
    child = child.ravel()
    vote = np.argmax(np.concatenate([tree.counts for tree in trees]), axis=1)
    n_rows, n_features = X.shape
    k = model.n_classes
    votes = np.empty((n_rows, k), dtype=np.int64)
    for start in range(0, n_rows, WALK_ROWS):
        cells = np.append(X[start : start + WALK_ROWS], 0.0)  # spare cell if 0 features
        r = min(WALK_ROWS, n_rows - start)
        row_start = np.arange(r)[:, None] * n_features
        node, prev = np.tile(roots, (r, 1)), None
        while not np.array_equal(node, prev):
            x = cells.take(row_start + feature.take(node))
            node, prev = child.take(2 * node + (x <= threshold.take(node))), node
        ids = np.arange(r)[:, None] * k + vote.take(node)
        votes[start : start + r] = np.bincount(ids.ravel(), minlength=r * k).reshape(r, k)
    return votes
