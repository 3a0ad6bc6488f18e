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
node ids and draws follow the tree alone, and consecutive fits of one shape,
such as the folds of a race, share each tree's draws (see ``fit_forest``).

Training is single-threaded and grows trees in lockstep: each step takes the
next split node of every tree in flight and scores and partitions them all
in one set of numpy calls, as a median split node has about 18 rows and
per-node calls cost mostly dispatch. Rows sit in presorted attribute lists
(SLIQ, Mehta et al. 1996); many trees share each call (CudaTree, Liao et al.
2013). The two constants below bound the temporaries: a default forest on
700 rows peaked at 47 MB without them and 5 MB with them (tracemalloc).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..rng import STAGE_TREE, derive_seed, generator

WALK_ROWS = 512  # rows per block of forest_votes, which holds (rows, n_trees) ids
TREES_IN_FLIGHT = 32  # trees grown at once; their rows share one int32 table
STEP_ROWS = 4096  # node rows scored per growth step; one larger node runs alone

_shared_draws = {}  # latest fit shape only: {(seed, n_rows, n_features): {tree: (rng, draws)}}


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


def _ranges(starts, lengths):
    """The ranges ``[starts[i], starts[i] + lengths[i])``, concatenated."""
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return np.arange(shift.size) + shift


def _class_sum(terms):
    """Sum ``(C, ...)`` terms over classes as numpy sums a short last axis: in
    class order below 8 classes, else pairwise, by numpy on a class-last copy."""
    if len(terms) >= 8:
        return np.ascontiguousarray(np.moveaxis(terms, 0, -1)).sum(axis=-1)
    return functools.reduce(np.add, terms)


def _split_step(table, XT, y, lo, m, feats, node_counts):
    """Score the candidate cuts of many nodes at once; partition those that split.

    Node j owns columns ``lo[j] : lo[j] + m[j]`` of ``table``, whose row f holds
    its row ids sorted by feature f; ``feats`` is ``(J, k)`` sorted candidate
    features and ``node_counts`` ``(C, J)``. Returns which nodes split and, for
    those, the feature, threshold, rows sent left and their class counts.
    """
    start = np.cumsum(m) - m
    pos = np.arange(start[-1] + m[-1])
    fidx = np.repeat(feats.T, m, axis=1)
    rows = table.take(fidx * table.shape[1] + _ranges(lo, m))
    values = XT.take(fidx * XT.shape[1] + rows)
    prefix = np.cumsum(y.take(rows) == np.arange(len(node_counts))[:, None, None], axis=2)
    base = prefix[:, :, start - 1]
    base[:, :, 0] = 0  # the first node starts the cumsum
    left = prefix - np.repeat(base, m, axis=2)
    right = np.repeat(node_counts, m, axis=1)[:, None] - left
    size = np.repeat(m.astype(np.float64), m)
    n_left = (pos - np.repeat(start, m) + 1).astype(np.float64)
    n_right = np.maximum(size - n_left, 1.0)  # a node's last row is no cut
    gini_left = 1.0 - _class_sum((left / n_left) ** 2)
    gini_right = 1.0 - _class_sum((right / n_right) ** 2)
    gini = (n_left * gini_left + n_right * gini_right) / size
    gini[:, :-1][values[:, 1:] == values[:, :-1]] = np.inf  # cut between distinct values
    gini[:, start + m - 1] = np.inf
    # first minimum in (feature, cut) order: lowest feature, then threshold
    least = np.minimum.reduceat(gini, start, axis=1)
    best = least.min(axis=0)
    c = np.argmax(least == best, axis=0)
    hit = gini[np.repeat(c, m), pos] == np.repeat(best, m)
    cut = np.minimum.reduceat(np.where(hit, pos, pos.size), start)
    split = best < np.inf
    nodes, c, cut, lo, m = np.nonzero(split)[0], c[split], cut[split], lo[split], m[split]
    f = feats[nodes, c]
    a, b = values[c, cut], values[c, cut + 1]
    with np.errstate(over="ignore"):
        thr = (a + b) / 2.0
    far = np.isinf(thr)  # a + b overflowed: halve first
    thr[far] = a[far] / 2 + b[far] / 2
    block = table.take(_ranges(lo, m), axis=1)
    mask = XT.take(np.repeat(f * XT.shape[1], m) + block) <= np.repeat(thr, m)
    m_left = np.add.reduceat(mask[0], np.cumsum(m) - m, dtype=np.intp)
    block, mask = block.ravel(), mask.ravel()  # a 1-D compress is several times faster
    table[:, _ranges(lo, m_left)] = block.compress(mask).reshape(len(table), -1)
    to_right = block.compress(~mask).reshape(len(table), -1)
    table[:, _ranges(lo + m_left, m - m_left)] = to_right
    # the midpoint can round up onto the larger value, so the left child is the
    # first m_left rows by f, not always cut + 1
    at = start[nodes] + m_left - 1
    return split, f, thr, m_left, prefix[:, c, at] - base[:, c, nodes]


class _Tree:
    """A tree in flight: index, table slot, seeded draws ``(generator, flat
    list of candidate draws in preorder)``, preorder stack of ``(lo, hi, class
    counts, depth, parent if a right child)`` and the ``[feature, threshold,
    left, right, counts]`` rows of its nodes."""

    def __init__(self, index, slot, draws, root):
        self.index, self.slot = index, slot
        self.rng, self.known = draws
        self.stack, self.nodes, self.drawn = [root], [], 0

    def add(self, counts, right_of):
        if right_of >= 0:
            self.nodes[right_of][3] = len(self.nodes)
        self.nodes.append([-1, 0.0, -1, -1, counts])  # 0.0 keeps the JSON export finite
        return len(self.nodes) - 1

    def next_split(self, max_depth, min_split):
        """Add the leaves on top of the stack; the split node left on top, if any."""
        while self.stack:
            lo, hi, counts, depth, right_of = self.stack[-1]
            if (depth < max_depth and hi - lo >= min_split
                    and counts.count(0) < len(counts) - 1):  # two classes or more
                return self.stack[-1]
            self.stack.pop()
            self.add(counts, right_of)
        return None

    def draw(self, n_features, n_candidates):
        """The next split node's candidate features: a stored draw while there
        is one, then a new one from the generator, stored as it is made."""
        self.drawn += n_candidates
        if self.drawn > len(self.known):
            self.known += self.rng.choice(n_features, n_candidates, replace=False).tolist()
        return self.known[self.drawn - n_candidates : self.drawn]

    def finish(self) -> TreeNodes:
        columns = zip(*self.nodes)  # feature, threshold, left, right, counts
        return TreeNodes(*(np.array(v, np.float64 if i == 1 else np.int64)
                           for i, v in enumerate(columns)))


def fit_forest(X, y, n_classes, n_trees, max_depth, min_split, seed) -> ForestModel:
    """Grow ``n_trees`` trees on ``X`` (rows, features) and class ids ``y``.

    A tree's bootstrap and candidate draws follow from the spec seed, the
    tree index, the row count and the feature count alone, never from the
    row values. The draws of the latest fit shape ``(seed, n_rows,
    n_features)`` stay in a module memo: per tree, its candidate draws in
    preorder and the generator standing just past them. A fit of that shape
    reads them and extends them from the generator; a fit of another shape
    replaces the memo. Every tree is the one grown without the memo.
    """
    n, n_features = X.shape
    n_candidates = min(n_features, math.ceil(math.sqrt(n_features)))
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable").ravel()
    n_slots = min(n_trees, TREES_IN_FLIGHT)
    table = np.empty((n_features, n_slots * n), dtype=np.int32)
    pending, trees = iter(range(n_trees)), [None] * n_trees
    if (seed, n, n_features) not in _shared_draws:
        _shared_draws.clear()
    memo = _shared_draws.setdefault((seed, n, n_features), {})

    def start_tree(slot):
        if (index := next(pending, None)) is None:
            return None
        rng = generator(derive_seed(seed, STAGE_TREE, index))
        sample = rng.integers(0, n, size=n)
        # popped while the tree grows and put back when it is done: a fit
        # stopped part-way leaves no entry, never a wrong one
        draws = memo.pop(index, None) or (rng, [])
        # the bootstrap in each feature's order; equal values score and split alike
        table[:, slot * n : (slot + 1) * n] = np.repeat(
            order, np.bincount(sample, minlength=n)[order]).reshape(n_features, n)
        counts = tuple(np.bincount(y[sample], minlength=n_classes).tolist())
        return _Tree(index, slot, draws, (slot * n, (slot + 1) * n, counts, 0, -1))

    growing = [start_tree(slot) for slot in range(n_slots)]
    while growing:
        batch, batch_rows = [], 0
        for i, tree in enumerate(growing):
            while tree and not (top := tree.next_split(max_depth, min_split)):
                trees[tree.index] = tree.finish()
                memo[tree.index] = tree.rng, tree.known
                tree = growing[i] = start_tree(tree.slot)
            if tree is None or (batch and batch_rows + top[1] - top[0] > STEP_ROWS):
                continue  # done, or waits for a later step
            lo, hi, counts, depth, right_of = tree.stack.pop()
            nid, batch_rows = tree.add(counts, right_of), batch_rows + hi - lo
            feats = tree.draw(n_features, n_candidates)
            batch.append((tree, nid, lo, hi - lo, counts, depth, feats))
        growing = [tree for tree in growing[1:] + growing[:1] if tree is not None]
        if not batch:
            continue
        _, _, lo, m, counts, _, feats = zip(*batch)
        feats = np.array(feats, np.intp)
        feats.sort()
        split, f, thr, m_left, left_counts = _split_step(
            table, XT, y, np.array(lo), np.array(m), feats, np.array(counts).T)
        for (tree, nid, lo, m, counts, depth, _), f, thr, m_left, left in zip(
                itertools.compress(batch, split), f.tolist(), thr.tolist(),
                m_left.tolist(), left_counts.T.tolist()):
            tree.nodes[nid][:3] = f, thr, nid + 1  # preorder: the left child is next
            right = tuple(a - b for a, b in zip(counts, left))
            tree.stack.append((lo + m_left, lo + m, right, depth + 1, nid))
            tree.stack.append((lo, lo + m_left, tuple(left), depth + 1, -1))
    return ForestModel(trees=tuple(trees), n_features=n_features, n_classes=n_classes)


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
