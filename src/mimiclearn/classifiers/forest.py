"""Random forest of CART trees: Gini impurity, bootstrap per tree.

Trees are stored as flat, index-linked node arrays (children always come
after their parent), which are trivially serializable; prediction walks all
trees of a forest at once, branch-free, level by level, and every few levels
drops the paths that reached a leaf. Each split considers
ceil(sqrt(n_features)) candidate features drawn from the tree's own
generator; candidate thresholds are the midpoints between consecutive
distinct sorted values (the lower value where the midpoint rounds onto the
upper). Equal-impurity splits resolve to the lower feature index, then the
lower threshold, so training is fully deterministic.
Per-tree seeds derive from the spec seed and tree index, and each split node
draws its candidates in preorder (node, left subtree, right subtree), so
node ids and draws follow the tree alone, and consecutive fits of one shape,
such as the folds of a race, share each tree's draws (see ``fit_forest``).

Training is single-threaded and grows trees in lockstep: each step takes the
next split node of every tree in flight and scores and partitions them all
in one set of numpy calls, as a median split node holds 12 distinct rows and
per-node calls cost mostly dispatch. A node holds one list of its distinct
bootstrap row ids, each weighted by its draw count as scikit-learn's forests
weight by bootstrap counts: about 37% fewer entries than one per draw. Each
feature is sorted once per fit, as are SLIQ's attribute lists (Mehta et al.
1996), and a step sorts its nodes' rows by rank in its candidate features
only. Many trees share each call (CudaTree, Liao et al. 2013), and a default
forest grows all 100 trees in one wave; the step row budget below bounds the
temporaries: on 700 rows a fit peaked at 20 MB without it, 3.6 MB with it.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from ..rng import STAGE_TREE, derive_seed, generator

WALK_ROWS = 512  # rows per block of forest_votes, which holds (rows, n_trees) ids
FIRST_LEVELS, ROUND_LEVELS = 7, 3  # levels walked before the first drop of leaf ids, then per drop
TREES_IN_FLIGHT = 100  # trees grown at once; row lists and draw counts: 8 * n_rows bytes each
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


def _split_step(rows_of, weight, XT, y, order, rank, lo, m, feats, node_counts):
    """Score the candidate cuts of many nodes at once; partition those that split.

    Node j owns the distinct row ids ``rows_of[lo[j] : lo[j] + m[j]]``, in any
    order; row r of the slot at ``s * n`` was drawn ``weight[s * n + r]`` times.
    Sorted, its keys ``j * n + rank[f, r]`` give the rows in feature f's stable
    sort ``order``. ``feats`` is ``(J, k)`` sorted candidate features and
    ``node_counts`` ``(C, J)``. Returns which nodes split and, for those, the
    feature, threshold, distinct rows sent left and their class counts.
    """
    n = XT.shape[1]
    start = np.cumsum(m) - m
    pos = np.arange(start[-1] + m[-1])
    node_base = np.repeat(np.arange(len(m)) * n, m)
    fidx = np.repeat(feats.T, m, axis=1) * n
    keys = rank.take(fidx + rows_of.take(_ranges(lo, m))) + node_base
    keys.sort(axis=1)  # keys are unique, so any sort gives this order
    rows = order.take(fidx + keys - node_base)
    values = XT.take(fidx + rows)
    drawn = weight.take(rows + np.repeat(lo - lo % n, m))  # slot * n + row
    onehot = y.take(rows) == np.arange(len(node_counts))[:, None, None]
    prefix = np.cumsum(onehot * drawn, axis=2, dtype=np.int32)
    base = prefix[:, :, start - 1]
    base[:, :, 0] = 0  # the first node starts the cumsum
    left = prefix - np.repeat(base, m, axis=2)
    right = np.repeat(node_counts, m, axis=1)[:, None] - left
    size = np.repeat(_class_sum(node_counts), m)
    n_left = _class_sum(left)
    n_right = np.maximum(size - n_left, 1)  # a node's last row is no cut
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
    thr = np.where(thr == b, a, thr)  # adjacent floats: the midpoint rounded up onto b
    m_left = cut + 1 - start[nodes]  # a <= thr < b: the rows by f up to the cut go left
    block = rows_of.take(_ranges(lo, m))
    mask = XT.take(np.repeat(f * n, m) + block) <= np.repeat(thr, m)
    rows_of[_ranges(lo, m_left)] = block.compress(mask)
    rows_of[_ranges(lo + m_left, m - m_left)] = block.compress(~mask)
    return split, f, thr, m_left, prefix[:, c, cut] - base[:, c, nodes]


class _Tree:
    """A tree in flight: index, table slot, seeded draws ``(generator, flat
    list of candidate draws in preorder)``, preorder stack of ``(lo, hi, class
    counts, depth, parent if a right child)`` and its nodes in four columns:
    feature, threshold, right child and class counts, flat. Preorder puts a
    split node's left child right after it, so no left column is kept."""

    def __init__(self, index, slot, draws, root):
        self.index, self.slot = index, slot
        self.rng, self.known = draws
        self.stack, self.drawn = [root], 0
        self.feature, self.threshold = array("q"), array("d")
        self.right, self.counts = array("q"), array("q")

    def add(self, counts, right_of):
        nid = len(self.feature)
        if right_of >= 0:
            self.right[right_of] = nid
        self.feature.append(-1)
        self.threshold.append(0.0)  # 0.0 keeps the JSON export finite
        self.right.append(-1)
        self.counts.extend(counts)
        return nid

    def next_split(self, max_depth, min_split):
        """Add the leaves on top of the stack; the split node left on top, if any."""
        while self.stack:
            lo, hi, counts, depth, right_of = self.stack[-1]
            if (depth < max_depth and sum(counts) >= min_split
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
        feature = np.array(self.feature, np.int64)
        left = np.where(feature >= 0, np.arange(1, feature.size + 1), -1)
        return TreeNodes(feature, np.array(self.threshold, np.float64), left,
                         np.array(self.right, np.int64),
                         np.array(self.counts, np.int64).reshape(feature.size, -1))


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
    max_depth = max_depth if n_features else 0  # no feature to cut: each tree is its root
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    order, rank = order.ravel(), np.argsort(order, axis=1).ravel()  # rank[order] = place
    n_slots = min(n_trees, TREES_IN_FLIGHT)
    rows_of = np.empty(n_slots * n, dtype=np.int32)
    weight = np.empty(n_slots * n, dtype=np.int32)
    pending, trees = iter(range(n_trees)), {}
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
        # each distinct bootstrap row once, weighted by its draw count: the
        # cuts and class counts are those of the repeated rows
        weight[slot * n : (slot + 1) * n] = drawn = np.bincount(sample, minlength=n)
        d = np.count_nonzero(drawn)
        rows_of[slot * n : slot * n + d] = np.flatnonzero(drawn)
        counts = np.bincount(y[sample], minlength=n_classes).tolist()
        return _Tree(index, slot, draws, (slot * n, slot * n + d, counts, 0, -1))

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
        feats = np.sort(np.array(feats, np.intp))
        counts = np.array(counts, np.int32).T
        split, f, thr, m_left, left_counts = _split_step(
            rows_of, weight, XT, y, order, rank, np.array(lo), np.array(m), feats, counts)
        for (tree, nid, lo, m, _, depth, _), f, thr, m_left, left, right in zip(
                itertools.compress(batch, split), f.tolist(), thr.tolist(),
                m_left.tolist(), left_counts.T.tolist(),
                (counts[:, split] - left_counts).T.tolist()):
            tree.feature[nid], tree.threshold[nid] = f, thr
            tree.stack.append((lo + m_left, lo + m, right, depth + 1, nid))
            tree.stack.append((lo, lo + m_left, left, depth + 1, -1))
    return ForestModel(trees=tuple(trees[i] for i in range(n_trees)),
                       n_features=n_features, n_classes=n_classes)


def forest_votes(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Per-row vote counts, shape (n_rows, n_classes), walking all trees at once.

    Ids are doubled: in one node table of all trees, node i has id ``2i``, its
    (right, left) children's ids sit at ``child[2i : 2i + 2]``, and a leaf is its
    own child. Per block of rows, the (row, tree) ids step together, branch-free
    (predication, Asadi, Lin & de Vries, IEEE TKDE 2014), NaN going right; every
    few levels the ids at a leaf are dropped (compaction, as in QuickScorer,
    Lucchese et al., SIGIR 2015). One bincount then counts the leaf votes.
    """
    trees, sizes = model.trees, [tree.n_nodes for tree in model.trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    child = np.concatenate([np.stack([tree.right, tree.left], axis=1) for tree in trees])
    child += np.repeat(roots, sizes)[:, None]
    inner = feature >= 0
    feature[~inner], child[~inner] = 0, np.nonzero(~inner)[0][:, None]
    child = 2 * child.ravel()
    feature, threshold, inner = (np.repeat(a, 2) for a in (feature, threshold, inner))
    vote = np.argmax(np.concatenate([tree.counts for tree in trees]), axis=1)
    n_rows, n_features = X.shape
    k = model.n_classes
    votes = np.empty((n_rows, k), dtype=np.int64)

    def walk(cells, ids, rows, levels):  # the row of ids[i] starts at cells[rows[i]]
        for _ in range(levels):
            x = cells.take(rows + feature.take(ids))
            ids = child.take(ids + (x <= threshold.take(ids)))
        return ids

    for start in range(0, n_rows, WALK_ROWS):
        cells = np.append(X[start : start + WALK_ROWS], 0.0)  # spare cell if 0 features
        r = min(WALK_ROWS, n_rows - start)
        row_start = np.repeat(np.arange(r) * n_features, len(trees))
        node = walk(cells, np.tile(2 * roots, r), row_start, FIRST_LEVELS)
        at = np.flatnonzero(inner.take(node))
        while at.size:
            node[at] = ids = walk(cells, node.take(at), row_start.take(at), ROUND_LEVELS)
            at = at.compress(inner.take(ids))
        ids = np.arange(r).repeat(len(trees)) * k + vote.take(node >> 1)
        votes[start : start + r] = np.bincount(ids, minlength=r * k).reshape(r, k)
    return votes
