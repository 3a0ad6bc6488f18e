"""Random forest of CART trees: Gini impurity, bootstrap per tree.

Trees are stored as flat, index-linked node arrays (children always come
after their parent), which are trivially serializable; prediction walks all
trees of a forest at once, branch-free, level by level, and every few levels
drops the paths that reached a leaf. Each split considers
ceil(sqrt(n_features)) candidate features drawn from the tree's own
generator: exactly the set of ``Generator.choice(n_features, k,
replace=False)``'s picks, computed a block of calls at a time from its raw
PCG64 stream, where one ``choice`` call would cost about 8 us; the rare
block that holds one of ``choice``'s redraws is left to ``choice``. Candidate
thresholds are the midpoints between consecutive distinct sorted values
(the lower value where the midpoint rounds onto the upper). Equal-impurity
splits resolve to the lower feature index, then the lower threshold, so
training is fully deterministic.
Per-tree seeds derive from the spec seed and tree index, and each split node
draws its candidates in preorder (node, left subtree, right subtree), so
node ids and draws follow the tree alone.

Training is single-threaded and grows trees in lockstep: each step takes the
next split node of every tree in flight and scores and partitions them all
in one set of numpy calls, as a median split node holds 12 distinct rows and
per-node calls cost mostly dispatch. A node holds one list of its distinct
bootstrap row ids, each weighted by its draw count as scikit-learn's forests
weight by bootstrap counts: about 37% fewer entries than one per draw. Each
feature is sorted once per fit, as are SLIQ's attribute lists (Mehta et al.
1996), and a step sorts its nodes' rows by rank in its candidate features
only; a split node's children take its rows in the split feature's sorted
order, with no threshold compare. Many trees share each call (CudaTree, Liao
et al. 2013), and a default forest grows all 100 trees in one wave; the step
row budget below bounds the temporaries: on 700 rows a fit peaked at 20 MB
without it, 3.2 MB with it. A race grows two folds' forests in one wave
(``fit_forests``), as a step costs about 100 us besides its per-row work: a
default 630-row fit took 158 steps, whose median held 100 nodes and 2,455
rows and took 220 us (159 us at 1,199 rows); a pair took 162 steps.
Between steps no node is handled in Python: node stacks are rows of arrays,
a step keeps 28-byte node records, and preorder ids are set once per fit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..rng import STAGE_TREE, derive_seed, generator

WALK_ROWS = 512  # rows per block of forest_votes, which holds (rows, n_trees) ids
FIRST_LEVELS, ROUND_LEVELS = 7, 3  # levels walked before the first drop of leaf ids, then per drop
TREES_IN_FLIGHT = 100  # trees grown at once; row lists and draw counts: 8 * n_rows bytes each
STEP_ROWS = 4096  # node rows scored per growth step; one larger node runs alone
BLOCK = 64  # candidate draws a tree takes ahead, refilled when they are spent

_SIDES = np.array([[1], [0]])  # the link bit of a right and of a left child
_LOW = 0xFFFFFFFF  # the low half of a raw PCG64 output


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


def _choices(bit_gens, size, n, k):
    """The candidate sets of ``size`` calls of ``Generator(bit_gens[i]).choice(n,
    k, replace=False)`` for each generator in turn, each set sorted.

    For n < 2**32 with n <= 10,000 or k <= n // 50, as for every k =
    ceil(sqrt(n)), ``choice`` runs Floyd's algorithm: for j = n-k .. n-1 a
    draw in [0, j] (none for j = 0), or j if that value is taken; then a
    Fisher-Yates shuffle with draws in [0, i], i = k-1 .. 1, which orders the
    set but does not change it. So the shuffle's draws are read and tested,
    as they move the stream, but never applied. A draw in [0, r) is Lemire's:
    a 32-bit half of the PCG64 stream times r, redrawn while the product's
    low word is under (2**32 - r) % r, which is about 3e-9 likely here. A raw
    output gives its low half first and keeps the high one in
    ``has_uint32``/``uinteger``. So each generator's halves are read as one
    ``random_raw`` call and the draws of all its calls as array columns. A
    generator whose block holds a redraw (about 2e-7 likely per 64 calls at
    n = 11) is set back to its start and its block drawn by ``choice``
    itself. Every generator is left where the calls would leave it.
    """
    bounds = [j + 1 for j in range(n - k, n) if j] + list(range(k, 1, -1))
    r, c = np.array(bounds, np.uint64), len(bounds)
    starts, words = [bit_gen.state for bit_gen in bit_gens], []
    for bit_gen, start in zip(bit_gens, starts):
        has = start["has_uint32"]
        raw = bit_gen.random_raw((size * c - has + 1) // 2)
        halves = np.empty(2 * raw.size + has, np.uint64)
        halves[:has] = start["uinteger"]
        halves[has::2], halves[has + 1 :: 2] = raw & _LOW, raw >> 32
        words.append(halves[: size * c])
        if has or halves.size > size * c:  # random_raw leaves the buffered half as it was
            _hold(bit_gen, halves[size * c :].tolist())
    product = np.concatenate(words).reshape(len(bit_gens) * size, c) * r
    picks = np.zeros((len(product), k), np.intp)
    cols = iter((product >> 32).T)
    for t, j in enumerate(range(n - k, n)):
        if j:  # Floyd: the draw, or j where the draw is taken already
            v = next(cols).astype(np.intp)
            picks[:, t] = np.where((picks[:, :t] == v[:, None]).any(axis=1), j, v)
    picks.sort(axis=1)
    redrawn = (product & _LOW < (2**32 - r) % r).reshape(len(bit_gens), size * c).any(axis=1)
    for i in np.flatnonzero(redrawn).tolist():  # rare: let choice itself redraw
        bit_gens[i].state = starts[i]
        rng = np.random.Generator(bit_gens[i])
        picks[i * size : (i + 1) * size] = [np.sort(rng.choice(n, k, replace=False))
                                            for _ in range(size)]
    return picks


def _hold(bit_gen, rest):
    """Leave ``bit_gen`` buffering ``rest``: the unread high half of its last
    raw output, in a list, or none."""
    bit_gen.state = {**bit_gen.state, "has_uint32": len(rest), "uinteger": rest[0] if rest else 0}


def _split_step(rows_of, weight, XT, y, order, rank, lo, m, feats, node_counts):
    """Score the candidate cuts of many nodes at once; partition those that split.

    Node j owns the distinct row ids ``rows_of[lo[j] : lo[j] + m[j]]``, in any
    order; row r of the slot at ``s * n`` was drawn ``weight[s * n + r]`` times.
    Sorted, its keys ``j * n + rank[f, r]`` give the rows in feature f's stable
    sort ``order``. ``feats`` is ``(J, k)`` sorted candidate features and
    ``node_counts`` ``(C, J)``. Returns which nodes split and, for those, the
    feature, threshold, distinct rows sent left and their class counts. A
    split node's rows are written back in its feature's scored order, so the
    left child's are the first ``m_left`` and each child's are in that order.
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
    rows_of[_ranges(lo, m)] = rows.take(np.repeat(c * pos.size, m) + _ranges(start[nodes], m))
    return split, f, thr, m_left, prefix[:, c, cut] - base[:, c, nodes]


def _preorder(records):
    """The trees of one fit from its per-step node records, each in preorder.

    Record i holds the i-th recorded node's threshold and ``row`` (feature,
    link, depth, class counts); ``records`` is emptied as it is joined. A
    root's link is ``-1 - tree``, a left child's ``2 * parent`` and a right
    child's ``2 * parent + 1``. Counted bottom-up by depth, ``s[i]`` split
    nodes lie in node i's subtree of ``2 * s[i] + 1`` nodes. Then, top-down,
    a root takes its tree's first id, a left child its parent's id + 1 and a
    right child its parent's + 2 + 2 * (split nodes under its left sibling).
    Each field is one table for the forest, and the trees are views of it.
    """
    rec = np.concatenate(records)
    del records[:]  # one copy of the records at a time
    row, n = rec["row"], len(rec)
    link, depth = row[:, 1], row[:, 2]
    s = (row[:, 0] >= 0).astype(np.int64)
    levels = np.split(np.argsort(depth), np.cumsum(np.bincount(depth))[:-1])
    for at in levels[:0:-1]:
        np.add.at(s, link[at] >> 1, s[at])
    roots = levels[0][np.argsort(-link[levels[0]])]  # in tree order
    size = 2 * s[roots] + 1
    first = np.cumsum(size) - size
    pos = np.empty(n, np.int64)
    pos[roots] = first
    for at in levels[1:]:
        up = link[at] >> 1
        pos[at] = pos[up] + np.where(link[at] & 1, 2 * (s[up] - s[at]), 1)

    def placed(values):  # in preorder, as int64 or float64; frees one field at a time
        out = np.empty(values.shape, np.result_type(values, np.int64))
        out[pos] = values
        return out

    counts, feature, threshold = placed(row[:, 3:]), placed(row[:, 0]), placed(rec["threshold"])
    del rec, row, link, depth
    s = placed(s)
    left = np.arange(1, n + 1) - np.repeat(first, size)  # ids within the tree, + 1
    right = left + 1 + 2 * np.append(s[1:], 0)  # past the left child's subtree
    left[feature < 0] = right[feature < 0] = -1
    parts = (np.split(a, first)[1:] for a in (feature, threshold, left, right, counts))
    return tuple(TreeNodes(*fields) for fields in zip(*parts))


def fit_forest(X, y, n_classes, n_trees, max_depth, min_split, seed) -> ForestModel:
    """Grow ``n_trees`` trees on ``X`` (rows, features) and class ids ``y``.

    A tree's bootstrap and candidate draws follow from the spec seed, the
    tree index, the row count and the feature count alone, never from the
    row values. Each tree draws from its own fresh generator: its bootstrap,
    then its candidate sets in blocks of ``BLOCK`` nodes ahead (``_choices``),
    so a tree is the same in every fit, whatever else the fit grows.
    """
    return fit_forests(X, y, [np.arange(len(X))], n_classes, n_trees, max_depth, min_split, seed)


def fit_forests(X, y, subsets, n_classes, n_trees, max_depth, min_split, seed) -> ForestModel:
    """``fit_forest(X[s], y[s], ...)`` for each strictly ascending row subset
    ``s`` of ``X``, grown together: one model of each subset's ``n_trees`` trees
    in turn, each equal to the tree that subset's own fit grows.

    Tree t of subset s draws ``s[rng.integers(0, len(s), size=len(s))]`` from
    its own generator, so its row ids stay those of ``X``. Sorting ``X`` once
    serves every subset: an ascending subset's stable sort by a feature is
    ``X``'s, restricted to the subset. Each subset adds ``TREES_IN_FLIGHT``
    slots and ``STEP_ROWS`` rows of step budget, so a step scores that many
    more nodes for the same fixed numpy cost per call.
    """
    n, n_features = X.shape
    n_candidates = min(n_features, math.ceil(math.sqrt(n_features)))
    max_depth = max_depth if n_features else 0  # no feature to cut: each tree is its root
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    order, rank = order.ravel(), np.argsort(order, axis=1).ravel()  # rank[order] = place
    n_slots, step_rows = len(subsets) * min(n_trees, TREES_IN_FLIGHT), len(subsets) * STEP_ROWS
    all_trees = len(subsets) * n_trees
    rows_of, weight = np.empty((2, n_slots * n), dtype=np.int32)
    # per slot: its bit generator, block of draws (one row per step; used, the
    # steps so far) and stack of rows (lo, m, -1, link, depth, class counts)
    bits = [None] * n_slots
    draws = np.empty((n_slots, BLOCK, n_candidates), np.intp)
    used, height = np.zeros((2, n_slots), np.int64)
    stack = np.empty((n_slots, 16, 5 + n_classes), np.int64)
    node = np.dtype([("threshold", np.float64), ("row", np.int32, 3 + n_classes)])
    records = [np.empty(0, node)]
    n_records = next_tree = turn = 0

    def worthy(nodes):  # may split: depth, weighted size, two classes or more
        size = nodes[..., 5:].sum(axis=-1)
        return ((nodes[..., 4] < max_depth) & (size >= min_split)
                & (nodes[..., 5:].max(axis=-1) < size))

    while True:
        for s in np.flatnonzero(height == 0).tolist() if next_tree < all_trees else ():
            while next_tree < all_trees and not height[s]:
                rows = subsets[next_tree // n_trees]
                rng = generator(derive_seed(seed, STAGE_TREE, next_tree % n_trees))
                sample = rows[rng.integers(0, len(rows), size=len(rows))]
                # each distinct bootstrap row once, weighted by its draw count:
                # the cuts and class counts are those of the repeated rows
                weight[s * n : (s + 1) * n] = drawn = np.bincount(sample, minlength=n)
                d = np.count_nonzero(drawn)
                rows_of[s * n : s * n + d] = np.flatnonzero(drawn)
                root = np.array([[s * n, d, -1, -1 - next_tree, 0,
                                  *np.bincount(y[sample], minlength=n_classes)]])
                if worthy(root)[0]:
                    stack[s, 0], height[s], bits[s], used[s] = root[0], 1, rng.bit_generator, 0
                else:  # a root leaf: the tree is grown
                    records.append(np.array([(0.0, root[0, 2:])], node))
                    n_records += 1
                next_tree += 1
        live = np.flatnonzero(height)
        if not live.size:
            break
        # the stack tops, from where the last step stopped, while within the row budget
        live = np.concatenate((live[live >= turn], live[live < turn]))
        tops = stack[live, height[live] - 1]
        take = max(1, np.searchsorted(np.cumsum(tops[:, 1]), step_rows, side="right"))
        batch, tops = live[:take], tops[:take]
        turn = batch[-1] + 1
        height[batch] -= 1
        nth = used[batch] % BLOCK
        used[batch] += 1
        dry = batch[nth == 0]  # the block is spent: draw the next one
        if dry.size:
            picks = _choices([bits[s] for s in dry.tolist()], BLOCK, n_features, n_candidates)
            draws[dry] = picks.reshape(len(dry), BLOCK, n_candidates)
        split, f, thr, m_left, left_counts = _split_step(
            rows_of, weight, XT, y, order, rank, tops[:, 0], tops[:, 1],
            draws[batch, nth], tops[:, 5:].T.astype(np.int32))
        at = np.flatnonzero(split)
        kids = tops[at][None].repeat(2, axis=0)  # right and left children
        kids[0, :, 0] += m_left
        kids[:, :, 1] = kids[0, :, 1] - m_left, m_left
        kids[:, :, 5:] = kids[0, :, 5:] - left_counts.T, left_counts.T
        kids[:, :, 3] = 2 * (n_records + at) + _SIDES
        kids[:, :, 4] += 1
        grow = worthy(kids)
        # push the children that may split, the left one on top
        slots, h = batch[at], height[batch[at]]
        if at.size and h.max() + 2 > stack.shape[1]:
            stack = np.concatenate([stack, stack], axis=1)
        stack[slots[grow[0]], h[grow[0]]] = kids[0, grow[0]]
        stack[slots[grow[1]], (h + grow[0])[grow[1]]] = kids[1, grow[1]]
        height[slots] += grow.sum(axis=0)
        # the processed nodes first, as the children's links assume, then the leaves
        rec = np.zeros(len(tops) + np.count_nonzero(~grow), node)
        rec["row"] = np.concatenate([tops, kids[~grow]])[:, 2:]
        rec["row"][at, 0], rec["threshold"][at] = f, thr
        records.append(rec)
        n_records += len(rec)
    del rows_of, weight, XT, order, rank  # free the fit's tables before the layout
    return ForestModel(trees=_preorder(records),
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
