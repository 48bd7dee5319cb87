"""CART decision trees with exhaustive midpoint threshold search, grown in lockstep.

An internal node routes x left when x[feature] <= threshold. Thresholds
sit at the midpoints of consecutive distinct sorted values, and the chosen
split maximizes the weighted impurity decrease; ties break toward the
lower feature index, then the lower threshold. Growth stops on a pure node,
max_depth, min_samples_split, or when no split has a positive decrease.

`grow_trees` grows many trees together, for instance every tree of every
horizon's forest on one split. Each tree pops its nodes from its own stack
in preorder, left child first, and appends each to its preorder columns as
it pops it, so a node's left child is the next row, and a right child is
the node that follows the last leaf of its left sibling's subtree. Each
step pops the next node of every unfinished tree and searches all of them
in as few `best_split` calls as _SPLIT_ELEMENTS allows. Random forests
draw each searched node's candidate features in the tree's own preorder,
so every tree is the one it would be if grown alone.

`best_split` lays the searched nodes out ragged: each (node, candidate
feature) pair is one contiguous segment of a flat array holding that
node's rows, with no padding. One argsort of the key segment * n + rank,
where rank is the value's dense rank in its column of X (computed once per
fit), sorts every segment by value at once. Per-class cumulative sums give
the class counts left of every cut between distinct values, and the
impurities are computed from three columns, one per class, summed in class
order as a 3-wide row sum is; gains use the same elementwise operations as
a one-feature-at-a-time search (kept in the tests as the reference), so
trees are bit-identical to it. Counts at such a cut do not depend on the
order of equal values, so the sort need not be stable. A node's segments
are feature-major, so the first maximum of its gains is the lowest feature
and, within it, the lowest threshold. A call holds about _SPLIT_ELEMENTS
(segment, row) elements; a larger node is searched alone.

`tree_labels` predicts a whole probe matrix by walking all probes down the
columns together, one level per step: each probe still inside the tree
moves to the left child when x[feature] <= threshold and to the right child
otherwise, NaN included, exactly as one probe walked on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from stocksignals.labels import majority_labels

if TYPE_CHECKING:
    from stocksignals.classifiers.base import ClassifierSpec

N_CLASSES = 3

# (segment, row) elements searched by one best_split call: a few thousand
# amortise the per-call numpy overhead while the work arrays stay small
_SPLIT_ELEMENTS = 1 << 13


def _impurity(counts: Sequence[np.ndarray], sizes: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of nodes given as one column of class counts per class.

    The class terms are summed in class order, as a 3-wide row sum adds them.
    """
    p0, p1, p2 = (count / sizes for count in counts)
    if criterion == "gini":
        return 1.0 - ((p0 * p0 + p1 * p1) + p2 * p2)
    t0, t1, t2 = (p * np.log2(np.where(p > 0, p, 1.0)) for p in (p0, p1, p2))
    return -((t0 + t1) + t2)


def dense_ranks(X: np.ndarray) -> np.ndarray:
    """(n, d) rank of every value among the distinct values of its column."""
    ranks = np.empty(X.shape, dtype=np.int32)
    for j, column in enumerate(X.T):
        ranks[:, j] = np.unique(column, return_inverse=True)[1]
    return ranks


def best_split(
    X: np.ndarray,
    labels: list[np.ndarray],
    criterion: str,
    features: list[Sequence[int]],
    rows: list[np.ndarray],
    ranks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (feature, threshold, gain) of every node, searched in one batch.

    Node i has the rows rows[i] of X (at least one), their labels labels[i]
    and the ascending candidate features features[i]; `ranks` is
    dense_ranks(X). The three arrays hold one entry per node; a node where
    no split gains has feature -1, threshold 0.0 and gain 0.0.
    """
    feature, threshold, gain = np.full(len(rows), -1), np.zeros(len(rows)), np.zeros(len(rows))
    sizes = np.array([len(r) for r in rows], dtype=np.intp)
    widths = np.array([len(f) for f in features], dtype=np.intp)
    node_rows = np.concatenate(rows)
    seg_feature = np.concatenate(features).astype(np.intp)
    seg_node = np.repeat(np.arange(len(rows)), widths)
    seg_len = sizes[seg_node]
    seg_end = seg_len.cumsum()
    if not seg_end.size or seg_end[-1] < 2:
        return feature, threshold, gain
    seg_start = seg_end - seg_len
    elem_seg = np.repeat(np.arange(len(seg_len)), seg_len)
    # each element's index into node_rows: its node's first row plus its
    # position in the segment
    src = np.arange(seg_end[-1]) + np.repeat(
        (sizes.cumsum() - sizes)[seg_node] - seg_start, seg_len
    )
    key = elem_seg * len(X) + ranks[node_rows[src], seg_feature[elem_seg]]
    order = key.argsort()
    key = key[order]
    src = src[order]
    # a cut follows a sorted position whose successor in the segment is larger
    is_cut = key[1:] != key[:-1]
    is_cut[seg_end[:-1] - 1] = False
    cuts = np.flatnonzero(is_cut)
    if not cuts.size:
        return feature, threshold, gain
    node_y = np.concatenate(labels)
    totals = np.bincount(
        np.repeat(np.arange(len(rows)) * N_CLASSES, sizes) + node_y,
        minlength=N_CLASSES * len(rows),
    ).reshape(-1, N_CLASSES)
    cut_seg = elem_seg[cuts]
    cut_node = seg_node[cut_seg]
    n_left = cuts + 1 - seg_start[cut_seg]
    n_node = sizes[cut_node]
    n_right = n_node - n_left
    y_sorted = node_y[src]
    left = []
    for label in range(N_CLASSES - 1):
        cum = np.zeros(len(src) + 1, dtype=np.intp)
        np.cumsum(y_sorted == label, out=cum[1:])
        left.append(cum[cuts + 1] - cum[seg_start[cut_seg]])
    left.append(n_left - left[0] - left[1])
    right = [totals[cut_node, label] - left[label] for label in range(N_CLASSES)]
    parent = _impurity(totals.T, sizes, criterion)[cut_node]
    gains = parent - (
        n_left * _impurity(left, n_left, criterion)
        + n_right * _impurity(right, n_right, criterion)
    ) / n_node
    # first maximum per node, in feature-major order: lowest feature, then
    # lowest threshold
    starts = np.flatnonzero(cut_node[1:] != cut_node[:-1]) + 1
    starts = np.concatenate(([0], starts))
    best = np.maximum.reduceat(gains, starts)
    at_best = gains == np.repeat(best, np.diff(starts, append=len(cuts)))
    first = np.minimum.reduceat(np.where(at_best, np.arange(len(cuts)), len(cuts)), starts)
    first = first[best > 0.0]
    node = cut_node[first]
    feature[node] = seg_feature[cut_seg[first]]
    below = node_rows[src[cuts[first]]]
    above = node_rows[src[cuts[first] + 1]]
    threshold[node] = (X[below, feature[node]] + X[above, feature[node]]) / 2.0
    gain[node] = gains[first]
    return feature, threshold, gain


@dataclass(eq=False)
class DecisionTree:
    """A fitted tree as preorder columns, the node list of the saved model.

    Node 0 is the root and each internal node's left child follows it
    (`left[i] == i + 1`). Leaves hold -1 in `feature`, `left` and `right`
    and 0.0 in `threshold`; internal nodes hold zero `counts` and so the
    Hold label that the tie rule gives zero counts. The integer columns may
    be of any width: grown trees use int32 and int8 labels, which halves
    the memory of the hundred trees a split's forests hold at once.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # (n_nodes, 3) training rows of each label per leaf
    label: np.ndarray
    n_features: int
    criterion: str


def _chunks(elements: list[int]) -> Iterator[slice]:
    """Consecutive runs of nodes holding at most _SPLIT_ELEMENTS elements in all,
    or one node alone when it holds more."""
    start, total = 0, 0
    for i, count in enumerate(elements):
        if total and total + count > _SPLIT_ELEMENTS:
            yield slice(start, i)
            start, total = i, 0
        total += count
    if total:
        yield slice(start, len(elements))


class _Growth:
    """One tree being grown: its stack of pending nodes and its columns so far.

    Only the node kinds, split thresholds and leaf counts are kept; the
    rest of the layout follows from the node kinds in preorder.
    """

    __slots__ = ("stack", "feature", "threshold", "counts")

    def __init__(self, rows: np.ndarray):
        self.stack: list[tuple[np.ndarray, int]] = [(rows, 0)]  # (node rows, depth)
        self.feature: list[int] = []  # -1 at leaves
        self.threshold: list[float] = []  # one per internal node
        self.counts: list[int] = []  # three per leaf

    def tree(self, n_features: int, criterion: str) -> DecisionTree:
        n = len(self.feature)
        # a node that follows a leaf is the right child of the nearest
        # internal node before it whose right child has not come yet
        right = [-1] * n
        waiting: list[int] = []
        for pos, feature in enumerate(self.feature):
            if pos and self.feature[pos - 1] < 0:
                right[waiting.pop()] = pos
            if feature >= 0:
                waiting.append(pos)
        feature = np.array(self.feature, dtype=np.int32)
        internal = feature >= 0
        threshold = np.zeros(n)
        threshold[internal] = self.threshold
        counts = np.zeros((n, N_CLASSES), dtype=np.int32)
        counts[~internal] = np.reshape(self.counts, (-1, N_CLASSES))
        return DecisionTree(
            feature,
            threshold,
            np.where(internal, np.arange(1, n + 1, dtype=np.int32), np.int32(-1)),
            np.array(right, dtype=np.int32),
            counts,
            majority_labels(counts).astype(np.int8),
            n_features=n_features,
            criterion=criterion,
        )


def grow_trees(
    X: np.ndarray,
    Y: np.ndarray,
    columns: np.ndarray,
    roots: Iterable[np.ndarray],
    spec: "ClassifierSpec",
    pick: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[DecisionTree]:
    """Grow tree t on X[roots[t]] with labels Y[roots[t], columns[t]], all in lockstep.

    `pick(trees)` gives, for each listed tree, the sorted candidate features
    of the node it searches next, as one (len(trees), pick.mtry) array; a
    tree's nodes are searched in its preorder, so a per-tree stream yields
    the draws it would for that tree grown alone. Every node searches every
    feature when `pick` is None. `roots` is only iterated, so a generator
    lets each root go once its node is split.
    """
    ranks = dense_ranks(X)
    width = X.shape[1] if pick is None else pick.mtry
    growths: list[_Growth | None] = [_Growth(rows) for rows in roots]
    trees: list[DecisionTree | None] = [None] * len(growths)
    live = list(range(len(growths)))
    while live:
        popped = [growths[t].stack.pop() for t in live]
        for chunk in _chunks([len(rows) * width for rows, _ in popped]):
            _grow_nodes(
                X, Y, ranks, columns, spec, pick,
                live[chunk], [growths[t] for t in live[chunk]], popped[chunk],
            )
        for t in live:
            if not growths[t].stack:
                trees[t] = growths[t].tree(X.shape[1], spec.criterion)
                growths[t] = None
        live = [t for t in live if growths[t] is not None]
    return trees


def _grow_nodes(X, Y, ranks, columns, spec, pick, trees, growths, popped) -> None:
    """Append one popped node to each tree's columns: a leaf, or a split
    whose children go on the tree's stack, right child first."""
    rows = [node_rows for node_rows, _ in popped]
    sizes = np.array([len(r) for r in rows])
    flat = np.concatenate(rows)
    node_of = np.repeat(np.arange(len(rows)), sizes)
    y = Y[flat, columns[trees][node_of]]
    counts = np.bincount(node_of * N_CLASSES + y, minlength=N_CLASSES * len(rows))
    counts = counts.reshape(-1, N_CLASSES)
    stop = (np.count_nonzero(counts, axis=1) <= 1) | (sizes < spec.min_samples_split)
    if spec.max_depth is not None:
        stop |= np.array([depth for _, depth in popped]) >= spec.max_depth
    searched = np.flatnonzero(~stop).tolist()
    feature = np.full(len(rows), -1)
    threshold = np.zeros(len(rows))
    offsets = [0, *sizes.cumsum().tolist()]
    if searched:
        if pick is None:
            features = [np.arange(X.shape[1])] * len(searched)
        else:
            features = list(pick(np.asarray(trees)[searched]))
        feature[searched], threshold[searched], _ = best_split(
            X, [y[offsets[i] : offsets[i + 1]] for i in searched], spec.criterion, features,
            [rows[i] for i in searched], ranks,
        )
    go_left = X[flat, np.maximum(feature, 0)[node_of]] <= threshold[node_of]
    feature, threshold, leaf_counts = feature.tolist(), threshold.tolist(), counts.tolist()
    for i, (growth, (node_rows, depth)) in enumerate(zip(growths, popped)):
        growth.feature.append(feature[i])
        if feature[i] < 0:
            growth.counts.extend(leaf_counts[i])
            continue
        growth.threshold.append(threshold[i])
        mask = go_left[offsets[i] : offsets[i + 1]]
        growth.stack.append((node_rows[~mask], depth + 1))
        growth.stack.append((node_rows[mask], depth + 1))


def check_layout(tree: DecisionTree) -> None:
    """Raise ValueError unless every walk down the columns ends at a leaf.

    Each internal node i needs left[i] == i + 1 and i + 1 < right[i] <
    n_nodes, so child positions strictly increase and no walk can cycle,
    and a feature in 0..n_features - 1. Each leaf needs right == -1, three
    non-negative counts with a positive total and a label in 0..2.
    """
    n = len(tree.left)
    columns = (tree.threshold, tree.feature, tree.left, tree.right, tree.label, tree.counts)
    expected = [((n,), "f")] + [((n,), "i")] * 4 + [((n, N_CLASSES), "i")]
    if n == 0 or [(column.shape, column.dtype.kind) for column in columns] != expected:
        raise ValueError("a tree needs float thresholds and integer columns, one row a node")
    internal = tree.left != -1
    pos, right, feature = np.flatnonzero(internal), tree.right[internal], tree.feature[internal]
    if not (
        (tree.left[internal] == pos + 1).all()
        and (right > pos + 1).all()
        and (right < n).all()
        and (tree.right[~internal] == -1).all()
    ):
        raise ValueError("tree child positions are not a preorder layout")
    counts, label = tree.counts[~internal], tree.label[~internal]
    if not (
        ((feature >= 0) & (feature < tree.n_features)).all()
        and ((label >= 0) & (label < N_CLASSES)).all()
        and (counts >= 0).all()
        and (counts.sum(axis=1) > 0).all()
    ):
        raise ValueError(
            f"tree split features must lie in 0..{tree.n_features - 1}, leaf labels in 0..2, "
            "leaf counts be non-negative with a positive total"
        )


def fit_decision_trees(X: np.ndarray, Y: np.ndarray, spec: "ClassifierSpec") -> list[DecisionTree]:
    """One tree per column of the validated (n, h) label matrix Y, each
    grown on the rows its column labels (-1: not a training row there)."""
    roots = [np.flatnonzero(column >= 0) for column in Y.T]
    return grow_trees(X, Y, np.arange(len(roots)), roots, spec)


def tree_labels(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Label value of each row of X: the label of the leaf it reaches."""
    internal = tree.left >= 0
    at = np.zeros(len(X), dtype=np.intp)
    rows = np.flatnonzero(internal[at])
    while rows.size:
        node = at[rows]
        child = np.where(
            X[rows, tree.feature[node]] <= tree.threshold[node], tree.left[node], tree.right[node]
        )
        at[rows] = child
        rows = rows[internal[child]]
    return tree.label[at]

