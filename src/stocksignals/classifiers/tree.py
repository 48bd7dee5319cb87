"""CART decision trees with exhaustive midpoint threshold search, grown as one flat frontier.

An internal node routes x left when x[feature] <= threshold. Thresholds
sit at the midpoints of consecutive distinct sorted values, and the chosen
split maximizes the weighted impurity decrease; ties break toward the
lower feature index, then the lower threshold. Growth stops on a pure node,
max_depth, min_samples_split, or when no split has a positive decrease.

`grow_trees` grows many trees together, for instance every tree of every
horizon's forest on one split. A tree trains on the distinct rows of its
root, each weighted by how often the root holds it (a bootstrap sample
draws a row about 1.6 times). The entries of all trees live in three flat
columns (row, weight, label), and a pending node is a (start, length) range
of them; a split stable-partitions its node's range in place, left entries
first. Node sizes and class counts are sums of weights, the same integers
the repeated rows would give, so every float comes out the same.

Leaves are decided at their parent: the winning cut gives both children's
class counts, and a child that is pure, weighs less than
min_samples_split or lies at max_depth is written as a leaf at once. Only
nodes to search are pending. They are the rows of one array, each
(tree, node id, start, length, depth, class counts), kept stably sorted by
tree, so each tree's run of rows is its stack, next node last. A step pops
the last row of every run, searches them all in as few `best_split` calls
as _SPLIT_ELEMENTS allows, appends the children to search, right child
first, and re-sorts the rows by tree; so each tree searches, and draws the
candidate features of, its nodes in its own preorder. Without feature
draws a step pops every pending node instead, so the trees grow breadth
first, one level per step.

Nodes are numbered in the order they are made, a split's two children
side by side, and growth only records each new node's class counts and
each split's (parent, feature, threshold). When growth ends, the node
columns are filled from those records, one pass computes subtree sizes
bottom up by depth and preorder positions top down (left child = parent +
1, right child = parent + 1 + the size of the left subtree), and each tree
gathers its columns in that order.

`best_split` lays the searched nodes out ragged: each (node, candidate
feature) pair is one contiguous segment of a flat array holding that
node's entries, with no padding. One argsort of the key segment * n + rank,
where rank is the value's dense rank in its column of X (computed once per
fit), sorts every segment by value at once. Per-class cumulative sums of
the weights give the class counts left of every cut between distinct
values, and the impurities are computed from three columns, one per class,
summed in class order as a 3-wide row sum is; gains use the same
elementwise operations as a one-feature-at-a-time search over the repeated
rows (kept in the tests as the reference), so trees are bit-identical to
it. Counts at such a cut do not depend on the order of equal values, so the
sort need not be stable. A node's segments are feature-major, so the first
maximum of its gains is the lowest feature and, within it, the lowest
threshold. A call holds about _SPLIT_ELEMENTS (segment, entry) elements; a
larger node is searched alone.

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

# (segment, entry) elements searched by one best_split call: a few thousand
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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices start .. start + length - 1 of every range, concatenated."""
    ends = lengths.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - lengths), lengths)


def best_split(
    X: np.ndarray,
    ranks: np.ndarray,
    criterion: str,
    rows: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    lengths: np.ndarray,
    features: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best (feature, threshold, gain, left counts) of every node, searched in one batch.

    Node i holds the next lengths[i] (at least one) entries of rows, labels
    and weights: a row of X, its label and how many times it counts.
    features[i] holds its ascending candidate features, one row of the
    (nodes, width) array per node; `ranks` is dense_ranks(X). The first
    three results hold one entry per node and the left counts one row of
    per-class weights left of the cut; a node where no split gains has
    feature -1, threshold 0.0, gain 0.0 and zero left counts.
    """
    n_nodes = len(lengths)
    feature, threshold, gain = np.full(n_nodes, -1), np.zeros(n_nodes), np.zeros(n_nodes)
    left_counts = np.zeros((n_nodes, N_CLASSES), dtype=np.intp)
    width = features.shape[1]
    node_start = lengths.cumsum() - lengths
    seg_feature = features.ravel().astype(np.intp)
    seg_node = np.repeat(np.arange(n_nodes), width)
    seg_len = lengths[seg_node].astype(np.intp)
    seg_end = seg_len.cumsum()
    if not seg_end.size or seg_end[-1] < 2:
        return feature, threshold, gain, left_counts
    seg_start = seg_end - seg_len
    elem_seg = np.repeat(np.arange(len(seg_len)), seg_len)
    # each element's entry: its node's first entry plus its position in the segment
    src = _ranges(node_start[seg_node], seg_len)
    key = elem_seg * len(X) + ranks[rows[src], seg_feature[elem_seg]]
    order = key.argsort()
    key = key[order]
    src = src[order]
    # a cut follows a sorted position whose successor in the segment is larger
    is_cut = key[1:] != key[:-1]
    is_cut[seg_end[:-1] - 1] = False
    cuts = np.flatnonzero(is_cut)
    if not cuts.size:
        return feature, threshold, gain, left_counts
    totals = np.bincount(
        np.repeat(np.arange(n_nodes) * N_CLASSES, lengths) + labels,
        weights=weights,
        minlength=N_CLASSES * n_nodes,
    ).astype(np.intp).reshape(-1, N_CLASSES)
    sizes = totals.sum(axis=1)
    cut_seg = elem_seg[cuts]
    cut_node = seg_node[cut_seg]
    del elem_seg, key, order, is_cut  # free the element-sized work before the per-cut work
    w_sorted = weights[src]
    y_sorted = labels[src]
    end, start = cuts + 1, seg_start[cut_seg]
    cum = np.zeros(len(src) + 1, dtype=np.intp)

    def left_of_cuts(values: np.ndarray) -> np.ndarray:
        """The sum of values from each cut's segment start to the cut."""
        np.cumsum(values, out=cum[1:])
        return cum[end] - cum[start]

    n_left = left_of_cuts(w_sorted)
    left = [left_of_cuts(w_sorted * (y_sorted == label)) for label in range(N_CLASSES - 1)]
    left.append(n_left - left[0] - left[1])
    n_node = sizes[cut_node]
    n_right = n_node - n_left
    right = [count[cut_node] - left[label] for label, count in enumerate(totals.T)]
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
    below = rows[src[cuts[first]]]
    above = rows[src[cuts[first] + 1]]
    threshold[node] = (X[below, feature[node]] + X[above, feature[node]]) / 2.0
    gain[node] = gains[first]
    left_counts[node] = np.column_stack([count[first] for count in left])
    return feature, threshold, gain, left_counts


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


def _trees(
    made: list[np.ndarray], splits: list[tuple], n_trees: int, n_features: int, criterion: str
) -> list[DecisionTree]:
    """Each tree's preorder columns, from every node of every tree in the order made.

    Nodes 0 .. n_trees - 1 are the roots, and a split's two children are
    made together, left then right. made[k] holds the class counts of the
    k-th batch of nodes made and splits[k] the (parent, feature, threshold)
    of each split that made them, in order, so the i-th split of all makes
    nodes n_trees + 2i and n_trees + 2i + 1. Both lists are emptied, and
    each whole column is dropped once its per-tree copies are gathered.
    """
    counts = np.concatenate(made)
    made.clear()
    parent, split_feature, split_threshold = (np.concatenate(column) for column in zip(*splits))
    splits.clear()
    n_made = len(counts)
    left, feature = np.full(n_made, -1, dtype=np.int32), np.full(n_made, -1, dtype=np.int32)
    threshold = np.zeros(n_made)
    left[parent] = n_trees + 2 * np.arange(len(parent))
    feature[parent], threshold[parent] = split_feature, split_threshold
    del parent, split_feature, split_threshold
    levels = []  # the internal nodes at each depth
    level = np.arange(n_trees)
    while level.size:
        level = level[left[level] >= 0]
        levels.append(level)
        level = np.concatenate([left[level], left[level] + 1])
    size = np.ones(n_made, dtype=np.int32)
    for parents in reversed(levels):
        size[parents] += size[left[parents]] + size[left[parents] + 1]
    offsets = np.concatenate(([0], size[:n_trees].cumsum())).tolist()
    pos = np.empty(n_made, dtype=np.int32)
    pos[:n_trees] = offsets[:-1]
    for parents in levels:
        pos[left[parents]] = pos[parents] + 1
        pos[left[parents] + 1] = pos[parents] + 1 + size[left[parents]]
    del size, levels
    in_preorder = np.empty(n_made, dtype=np.int32)
    in_preorder[pos] = np.arange(n_made, dtype=np.int32)
    spans = list(zip(offsets[:-1], offsets[1:]))
    ids = [in_preorder[start:end] for start, end in spans]
    lefts, rights = [], []
    for (start, end), nodes in zip(spans, ids):
        kids = left[nodes]
        internal = kids >= 0
        lefts.append(np.where(internal, np.arange(1, end - start + 1, dtype=np.int32), -1))
        rights.append(np.where(internal, pos[kids + 1] - start, -1))
    del left, pos
    features = [feature[nodes] for nodes in ids]
    del feature
    thresholds = [threshold[nodes] for nodes in ids]
    del threshold
    counts = [counts[nodes] for nodes in ids]
    for feature, leaf_counts in zip(features, counts):
        leaf_counts[feature >= 0] = 0
    return [
        DecisionTree(
            *columns, majority_labels(columns[4]).astype(np.int8),
            n_features=n_features, criterion=criterion,
        )
        for columns in zip(features, thresholds, lefts, rights, counts)
    ]


def _to_search(counts: np.ndarray, depth: np.ndarray, spec: "ClassifierSpec") -> np.ndarray:
    """Which nodes with these class counts and depths are searched, not leaves."""
    search = (np.count_nonzero(counts, axis=1) > 1) & (counts.sum(axis=1) >= spec.min_samples_split)
    if spec.max_depth is not None:
        search &= depth < spec.max_depth
    return search


def grow_trees(
    X: np.ndarray,
    Y: np.ndarray,
    columns: np.ndarray,
    roots: Iterable[np.ndarray],
    spec: "ClassifierSpec",
    pick: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[DecisionTree]:
    """Grow tree t on X[roots[t]] with labels Y[roots[t], columns[t]], all together.

    `pick(trees)` gives, for each listed tree, the sorted candidate features
    of the node it searches next, as one (len(trees), pick.mtry) array; a
    tree's nodes are searched in its preorder, so a per-tree stream yields
    the draws it would for that tree grown alone. Every node searches every
    feature when `pick` is None, and each step then searches every pending
    node. `roots` is only iterated, so a generator lets each root go once its
    distinct rows are counted. Growth keeps one array of pending nodes and
    the records of the nodes made; the trees' columns are laid out from
    those records once growth ends.
    """
    ranks = dense_ranks(X)
    width = X.shape[1] if pick is None else pick.mtry
    distinct = [
        [column.astype(np.int32) for column in np.unique(root, return_counts=True)]
        for root in roots
    ]
    n_trees = len(distinct)
    lengths = np.array([len(rows) for rows, _ in distinct])
    rows = np.concatenate([rows for rows, _ in distinct])
    weights = np.concatenate([counts for _, counts in distinct])
    del distinct
    entry_tree = np.repeat(np.arange(n_trees), lengths)
    labels = Y[rows, np.asarray(columns)[entry_tree]].astype(np.int8)
    counts = np.bincount(
        entry_tree * N_CLASSES + labels, weights=weights, minlength=N_CLASSES * n_trees
    ).astype(np.int32).reshape(-1, N_CLASSES)
    del entry_tree
    # tree t's nodes to search are its run of rows, next one last, each as
    # (tree, node id, start, length, depth, class counts)
    ids, depth = np.arange(n_trees), np.zeros(n_trees, dtype=np.int32)
    pending = np.column_stack([ids, ids, lengths.cumsum() - lengths, lengths, depth, counts])
    pending = pending.astype(np.int32)[_to_search(counts, depth, spec)]
    # the class counts of the nodes made, and each split's (parent, feature,
    # threshold); the empty record lets a fit in which no node splits concatenate
    made = [counts]
    no_split = np.empty(0, dtype=np.int32)
    splits = [(no_split, no_split, np.empty(0))]
    n_made = n_trees
    every = np.arange(X.shape[1])
    while len(pending):
        if pick is None:  # breadth first: every pending node of every tree
            popped, pending = pending, pending[:0]
            features = np.broadcast_to(every, (len(popped), width))
        else:  # the last node of every tree's run, for the tree's next draw
            last = np.diff(pending[:, 0], append=n_trees) > 0
            popped, pending = pending[last], pending[~last]
            features = pick(popped[:, 0])
        tree, node, start, length, depth = popped[:, :5].T
        found = []
        for chunk in _chunks((length * width).tolist()):
            at = _ranges(start[chunk], length[chunk])
            node_rows, node_weights, node_labels = rows[at], weights[at], labels[at]
            feature, threshold, _, left_counts = best_split(
                X, ranks, spec.criterion, node_rows, node_labels, node_weights, length[chunk],
                features[chunk],
            )
            # stable-partition each node's entries, left ones first (a leaf's
            # entries are only reordered within its own range)
            elem_node = np.repeat(np.arange(len(feature)), length[chunk])
            goes_right = X[node_rows, np.maximum(feature, 0)[elem_node]] > threshold[elem_node]
            order = np.argsort(2 * elem_node + goes_right, kind="stable")
            rows[at], weights[at], labels[at] = (
                node_rows[order], node_weights[order], node_labels[order]
            )
            n_left = np.bincount(elem_node[~goes_right], minlength=len(feature))
            found.append((feature, threshold, left_counts, n_left))
        feature, threshold, left_counts, n_left = (np.concatenate(column) for column in zip(*found))

        split = np.flatnonzero(feature >= 0)
        splits.append((node[split], feature[split], threshold[split]))
        kids = np.empty((len(split), 2, N_CLASSES), dtype=np.int32)  # left, right
        kids[:, 0] = left_counts[split]
        kids[:, 1] = popped[split, 5:] - left_counts[split]
        made.append(kids.reshape(-1, N_CLASSES))
        # each parent's children, right child first so that the left child is
        # popped first
        k = n_left[split]
        children = np.empty((len(split), 2, 8), dtype=np.int32)
        children[:, :, 0] = tree[split, None]
        children[:, :, 1] = n_made + 2 * np.arange(len(split))[:, None] + [1, 0]
        children[:, 0, 2:4] = np.column_stack([start[split] + k, length[split] - k])
        children[:, 1, 2:4] = np.column_stack([start[split], k])
        children[:, :, 4] = depth[split, None] + 1
        children[:, :, 5:] = kids[:, ::-1]
        n_made += 2 * len(split)
        children = children.reshape(-1, 8)
        search = _to_search(children[:, 5:], children[:, 4], spec)
        pending = np.concatenate([pending, children[search]])
        pending = pending[pending[:, 0].argsort(kind="stable")]
    del rows, weights, labels, ranks
    return _trees(made, splits, n_trees, X.shape[1], spec.criterion)


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
