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
nodes to search go on their tree's stack, and preorder restricted to those
nodes is the stack's order, so each tree searches, and draws the candidate
features of, its nodes in its own preorder. The stacks are one
(tree, level) array with one pointer per tree. A step pops the top node of
every tree, searches them all in as few `best_split` calls as
_SPLIT_ELEMENTS allows and pushes the children to search, right child
first. Without feature draws a step pops every pending node instead, so
the trees grow breadth first, one level per step.

Nodes go into one table in the order they are made, a node's two children
side by side. When growth ends, one pass computes subtree sizes bottom up
by depth and preorder positions top down (left child = parent + 1, right
child = parent + 1 + the size of the left subtree), and each tree gathers
its columns from the table in that order.

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


class _NodeTable:
    """Every node of every tree in the order it was made.

    An internal node's children are made together, so its right child is
    the node after its left child; `left` is -1 at leaves, as is `feature`.
    Nodes 0 .. n_trees - 1 are the roots. The columns grow by doubling
    with `ndarray.resize`, which reallocates each in place where it can.
    """

    def __init__(self, capacity: int):
        self.size = 0
        self.left = np.empty(capacity, dtype=np.int32)
        self.feature = np.empty(capacity, dtype=np.int32)
        self.threshold = np.empty(capacity)
        self.counts = np.empty((capacity, N_CLASSES), dtype=np.int32)

    def add(self, counts: np.ndarray) -> np.ndarray:
        """Ids of new leaves with these class counts."""
        start, end = self.size, self.size + len(counts)
        if end > len(self.left):
            capacity = max(end, 2 * len(self.left))
            for column in (self.left, self.feature, self.threshold, self.counts):
                column.resize((capacity, *column.shape[1:]), refcheck=False)
        self.left[start:end] = -1
        self.feature[start:end] = -1
        self.threshold[start:end] = 0.0
        self.counts[start:end] = counts
        self.size = end
        return np.arange(start, end)

    def trees(self, n_trees: int, n_features: int, criterion: str) -> list[DecisionTree]:
        """Each tree's preorder columns, gathered from the table a column at a
        time; each table column is dropped once gathered."""
        left = self.left[: self.size]
        levels = []  # the internal nodes at each depth
        level = np.arange(n_trees)
        while level.size:
            level = level[left[level] >= 0]
            levels.append(level)
            level = np.concatenate([left[level], left[level] + 1])
        size = np.ones(self.size, dtype=np.int32)
        for parents in reversed(levels):
            size[parents] += size[left[parents]] + size[left[parents] + 1]
        offsets = np.concatenate(([0], size[:n_trees].cumsum())).tolist()
        pos = np.empty(self.size, dtype=np.int32)
        pos[:n_trees] = offsets[:-1]
        for parents in levels:
            pos[left[parents]] = pos[parents] + 1
            pos[left[parents] + 1] = pos[parents] + 1 + size[left[parents]]
        del size, levels
        in_preorder = np.empty(self.size, dtype=np.int32)
        in_preorder[pos] = np.arange(self.size, dtype=np.int32)
        spans = list(zip(offsets[:-1], offsets[1:]))
        ids = [in_preorder[start:end] for start, end in spans]
        lefts, rights = [], []
        for (start, end), nodes in zip(spans, ids):
            kids = left[nodes]
            internal = kids >= 0
            lefts.append(np.where(internal, np.arange(1, end - start + 1, dtype=np.int32), -1))
            rights.append(np.where(internal, pos[kids + 1] - start, -1))
        del left, pos
        self.left = None
        features = [self.feature[nodes] for nodes in ids]
        self.feature = None
        thresholds = [self.threshold[nodes] for nodes in ids]
        self.threshold = None
        counts = [self.counts[nodes] for nodes in ids]
        self.counts = None
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
    feature when `pick` is None. `roots` is only iterated, so a generator
    lets each root go once its distinct rows are counted.
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
    # a tree makes at most two nodes per distinct entry; forests on the bench
    # markets make about 0.74, so one per entry rarely has to grow
    table = _NodeTable(len(rows))
    # the nodes tree t has yet to search are stack[t, :top[t]], top last,
    # each as (node id, start, length, depth)
    stack = np.empty((n_trees, 8, 4), dtype=np.int32)
    top = np.zeros(n_trees, dtype=np.intp)

    def push(tree: np.ndarray, entries: np.ndarray) -> None:
        """Push entries[i] on tree[i]'s stack, in order; `tree` is sorted."""
        nonlocal stack
        if not len(tree):
            return
        slot = top[tree] + np.arange(len(tree)) - np.searchsorted(tree, tree)
        if slot.max() >= stack.shape[1]:
            wider = np.empty((n_trees, 2 * (int(slot.max()) + 1), 4), dtype=np.int32)
            wider[:, : stack.shape[1]] = stack
            stack = wider
        stack[tree, slot] = entries
        top[:] += np.bincount(tree, minlength=n_trees)

    depth = np.zeros(n_trees, dtype=np.int32)
    search = _to_search(counts, depth, spec)
    push(
        np.flatnonzero(search),
        np.column_stack([table.add(counts), lengths.cumsum() - lengths, lengths, depth])[search],
    )
    every = np.arange(X.shape[1])
    while top.any():
        if pick is None:  # breadth first: every pending node of every tree
            tree, level = np.nonzero(np.arange(stack.shape[1]) < top[:, None])
            popped = stack[tree, level]
            top[:] = 0
            features = np.broadcast_to(every, (len(tree), width))
        else:  # the top node of every tree, for the tree's next draw
            tree = np.flatnonzero(top)
            top[tree] -= 1
            popped = stack[tree, top[tree]]
            features = pick(tree)
        node, start, length, depth = popped.T
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
        parent = node[split]
        table.feature[parent] = feature[split]
        table.threshold[parent] = threshold[split]
        kids = np.empty((len(split), 2, N_CLASSES), dtype=np.int32)  # left, right
        kids[:, 0] = left_counts[split]
        kids[:, 1] = table.counts[parent] - left_counts[split]
        ids = table.add(kids.reshape(-1, N_CLASSES)).reshape(-1, 2)
        table.left[parent] = ids[:, 0]
        # each parent's children to search, right child first so that the
        # left child is popped first
        k = n_left[split]
        entries = np.empty((len(split), 2, 4), dtype=np.int32)
        entries[:, 0, :3] = np.column_stack([ids[:, 1], start[split] + k, length[split] - k])
        entries[:, 1, :3] = np.column_stack([ids[:, 0], start[split], k])
        entries[:, :, 3] = depth[split, None] + 1
        entries = entries.reshape(-1, 4)
        search = _to_search(kids[:, ::-1].reshape(-1, N_CLASSES), entries[:, 3], spec)
        push(np.repeat(tree[split], 2)[search], entries[search])
    del rows, weights, labels, ranks
    return table.trees(n_trees, X.shape[1], spec.criterion)


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
