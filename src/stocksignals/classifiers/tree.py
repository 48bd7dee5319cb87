"""CART decision tree with exhaustive midpoint threshold search.

Split rule: x[feature] <= threshold routes left. Thresholds sit at the
midpoints of consecutive distinct sorted values, and the chosen split
maximizes the weighted impurity decrease; ties break toward the lower
feature index, then the lower threshold. Growth stops on a pure node,
max_depth, min_samples_split, or when no split has a positive decrease.

`best_split` searches every candidate feature of a node with one set of
array operations: the node's candidate columns form an (f, n) block that
is stably sorted per feature, a cumulative one-hot sum gives the class
counts left of every cut, and gains are computed for all (feature, cut)
pairs at once, with cuts between equal values masked to -inf. One argmax
over the feature-major gain matrix returns the first maximum, i.e. the
lowest feature and within it the lowest threshold. Counts at a cut do not
depend on the order of equal values, and every gain comes from the same
elementwise operations and 3-wide row sums as a one-feature-at-a-time
search (kept in the tests as the reference), so trees are bit-identical
to it.

A fitted tree is its preorder columns, the node list of the saved model:
`grow_tree` pops nodes in preorder, left child first, and appends each to
the columns as it goes, so a node's left child is the next row and its
right child's row is filled in when that child is popped. `tree_labels`
predicts a whole probe matrix by walking all probes down these columns
together, one level per step: each probe still inside the tree moves to
the left child when x[feature] <= threshold and to the right child
otherwise, NaN included, exactly as one probe walked on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from stocksignals.errors import DataError, DimensionMismatch, EmptyTraining
from stocksignals.labels import majority_labels

if TYPE_CHECKING:
    from stocksignals.classifiers.base import ClassifierSpec

N_CLASSES = 3
_ONE_HOT = np.eye(N_CLASSES)
_NO_COUNTS = np.zeros(N_CLASSES, dtype=np.int64)


def _impurity(counts: np.ndarray, sizes: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity along the last axis of class counts; `sizes` broadcasts to counts."""
    p = counts / sizes
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=-1)
    logp = np.zeros_like(p)
    mask = p > 0
    logp[mask] = np.log2(p[mask])
    return -(p * logp).sum(axis=-1)


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    criterion: str,
    candidate_features: Iterable[int],
    rows: np.ndarray | None = None,
) -> Split | None:
    """Best (feature, threshold) over the candidates, or None without gain.

    `rows` indexes the node's rows in X (every row when None); y holds
    their labels. All candidates are searched at once on an (f, n) block.
    """
    features = np.array(sorted(candidate_features), dtype=np.intp)[:, None]
    if rows is None:
        rows = np.arange(len(y))
    order = X.T[features, rows].argsort(axis=1, kind="stable")
    ordered = X.T[features, rows[order]]
    # is_cut[j, i]: a threshold fits between sorted positions i and i + 1
    is_cut = ordered[:, 1:] > ordered[:, :-1]
    if not is_cut.any():
        return None
    n = len(y)
    # class counts of the first i + 1 sorted rows; the last column is the whole node
    prefix = _ONE_HOT[y[order]].cumsum(axis=1)
    sizes = np.arange(1.0, n + 1)
    left = _impurity(prefix, sizes[:, None], criterion)
    parent = left[0, -1]
    n_left = sizes[:-1]
    n_right = n - n_left
    right = _impurity(prefix[:, -1:] - prefix[:, :-1], n_right[:, None], criterion)
    gains = parent - (n_left * left[:, :-1] + n_right * right) / n
    # first maximum in feature-major order: lowest feature, then lowest threshold
    k = int(np.where(is_cut, gains, -np.inf).argmax())
    j, cut = divmod(k, n - 1)
    gain = float(gains[j, cut])
    if gain <= 0.0:
        return None
    threshold = float((ordered[j, cut] + ordered[j, cut + 1]) / 2.0)
    return Split(feature=int(features[j, 0]), threshold=threshold, gain=gain)


@dataclass(eq=False)
class DecisionTree:
    """A fitted tree as preorder columns, the node list of the saved model.

    Node 0 is the root and each internal node's left child follows it
    (`left[i] == i + 1`). Leaves hold -1 in `feature`, `left` and `right`
    and 0.0 in `threshold`; internal nodes hold zero `counts` and so the
    Hold label that the tie rule gives zero counts.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # (n_nodes, 3) training rows of each label per leaf
    label: np.ndarray
    n_features: int
    criterion: str


def grow_tree(
    X: np.ndarray, y: np.ndarray, rows: np.ndarray, spec: "ClassifierSpec", pick_candidates
) -> DecisionTree:
    """Iterative CART growth on X[rows], y[rows] (explicit stack, preorder,
    left child first), appending each node to the columns as it is popped.

    `pick_candidates()` supplies the feature indices searched at each node;
    random forests pass a sampler, plain trees pass all features.
    """
    nodes: list[tuple[int, float, int, np.ndarray]] = []  # feature, threshold, left, counts
    right: list[int] = []
    # (node rows, depth, position of the parent whose right child this is, or -1)
    stack: list[tuple[np.ndarray, int, int]] = [(rows, 0, -1)]
    while stack:
        idx, depth, parent = stack.pop()
        pos = len(nodes)
        if parent >= 0:
            right[parent] = pos
        right.append(-1)
        y_node = y[idx]
        counts = np.bincount(y_node, minlength=N_CLASSES)
        stop = (
            np.count_nonzero(counts) <= 1
            or len(idx) < spec.min_samples_split
            or (spec.max_depth is not None and depth >= spec.max_depth)
        )
        split = None
        if not stop:
            split = best_split(X, y_node, spec.criterion, pick_candidates(), rows=idx)
        if split is None:
            nodes.append((-1, 0.0, -1, counts))
            continue
        nodes.append((split.feature, split.threshold, pos + 1, _NO_COUNTS))
        mask = X[idx, split.feature] <= split.threshold
        stack.append((idx[~mask], depth + 1, pos))
        stack.append((idx[mask], depth + 1, -1))
    feature, threshold, left, counts = (np.array(column) for column in zip(*nodes))
    return DecisionTree(
        feature, threshold, left, np.array(right), counts, majority_labels(counts),
        n_features=X.shape[1], criterion=spec.criterion,
    )


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


def as_training_arrays(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a training pair as float features and int64 labels."""
    X_arr = np.asarray(X, dtype=float)
    if X_arr.ndim != 2:
        raise DimensionMismatch("feature matrix must be 2-D")
    y_arr = np.asarray(y, dtype=np.int64)
    if len(X_arr) != len(y_arr):
        raise DimensionMismatch(
            f"{len(X_arr)} feature rows vs {len(y_arr)} labels"
        )
    if len(y_arr) == 0:
        raise EmptyTraining("no training rows")
    if not np.isfinite(X_arr).all():
        raise DataError("features must be finite")
    return X_arr, y_arr


def fit_decision_tree(X, y, spec: "ClassifierSpec") -> DecisionTree:
    X_arr, y_arr = as_training_arrays(X, y)
    d = X_arr.shape[1]
    all_features = tuple(range(d))
    return grow_tree(X_arr, y_arr, np.arange(len(y_arr)), spec, lambda: all_features)


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

