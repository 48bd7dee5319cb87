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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from stocksignals.errors import DataError, DimensionMismatch, EmptyTraining
from stocksignals.labels import Label, majority_label

if TYPE_CHECKING:
    from stocksignals.classifiers.base import ClassifierSpec

N_CLASSES = 3
_ONE_HOT = np.eye(N_CLASSES)


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


@dataclass
class Leaf:
    counts: tuple[int, int, int]
    label: Label


@dataclass
class Internal:
    feature: int
    threshold: float
    # children excluded from repr: printing a deep tree must not recurse
    left: "Leaf | Internal | None" = field(default=None, repr=False)
    right: "Leaf | Internal | None" = field(default=None, repr=False)


TreeNode = Leaf | Internal


@dataclass
class DecisionTree:
    root: TreeNode
    n_features: int
    criterion: str


def _leaf_from_counts(counts: np.ndarray) -> Leaf:
    values = counts.tolist()
    return Leaf(counts=tuple(values), label=majority_label(values))


def grow_tree(X: np.ndarray, y: np.ndarray, spec: "ClassifierSpec", pick_candidates) -> TreeNode:
    """Iterative CART growth (explicit stack, preorder, left child first).

    `pick_candidates()` supplies the feature indices searched at each node;
    random forests pass a sampler, plain trees pass all features.
    """
    root: TreeNode | None = None
    stack: list[tuple[np.ndarray, int, Internal | None, str]] = [
        (np.arange(len(y)), 0, None, "")
    ]
    while stack:
        idx, depth, parent, side = stack.pop()
        y_node = y[idx]
        counts = np.bincount(y_node, minlength=N_CLASSES)
        node: TreeNode
        stop = (
            np.count_nonzero(counts) <= 1
            or len(idx) < spec.min_samples_split
            or (spec.max_depth is not None and depth >= spec.max_depth)
        )
        split = None
        if not stop:
            split = best_split(X, y_node, spec.criterion, pick_candidates(), rows=idx)
        if split is None:
            node = _leaf_from_counts(counts)
        else:
            node = Internal(feature=split.feature, threshold=split.threshold)
            mask = X[idx, split.feature] <= split.threshold
            stack.append((idx[~mask], depth + 1, node, "R"))
            stack.append((idx[mask], depth + 1, node, "L"))
        if parent is None:
            root = node
        elif side == "L":
            parent.left = node
        else:
            parent.right = node
    assert root is not None
    return root


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
    root = grow_tree(X_arr, y_arr, spec, lambda: all_features)
    return DecisionTree(root=root, n_features=d, criterion=spec.criterion)


def predict_tree(tree: DecisionTree, x: Sequence[float]) -> Label:
    if len(x) != tree.n_features:
        raise DimensionMismatch(
            f"input has {len(x)} features, tree expects {tree.n_features}"
        )
    node = tree.root
    while isinstance(node, Internal):
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.label


def tree_depth(node: TreeNode) -> int:
    """Maximum edge count from this node down to a leaf."""
    depth = 0
    stack = [(node, 0)]
    while stack:
        current, level = stack.pop()
        depth = max(depth, level)
        if isinstance(current, Internal):
            stack.append((current.left, level + 1))
            stack.append((current.right, level + 1))
    return depth
