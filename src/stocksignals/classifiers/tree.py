"""CART decision tree with exhaustive midpoint threshold search.

Split rule: x[feature] <= threshold routes left. Thresholds sit at the
midpoints of consecutive distinct sorted values, and the chosen split
maximizes the weighted impurity decrease; ties break toward the lower
feature index, then the lower threshold. Growth stops on a pure node,
max_depth, min_samples_split, or when no split has a positive decrease.
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


def _impurity_rows(counts: np.ndarray, sizes: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity per row of a (m, 3) count matrix with row totals `sizes`."""
    p = counts / sizes[:, None]
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=1)
    logp = np.zeros_like(p)
    mask = p > 0
    logp[mask] = np.log2(p[mask])
    return -(p * logp).sum(axis=1)


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
) -> Split | None:
    """Best (feature, threshold) over the candidates, or None without gain."""
    n = len(y)
    parent_counts = np.bincount(y, minlength=N_CLASSES).astype(float)
    parent = float(_impurity_rows(parent_counts[None, :], np.array([float(n)]), criterion)[0])
    best: Split | None = None
    for feature in sorted(candidate_features):
        values = X[:, feature]
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        boundaries = np.nonzero(ordered[1:] > ordered[:-1])[0] + 1
        if boundaries.size == 0:
            continue
        onehot = np.zeros((n, N_CLASSES))
        onehot[np.arange(n), y[order]] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        left = prefix[boundaries - 1]
        right = parent_counts - left
        n_left = boundaries.astype(float)
        n_right = n - n_left
        weighted = (
            n_left * _impurity_rows(left, n_left, criterion)
            + n_right * _impurity_rows(right, n_right, criterion)
        ) / n
        gains = parent - weighted
        k = int(np.argmax(gains))  # first max -> lowest threshold
        gain = float(gains[k])
        if gain > 0.0 and (best is None or gain > best.gain):
            cut = boundaries[k]
            threshold = float((ordered[cut - 1] + ordered[cut]) / 2.0)
            best = Split(feature=feature, threshold=threshold, gain=gain)
    return best


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
    return Leaf(
        counts=(int(counts[0]), int(counts[1]), int(counts[2])),
        label=majority_label([int(c) for c in counts]),
    )


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
            int((counts > 0).sum()) <= 1
            or len(idx) < spec.min_samples_split
            or (spec.max_depth is not None and depth >= spec.max_depth)
        )
        split = None
        if not stop:
            split = best_split(X[idx], y_node, spec.criterion, pick_candidates())
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
