"""Random forest: bootstrapped CART trees with per-node feature sampling.

Each tree's PRNG stream derives from (seed, tree index), so trees could be
trained in parallel and still match serial training bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from stocksignals.classifiers.tree import (
    DecisionTree,
    as_training_arrays,
    grow_tree,
    predict_tree,
)
from stocksignals.errors import DimensionMismatch
from stocksignals.labels import Label, majority_label
from stocksignals.rng import SplitMix64, spawn_seed

if TYPE_CHECKING:
    from stocksignals.classifiers.base import ClassifierSpec


@dataclass
class ForestModel:
    trees: list[DecisionTree]
    tree_seeds: list[int]
    n_features: int
    mtry: int


def default_mtry(n_features: int) -> int:
    return max(1, math.isqrt(n_features))


def fit_random_forest(X, y, spec: "ClassifierSpec") -> ForestModel:
    """Fit spec.n_trees trees, each on a size-n bootstrap sample.

    Every node's split search is restricted to mtry features sampled without
    replacement (default floor(sqrt(d))). spec.bootstrap=False is a test
    hook that trains every tree on the full sample.
    """
    X_arr, y_arr = as_training_arrays(X, y)
    n, d = X_arr.shape
    mtry = spec.mtry if spec.mtry is not None else default_mtry(d)
    mtry = min(mtry, d)
    trees: list[DecisionTree] = []
    tree_seeds: list[int] = []
    for t in range(spec.n_trees):
        seed = spawn_seed(spec.seed, t)
        tree_seeds.append(seed)
        rng = SplitMix64(seed)
        if spec.bootstrap:
            sample = np.asarray(rng.bootstrap_indices(n), dtype=np.int64)
            X_t, y_t = X_arr[sample], y_arr[sample]
        else:
            X_t, y_t = X_arr, y_arr
        if mtry < d:
            pick = lambda: sorted(rng.sample_indices(d, mtry))  # noqa: E731
        else:
            all_features = tuple(range(d))
            pick = lambda: all_features  # noqa: E731
        root = grow_tree(X_t, y_t, spec, pick)
        trees.append(DecisionTree(root=root, n_features=d, criterion=spec.criterion))
    return ForestModel(trees=trees, tree_seeds=tree_seeds, n_features=d, mtry=mtry)


def predict_forest(forest: ForestModel, x: Sequence[float]) -> Label:
    """Majority vote across trees; ties resolve to Hold."""
    if len(x) != forest.n_features:
        raise DimensionMismatch(
            f"input has {len(x)} features, forest expects {forest.n_features}"
        )
    votes = [0, 0, 0]
    for tree in forest.trees:
        votes[int(predict_tree(tree, x))] += 1
    return majority_label(votes)
