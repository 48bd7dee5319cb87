"""Random forest: bootstrapped CART trees with per-node feature sampling.

Each tree's PRNG stream derives from (seed, tree index), so trees could be
trained in parallel and still match serial training bit for bit.
`forest_labels` walks the whole probe matrix down each tree and counts the
trees' votes per probe; vote ties resolve to Hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from stocksignals.classifiers.tree import (
    DecisionTree,
    as_training_arrays,
    grow_tree,
    tree_labels,
)
from stocksignals.labels import majority_labels
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
    replacement (default floor(sqrt(d))). Trees index the shared matrix
    through their sample's rows. spec.bootstrap=False is a test hook that
    trains every tree on the full sample.
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
            rows = np.asarray(rng.bootstrap_indices(n), dtype=np.int64)
        else:
            rows = np.arange(n)
        if mtry < d:
            pick = lambda: sorted(rng.sample_indices(d, mtry))  # noqa: E731
        else:
            all_features = tuple(range(d))
            pick = lambda: all_features  # noqa: E731
        trees.append(grow_tree(X_arr, y_arr, rows, spec, pick))
    return ForestModel(trees=trees, tree_seeds=tree_seeds, n_features=d, mtry=mtry)


def forest_labels(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """Label value of each row of X: the majority of the trees' labels."""
    votes = np.zeros((len(X), 3))
    rows = np.arange(len(X))
    for tree in forest.trees:
        votes[rows, tree_labels(tree, X)] += 1
    return majority_labels(votes)
