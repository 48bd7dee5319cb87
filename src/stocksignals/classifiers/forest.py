"""Random forest: bootstrapped CART trees with per-node feature sampling.

Tree t draws from the SplitMix64 stream seeded with output t of the stream
of the forest's seed: it draws the tree's bootstrap sample, then the
candidate features of each node the tree searches, in preorder.
`fit_forests` fits one forest per label column, and all trees of all its
forests grow together in `grow_trees`, each on the distinct rows of its
bootstrap sample weighted by their draw counts. Only the nodes a tree
searches draw features; children that are pure, too small or at max_depth
become leaves at their parent without a draw, and the tree pops its nodes
to search in preorder, so the draws follow the same sequence as in a tree
grown alone. A step asks for the next draw of every tree with a node to
search, and `rng.sample_indices` makes the draws of all those trees at
once, each from where its stream stands, so every tree matches one grown
alone bit for bit. With mtry >= d no feature is drawn and the trees grow
breadth first, a level per step. `forest_labels` walks the whole probe
matrix down each tree and counts the trees' votes per probe; vote ties
resolve to Hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from stocksignals.classifiers.tree import DecisionTree, grow_trees, tree_labels
from stocksignals.labels import majority_labels
from stocksignals.rng import draws_below, outputs, sample_indices

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


class _TreeStreams:
    """The SplitMix64 streams of every tree of every forest, drawn in lockstep.

    Tree t = j * n_trees + i belongs to label column j and draws from the
    stream of tree_seeds[i]: first its bootstrap sample of column j's rows,
    then the mtry sorted features of `rng.sample_indices` for each node it
    searches.
    """

    def __init__(self, tree_seeds: list[int], Y: np.ndarray, d: int, mtry: int, bootstrap: bool):
        self.tree_seeds = tree_seeds
        self.Y = Y
        self.d = d
        self.mtry = mtry
        self.bootstrap = bootstrap
        self.seeds = np.tile(np.array(tree_seeds, dtype=np.uint64), Y.shape[1])
        self.drawn = np.zeros(len(self.seeds), dtype=np.int64)  # outputs each tree has drawn

    def roots(self) -> Iterator[np.ndarray]:
        """Each tree's root rows, in tree order."""
        n_trees = len(self.tree_seeds)
        for j, column in enumerate(self.Y.T):
            rows = np.flatnonzero(column >= 0)
            if not self.bootstrap:
                yield from [rows] * n_trees
                continue
            n = len(rows)
            picks, used = draws_below(self.tree_seeds, 0, np.full(n, n))
            self.drawn[j * n_trees : (j + 1) * n_trees] = used
            yield from rows[picks]

    def __call__(self, trees: np.ndarray) -> np.ndarray:
        """(len(trees), mtry) sorted candidate features of each tree's next searched node."""
        picked, used = sample_indices(self.seeds[trees], self.drawn[trees], self.d, self.mtry)
        self.drawn[trees] += used
        return np.sort(picked, axis=1)


def fit_forests(X: np.ndarray, Y: np.ndarray, spec: "ClassifierSpec") -> list[ForestModel]:
    """One forest of spec.n_trees trees per column of the validated (n, h)
    label matrix Y, each grown on the rows its column labels (-1: not a
    training row there).

    Every node's split search is restricted to mtry features sampled without
    replacement (default floor(sqrt(d))). A tree trains on a size-n bootstrap
    sample of its column's n rows, which indexes the shared matrix.
    spec.bootstrap=False is a test hook that trains every tree on all of them.
    """
    d = X.shape[1]
    mtry = spec.mtry if spec.mtry is not None else default_mtry(d)
    mtry = min(mtry, d)
    tree_seeds = outputs([spec.seed % 2**64], 0, spec.n_trees)[0].tolist()
    streams = _TreeStreams(tree_seeds, Y, d, mtry, spec.bootstrap)
    columns = np.repeat(np.arange(Y.shape[1]), spec.n_trees)
    trees = grow_trees(X, Y, columns, streams.roots(), spec, streams if mtry < d else None)
    return [
        ForestModel(
            trees=trees[start : start + spec.n_trees],
            tree_seeds=list(tree_seeds),
            n_features=d,
            mtry=mtry,
        )
        for start in range(0, len(trees), spec.n_trees)
    ]


def forest_labels(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """Label value of each row of X: the majority of the trees' labels."""
    votes = np.zeros((len(X), 3))
    rows = np.arange(len(X))
    for tree in forest.trees:
        votes[rows, tree_labels(tree, X)] += 1
    return majority_labels(votes)
