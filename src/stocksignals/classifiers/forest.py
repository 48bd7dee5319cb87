"""Random forest: bootstrapped CART trees with per-node feature sampling.

Each tree's PRNG stream derives from (seed, tree index): it draws the
tree's bootstrap sample, then the candidate features of each node the tree
searches, in preorder. `fit_forests` fits one forest per label column, and
all trees of all its forests grow together in `grow_trees`, each on the
distinct rows of its bootstrap sample weighted by their draw counts. Only
the nodes a tree searches draw features; children that are pure, too
small or at max_depth become leaves at their parent without a draw, and
the tree pops its nodes to search in preorder, so the draws follow the
same sequence as in a tree grown alone. A step asks for the next draw of
every tree with a node to search. Draws are made for many trees at once
from the closed form of SplitMix64 outputs, and a tree whose draw lands in
`below`'s rejection zone continues from there on its own scalar generator,
so every tree matches one grown alone bit for bit. With mtry >= d no
feature is drawn and the trees grow breadth first, a level per step.
`forest_labels` walks the whole probe matrix down each tree and counts the
trees' votes per probe; vote ties resolve to Hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from stocksignals.classifiers.tree import DecisionTree, grow_trees, tree_labels
from stocksignals.labels import majority_labels
from stocksignals.rng import SplitMix64, draws_below, spawn_seed

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

    Tree t = j * n_trees + i belongs to label column j and draws from
    SplitMix64(tree_seeds[i]): first its bootstrap sample of column j's rows,
    then `sorted(sample_indices(d, mtry))` for each node it searches. The
    draws of many trees are vectorised; a tree with a draw in `below`'s
    rejection zone switches to its scalar generator, from where it stands.
    """

    def __init__(self, tree_seeds: list[int], Y: np.ndarray, d: int, mtry: int, bootstrap: bool):
        self.tree_seeds = tree_seeds
        self.Y = Y
        self.d = d
        self.mtry = mtry
        self.bootstrap = bootstrap
        self.seeds = np.tile(np.array(tree_seeds, dtype=np.uint64), Y.shape[1])
        labeled = (Y >= 0).sum(axis=0) if bootstrap else np.zeros(Y.shape[1], dtype=np.int64)
        self.drawn = np.repeat(labeled, len(tree_seeds))  # outputs each tree has drawn
        self.scalar: dict[int, SplitMix64] = {}  # tree -> its generator, once a draw was rejected

    def roots(self) -> Iterator[np.ndarray]:
        """Each tree's root rows, in tree order."""
        for j, column in enumerate(self.Y.T):
            rows = np.flatnonzero(column >= 0)
            if not self.bootstrap:
                yield from [rows] * len(self.tree_seeds)
                continue
            n = len(rows)
            picks, ok = draws_below(self.tree_seeds, 0, np.full(n, n))
            for i in np.flatnonzero(~ok).tolist():
                rng = self.scalar[j * len(self.tree_seeds) + i] = SplitMix64(self.tree_seeds[i])
                picks[i] = rng.bootstrap_indices(n)
            yield from rows[picks]

    def __call__(self, trees: np.ndarray) -> np.ndarray:
        """(len(trees), mtry) sorted candidate features of each tree's next searched node."""
        d, mtry = self.d, self.mtry
        offsets, ok = draws_below(self.seeds[trees], self.drawn[trees], d - np.arange(mtry))
        # partial Fisher-Yates, as sample_indices does, on every tree at once
        pool = np.tile(np.arange(d), (len(trees), 1))
        each = np.arange(len(trees))
        for i in range(mtry):
            j = i + offsets[:, i]
            pool[each, i], pool[each, j] = pool[each, j], pool[each, i]
        picked = pool[:, :mtry]
        if self.scalar or not ok.all():
            for s, t in enumerate(trees.tolist()):
                if t not in self.scalar:
                    if ok[s]:
                        continue
                    self.scalar[t] = SplitMix64.after(int(self.seeds[t]), int(self.drawn[t]))
                picked[s] = self.scalar[t].sample_indices(d, mtry)
        self.drawn[trees] += mtry
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
    tree_seeds = [spawn_seed(spec.seed, t) for t in range(spec.n_trees)]
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
