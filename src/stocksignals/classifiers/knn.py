"""k-nearest-neighbour voting on standardized features.

`knn_labels` votes for several label columns at once. Each column of the
(n, h) training labels marks, with -1, the training rows outside that
column's training set, as each horizon's unlabeled rows are; a single model
is the one-column case. Probes go a block at a time: the squared distances
from a block of probes to all n training rows (about 2^17 of them) are
computed once, and every column selects its own training rows from that
block, in training order, before choosing neighbours.

The squared distances are ((X - p) ** 2).sum(axis=-1) over (c, n, d)
difference blocks, the same pairwise sum over each probe's features as for a
single probe, so they are bit-identical to a one-probe-at-a-time
computation. Neighbours are selected without sorting: np.partition finds
each probe's k-th smallest distance, every training row strictly nearer is
taken, and the remaining slots go to the lowest-index rows at exactly the
k-th distance. That is the neighbour set of a stable argsort of the
distances: equal distances prefer the lower training index, and NaN
distances (a NaN probe) rank after every number, inf included, lowest index
first. Each probe's votes are counted with one product against the one-hot
training labels; vote ties resolve to Hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stocksignals.classifiers.tree import as_training_arrays
from stocksignals.errors import DataError, EmptyTraining, KTooLarge
from stocksignals.labels import majority_labels

# float64 elements of one (c, n, d) difference block, and distances in one
# block of probes; larger blocks were slower, since memory traffic grows
# faster than per-call overhead shrinks
_BLOCK_ELEMENTS = 1 << 17


@dataclass
class KnnModel:
    """Memorized training set plus k, matching the shared fit/predict shape."""

    train_X: np.ndarray
    train_y: np.ndarray
    k: int

    @property
    def n_features(self) -> int:
        return self.train_X.shape[1]


def fit_knn(X, y, k: int) -> KnnModel:
    X_arr, y_arr = as_training_arrays(X, y)
    if k > len(X_arr):
        raise KTooLarge(f"k={k} but only {len(X_arr)} training rows")
    return KnnModel(train_X=X_arr, train_y=y_arr, k=k)


def squared_distances(train_X: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """(m, n) squared Euclidean distances from each of m probes to the n training rows.

    Computed a (c, n, d) difference block of about _BLOCK_ELEMENTS at a time;
    the differences are squared in place (np.square is what `** 2` computes),
    so a block needs one (c, n, d) array rather than two.
    """
    squared = np.empty((len(probes), len(train_X)))
    chunk = max(1, _BLOCK_ELEMENTS // max(1, train_X.size))
    for start in range(0, len(probes), chunk):
        diff = train_X - probes[start : start + chunk, None, :]
        np.square(diff, out=diff).sum(axis=-1, out=squared[start : start + chunk])
    return squared


def nearest_mask(squared: np.ndarray, k: int) -> np.ndarray:
    """(c, n) mask of each row's k smallest entries, ties to the lower column, NaN last."""
    kth = np.partition(squared, k - 1, axis=1)[:, k - 1 : k]
    nan = np.isnan(squared)
    nan_kth = np.isnan(kth)
    # below a NaN k-th distance lies every number
    below = np.where(nan_kth, ~nan, squared < kth)
    at_kth = np.where(nan_kth, nan, squared == kth)
    free = k - below.sum(axis=1, keepdims=True)
    # only rows with more entries at the k-th distance than free slots need the
    # lowest-index fill; every other row takes all of them
    crowded = np.flatnonzero(at_kth.sum(axis=1) > free[:, 0])
    at_kth[crowded] &= at_kth[crowded].cumsum(axis=1) <= free[crowded]
    return below | at_kth


def knn_labels(train_X: np.ndarray, train_Y: np.ndarray, k: int, X: np.ndarray) -> np.ndarray:
    """(m, h) label values: column j is the vote of the k nearest training rows
    labeled in column j of the (n, h) train_Y (-1: not a training row there).

    Each column's rows are checked, in column order, as fit_knn checks a
    training set: none (EmptyTraining), a non-finite row (DataError) or
    fewer than k (KTooLarge).
    """
    labeled = train_Y >= 0
    finite = np.isfinite(train_X).all(axis=1)
    one_hots = []
    for column, rows in zip(train_Y.T, labeled.T):
        count = int(rows.sum())
        if count == 0:
            raise EmptyTraining("no training rows")
        if not finite[rows].all():
            raise DataError("features must be finite")
        if k > count:
            raise KTooLarge(f"k={k} but only {count} training rows")
        one_hots.append(np.eye(3)[column[rows]])
    block = max(1, _BLOCK_ELEMENTS // max(1, len(train_X)))
    votes = np.empty((len(X), len(one_hots), 3))
    for start in range(0, len(X), block):
        squared = squared_distances(train_X, X[start : start + block])
        for j, one_hot in enumerate(one_hots):
            votes[start : start + block, j] = nearest_mask(squared[:, labeled[:, j]], k) @ one_hot
    return majority_labels(votes.reshape(-1, 3)).reshape(len(X), len(one_hots))
