"""k-nearest-neighbour voting on standardized features.

`knn_labels` predicts a whole probe matrix, a block of probes at a time
(about 2^17 float64 differences per block). The squared distances of a
(c, n, d) block are ((X - p) ** 2).sum(axis=-1), the same pairwise sum over
each probe's features as for a single probe, so they are bit-identical to a
one-probe-at-a-time computation. Neighbours are selected without sorting:
np.partition finds each probe's k-th smallest distance, every training row
strictly nearer is taken, and the remaining slots go to the lowest-index
rows at exactly the k-th distance. That is the neighbour set of a stable
argsort of the distances: equal distances prefer the lower training index,
and NaN distances (a NaN probe) rank after every number, inf included,
lowest index first. Each probe's votes are counted with one product against
the one-hot training labels; vote ties resolve to Hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stocksignals.classifiers.tree import as_training_arrays
from stocksignals.errors import EmptyTraining, KTooLarge
from stocksignals.labels import majority_labels

# float64 elements of one (c, n, d) difference block; larger blocks were
# slower, since memory traffic grows faster than per-call overhead shrinks
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
    """(c, n) squared Euclidean distances from each of c probes to the n training rows.

    The differences are squared in place (np.square is what `** 2` computes),
    so the block needs one (c, n, d) array rather than two.
    """
    diff = train_X - probes[:, None, :]
    return np.square(diff, out=diff).sum(axis=-1)


def nearest_mask(squared: np.ndarray, k: int) -> np.ndarray:
    """(c, n) mask of each row's k smallest entries, ties to the lower column, NaN last."""
    kth = np.partition(squared, k - 1, axis=1)[:, k - 1 : k]
    nan = np.isnan(squared)
    nan_kth = np.isnan(kth)
    # below a NaN k-th distance lies every number
    below = np.where(nan_kth, ~nan, squared < kth)
    at_kth = np.where(nan_kth, nan, squared == kth)
    free = k - below.sum(axis=1, keepdims=True)
    return below | (at_kth & (at_kth.cumsum(axis=1) <= free))


def knn_labels(model: KnnModel, X: np.ndarray) -> np.ndarray:
    """Label value of each row of X: the vote of its k nearest training rows."""
    train_X, k = model.train_X, model.k
    n = len(train_X)
    if n == 0:
        raise EmptyTraining("no training rows")
    if k > n:
        raise KTooLarge(f"k={k} but only {n} training rows")
    one_hot = np.eye(3)[model.train_y]
    chunk = max(1, _BLOCK_ELEMENTS // max(1, train_X.size))
    votes = np.empty((len(X), 3))
    for start in range(0, len(X), chunk):
        squared = squared_distances(train_X, X[start : start + chunk])
        votes[start : start + chunk] = nearest_mask(squared, k) @ one_hot
    return majority_labels(votes)
