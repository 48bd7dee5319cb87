"""k-nearest-neighbour voting on standardized features."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from stocksignals.errors import DimensionMismatch, EmptyTraining, KTooLarge
from stocksignals.labels import Label, majority_label


def knn_predict(train_X, train_y, x: Sequence[float], k: int) -> Label:
    """Vote of the k nearest training rows by Euclidean distance.

    Distance ties break toward the lower training index (stable sort on the
    squared distance, which orders identically); vote ties resolve to Hold.
    """
    X = np.asarray(train_X, dtype=float)
    n = len(X)
    if n == 0:
        raise EmptyTraining("no training rows")
    if k > n:
        raise KTooLarge(f"k={k} but only {n} training rows")
    probe = np.asarray(x, dtype=float)
    if probe.shape != (X.shape[1],):
        raise DimensionMismatch(
            f"input has {probe.size} features, training data has {X.shape[1]}"
        )
    squared = ((X - probe) ** 2).sum(axis=1)
    nearest = np.argsort(squared, kind="stable")[:k]
    votes = [0, 0, 0]
    for i in nearest:
        votes[int(train_y[i])] += 1
    return majority_label(votes)


@dataclass
class KnnModel:
    """Memorized training set plus k, matching the shared fit/predict shape."""

    train_X: np.ndarray
    train_y: np.ndarray
    k: int

    @property
    def n_features(self) -> int:
        return self.train_X.shape[1]

    def predict_one(self, x: Sequence[float]) -> Label:
        return knn_predict(self.train_X, self.train_y, x, self.k)


def fit_knn(X, y, k: int) -> KnnModel:
    X_arr = np.asarray(X, dtype=float)
    y_arr = np.asarray(y, dtype=np.int64)
    if len(X_arr) == 0:
        raise EmptyTraining("no training rows")
    if len(X_arr) != len(y_arr):
        raise DimensionMismatch(f"{len(X_arr)} feature rows vs {len(y_arr)} labels")
    if k > len(X_arr):
        raise KTooLarge(f"k={k} but only {len(X_arr)} training rows")
    return KnnModel(train_X=X_arr, train_y=y_arr, k=k)
