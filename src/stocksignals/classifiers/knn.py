"""k-nearest-neighbour voting on standardized features.

A fitted `KnnModel` holds the whole scaled training matrix of its fit and
one column of the (n, h) label matrix, -1 on the rows outside its training
set, so every horizon's model of one split shares the matrix. `knn_labels`
votes for several such label columns at once; a single model is the
one-column case. Probes go a block at a time: the squared distances from a
block of probes to all n training rows (about 2^17 of them) are computed
once, and the block is partitioned once for all columns.

Let U be the number of training rows that some column leaves unlabeled, and
k' = k + U. Horizon label sets are nested, so U is small (0 for a single
model). Of any probe's k' nearest rows at most U are unlabeled in a given
column, so each column's k nearest labeled rows lie among them. One
np.partition per block finds each probe's k'-th smallest distance; every
row at or below it, ties included, is a candidate, kept in training order.
Each column then chooses its k nearest from its own labeled candidates.
When 4 k' > n the candidates save little against the n rows, and the block
takes the per-column path instead: each column chooses from all its labeled
rows.

The squared distances are ((X - p) ** 2).sum(axis=-1) over (c, n, d)
difference blocks, the same pairwise sum over each probe's features as for a
single probe, so they are bit-identical to a one-probe-at-a-time
computation. Neighbours are selected without sorting: np.partition finds
each probe's k-th smallest distance, every row strictly nearer is taken,
and the remaining slots go to the lowest-index rows at exactly the k-th
distance. That is the neighbour set of a stable argsort of the distances:
equal distances prefer the lower training index. A NaN probe, whose
distances are all NaN, takes the distances 0, 1, ..., n - 1 instead, which
keep the training order a stable argsort leaves it in. Either path
therefore picks the same neighbours. Vote ties resolve to Hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stocksignals.labels import majority_labels

# float64 elements of one (c, n, d) difference block, and distances in one
# block of probes; larger blocks were slower, since memory traffic grows
# faster than per-call overhead shrinks
_BLOCK_ELEMENTS = 1 << 17

# the candidate path runs while _NARROW_SHARE * k' <= n; on a 1,959-row
# matrix with ten label columns it broke even with the per-column path near
# k' = n / 3, and its candidate arrays grow with k'
_NARROW_SHARE = 4


@dataclass
class KnnModel:
    """A training matrix, one label per row (-1: not a training row) and k.

    A fitted model's training rows are those its column labels; a saved
    model keeps only those rows. fit_classifier checks a fitted model and
    check_knn a loaded one, so each labels at least k rows, all finite.
    """

    train_X: np.ndarray
    train_y: np.ndarray
    k: int

    @property
    def n_features(self) -> int:
        return self.train_X.shape[1]


def check_knn(model: KnnModel) -> None:
    """Raise ValueError unless a loaded model holds an (n, d) matrix of finite
    floats, n integer labels in 0..2 and an integer k in 1..n."""
    X, y, k = model.train_X, model.train_y, model.k
    if not (
        X.ndim == 2
        and X.dtype.kind == "f"
        and np.isfinite(X).all()
        and y.shape == (len(X),)
        and y.dtype.kind == "i"
        and ((y >= 0) & (y <= 2)).all()
        and type(k) is int
        and 1 <= k <= len(X)
    ):
        raise ValueError(
            "a kNN model needs an (n, d) matrix of finite floats, n labels in 0..2 and k in 1..n"
        )


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
    """(c, n) mask of each row's k smallest entries, ties to the lower column.

    Every row holds at least k numbers, so its k-th smallest entry is a
    number and a NaN entry is never chosen.
    """
    kth = np.partition(squared, k - 1, axis=1)[:, k - 1 : k]
    below = squared < kth
    at_kth = squared == kth
    free = k - below.sum(axis=1, keepdims=True)
    # only rows with more entries at the k-th distance than free slots need the
    # lowest-index fill; every other row takes all of them
    crowded = np.flatnonzero(at_kth.sum(axis=1) > free[:, 0])
    at_kth[crowded] &= at_kth[crowded].cumsum(axis=1) <= free[crowded]
    return below | at_kth


def _column_votes(
    squared: np.ndarray, labeled: np.ndarray, one_hots: list[np.ndarray], k: int
) -> np.ndarray:
    """(c, h, 3) votes of each column's k nearest labeled rows, chosen from
    that column's rows of the whole (c, n) distance block."""
    votes = np.empty((len(squared), len(one_hots), 3))
    for j, one_hot in enumerate(one_hots):
        votes[:, j] = nearest_mask(squared[:, labeled[:, j]], k) @ one_hot
    return votes


def _candidate_votes(
    squared: np.ndarray, kth: np.ndarray, train_Y: np.ndarray, k: int
) -> np.ndarray:
    """(c, h, 3) votes of each column's k nearest labeled rows, chosen from
    each probe's candidates: the training rows at or below its distance kth.

    A probe's candidates fill its row of a (c, w) slot matrix in training
    order. Per column, a slot that is padding or unlabeled holds NaN, which
    nearest_mask never chooses, since each probe has k labeled candidates.
    """
    probe, row = np.nonzero(squared <= kth[:, None])
    counts = np.bincount(probe, minlength=len(squared))
    slot = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    distances = np.full((len(squared), counts.max()), np.nan)
    distances[probe, slot] = squared[probe, row]
    labels = np.full(distances.shape, -1)
    votes = np.empty((len(squared), train_Y.shape[1], 3))
    for j, column in enumerate(train_Y[row].T):
        labels[probe, slot] = column
        near = nearest_mask(np.where(labels >= 0, distances, np.nan), k)
        near_probe, near_slot = np.nonzero(near)
        votes[:, j] = np.bincount(
            3 * near_probe + labels[near_probe, near_slot], minlength=3 * len(squared)
        ).reshape(-1, 3)
    return votes


def knn_labels(train_X: np.ndarray, train_Y: np.ndarray, k: int, X: np.ndarray) -> np.ndarray:
    """(m, h) label values: column j is the vote of the k nearest training rows
    labeled in column j of the (n, h) train_Y (-1: not a training row there).

    Every column labels at least k rows, all finite, as fit_classifier and
    check_knn make sure.
    """
    labeled = train_Y >= 0
    one_hots = [np.eye(3)[column[rows]] for column, rows in zip(train_Y.T, labeled.T)]
    # k': k plus the rows some column leaves out, so that every column labels
    # at least k of any probe's k' nearest rows
    wide = k + int(np.count_nonzero(~labeled.all(axis=1)))
    narrow = wide * _NARROW_SHARE <= len(train_X)
    nan_probes = np.isnan(X).any(axis=1)
    block = max(1, _BLOCK_ELEMENTS // max(1, len(train_X)))
    votes = np.empty((len(X), len(one_hots), 3))
    for start in range(0, len(X), block):
        squared = squared_distances(train_X, X[start : start + block])
        # a NaN probe's distances, all NaN, become the training order that a
        # stable argsort leaves them in
        squared[nan_probes[start : start + block]] = np.arange(len(train_X))
        if narrow:
            # a copy, so that the partitioned block is freed at once
            kth = np.partition(squared, wide - 1, axis=1)[:, wide - 1].copy()
            votes[start : start + block] = _candidate_votes(squared, kth, train_Y, k)
        else:
            votes[start : start + block] = _column_votes(squared, labeled, one_hots, k)
    return majority_labels(votes.reshape(-1, 3)).reshape(len(X), len(one_hots))
