"""k-nearest-neighbour voting on standardized features.

A fitted `KnnModel` holds the whole scaled training matrix of its fit and
one column of the (n, h) label matrix, -1 on the rows outside its training
set, so every horizon's model of one split shares the matrix. `knn_labels`
votes for several such label columns at once; a single model is the
one-column case. Probes go a block at a time, about 2^17 probe-row pairs.

Each block takes one exact path in four steps.

1. Screen. One matmul gives s = |p|^2 + |x|^2 - 2 p.x for every probe p and
   training row x, whose exact distance is e = ((x - p) ** 2).sum().
2. Candidates. A bounding set is a column's set of labeled rows that
   contains no other column's set, so every column's set contains one.
   Let K be the largest of a probe's k-th smallest s in each bounding set,
   and D = 8 (d + 4) (eps |p|^2 + eps max|x|^2 + tiny) for d features
   (eps and tiny of float64). Each dot product of d terms is off by at
   most gamma_d = d u / (1 - d u) of its absolute sum, u = eps / 2, in any
   summation order (Higham, Accuracy and Stability of Numerical
   Algorithms, 2002, ch. 3), and an underflow adds at most tiny per
   operation; so |s - e| < D when 4 (|p|^2 + max|x|^2), which bounds every
   e, is finite. The candidates are the rows with s <= K + 2 D. Every
   column labels a bounding set, at least k of whose rows have s <= K and
   so e <= K + D; its k nearest labeled rows, ties at its k-th distance
   included, then have e <= K + D and hence s <= K + 2 D: they are all
   candidates. Horizon labels are nested, so their one bounding
   set is the rows that every horizon labels.
3. Recheck. The candidates' exact distances are computed pair by pair, the
   same pairwise sum over each probe's features as for a single probe, so
   they are bit-identical to a one-probe-at-a-time computation.
4. Vote. Each probe's candidates are ordered by (distance, row), and each
   column takes its first k labeled ones: the neighbour set of a stable
   argsort of the distances, which puts NaN after every number.

A probe takes every row as a candidate when its bound is not finite (a NaN,
an infinite or an overflowing probe). Rows that no column labels are
dropped first; they are never chosen and may hold any value. Vote ties
resolve to Hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stocksignals.labels import majority_labels

# screened distances in one block of probes, and differences in one recheck
# block; larger blocks were slower, since memory traffic grows faster than
# per-call overhead shrinks
_BLOCK_ELEMENTS = 1 << 17


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


def exact_distances(
    train_X: np.ndarray, probes: np.ndarray, probe: np.ndarray, row: np.ndarray
) -> np.ndarray:
    """Squared distance of each pair (probes[probe[i]], train_X[row[i]]).

    Each is np.square(x - p).sum() over one contiguous row of d differences,
    the bits of ((train_X - p) ** 2).sum(axis=1); a block of about
    _BLOCK_ELEMENTS differences at a time, squared in place.
    """
    squared = np.empty(len(row))
    step = max(1, _BLOCK_ELEMENTS // max(1, train_X.shape[1]))
    for start in range(0, len(row), step):
        pairs = slice(start, start + step)
        diff = train_X[row[pairs]] - probes[probe[pairs]]
        np.square(diff, out=diff).sum(axis=-1, out=squared[pairs])
    return squared


def block_votes(
    train_X: np.ndarray, train_Y: np.ndarray, k: int, probes: np.ndarray, x_sq: np.ndarray,
    bounding: np.ndarray,
) -> np.ndarray:
    """(c, h, 3) votes of each column's k nearest labeled rows for a block of
    c probes; x_sq holds each training row's squared norm and bounding the
    (b, n) row masks of the bounding sets."""
    c, h = len(probes), train_Y.shape[1]
    p_sq = np.square(probes).sum(axis=1)
    screened = probes @ train_X.T
    screened *= -2.0
    screened += x_sq
    screened += p_sq[:, None]
    kth = -np.inf
    for rows in bounding:
        kept = screened[:, rows]
        kept.partition(k - 1, axis=1)
        kth = np.maximum(kth, kept[:, k - 1])  # a NaN stays NaN
    scale = p_sq + x_sq.max()
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    delta = 8 * (train_X.shape[1] + 4) * (eps * scale + tiny)
    near = screened <= (kth + 2 * delta)[:, None]
    near[~np.isfinite(4 * scale + kth)] = True
    probe, row = np.nonzero(near)
    order = np.lexsort((exact_distances(train_X, probes, probe, row), probe))
    probe, row = probe[order], row[order]
    labels = train_Y[row]
    labeled = labels >= 0
    # labeled candidates up to each one, counted from its probe's first
    taken = np.cumsum(labeled, axis=0, dtype=np.int32)
    first = np.searchsorted(probe, np.arange(c))
    taken -= (taken[first] - labeled[first])[probe]
    pick, column = np.nonzero(labeled & (taken <= k))
    slot = (probe[pick] * h + column) * 3 + labels[pick, column]
    return np.bincount(slot, minlength=c * h * 3).reshape(c, h, 3)


def knn_labels(train_X: np.ndarray, train_Y: np.ndarray, k: int, X: np.ndarray) -> np.ndarray:
    """(m, h) label values: column j is the vote of the k nearest training rows
    labeled in column j of the (n, h) train_Y (-1: not a training row there).

    Every column labels at least k rows, all finite, as fit_classifier and
    check_knn make sure.
    """
    used = (train_Y >= 0).any(axis=1)
    train_X, train_Y = train_X[used], train_Y[used]
    x_sq = np.square(train_X).sum(axis=1)
    # each distinct set of labeled rows once, keyed by its bytes: np.unique(axis=1) is far slower
    sets = np.array(list({rows.tobytes(): rows for rows in (train_Y >= 0).T}.values()))
    inside = (sets[:, None, :] <= sets[None, :, :]).all(axis=2)  # [i, j]: set i within set j
    bounding = sets[inside.sum(axis=0) == 1]
    block = max(1, _BLOCK_ELEMENTS // len(train_X))
    votes = np.empty((len(X), train_Y.shape[1], 3), dtype=np.int64)
    # a NaN, infinite or huge probe takes every row, and its sums may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(X), block):
            votes[start : start + block] = block_votes(
                train_X, train_Y, k, X[start : start + block], x_sq, bounding
            )
    return majority_labels(votes.reshape(-1, 3)).reshape(len(X), train_Y.shape[1])
