"""PCA feature ranking: eigendecomposition, contributions, weighted scores.

A feature makes a valid contribution to a principal component when the
absolute value of its loading is at least the threshold (default 0.1).
Contributions to the first n components (default 6) earn descending points
(default 6 down to 1); the per-feature point total is its weighted
occurrence and drives top-k selection.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from stocksignals.errors import KTooLarge, NumericError, TooFewRows, UsageError
# standardize_fit is not called here; bench/tracing.py patches it under this
# module's name to count scaler fits
from stocksignals.transform import (  # noqa: F401
    FEATURE_COLUMNS,
    Scaler,
    standardize_apply,
    standardize_fit,
)

logger = logging.getLogger(__name__)

DEFAULT_WEIGHTS: tuple[int, ...] = (6, 5, 4, 3, 2, 1)


@dataclass(frozen=True)
class RankConfig:
    n_components: int = 6
    contribution_threshold: float = 0.1
    weights: tuple[int, ...] = DEFAULT_WEIGHTS
    top_k: int = 6

    def __post_init__(self):
        if self.n_components < 1:
            raise UsageError("n_components must be >= 1")
        if not 0.0 < self.contribution_threshold <= 1.0:
            raise UsageError("contribution_threshold must be in (0, 1]")
        if len(self.weights) != self.n_components:
            raise UsageError("need one weight per component")
        if any(w <= 0 for w in self.weights):
            raise UsageError("weights must be positive")
        if sum(self.weights) >= 2**63:  # weighted occurrences are int64 sums
            raise UsageError("weights must sum to less than 2**63")
        for earlier, later in zip(self.weights, self.weights[1:]):
            if later >= earlier:
                raise UsageError("weights must be strictly decreasing")
        if self.top_k < 1:
            raise UsageError("top_k must be >= 1")


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending with aligned orthonormal column vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column j pairs with eigenvalues[j]


@dataclass(frozen=True)
class FeatureScore:
    feature: str
    occurrences: int
    weighted_occurrence: int


@dataclass(frozen=True)
class PcaRanking:
    used_features: tuple[str, ...]          # non-constant features fed to PCA
    explained_ratios: tuple[float, ...]
    cumulative_ratios: tuple[float, ...]
    scores: tuple[FeatureScore, ...]         # sorted by rank
    selected: tuple[str, ...]
    padded: bool


def covariance_matrix(X) -> np.ndarray:
    """Sample covariance (n-1 denominator) of standardized columns."""
    X_arr = np.asarray(X, dtype=float)
    n = len(X_arr)
    if n < 2:
        raise TooFewRows(f"need at least 2 rows for covariance, got {n}")
    centered = X_arr - X_arr.mean(axis=0)
    return centered.T @ centered / (n - 1)


def jacobi_eigen(A, tol: float = 1e-12, max_sweeps: int = 100) -> EigenDecomposition:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Sweeps rotate every (p, q) pivot in row order until the largest
    off-diagonal magnitude falls below tol. Eigenpairs come back sorted by
    descending eigenvalue, and each vector's first entry of meaningful size
    is made positive so reports are reproducible despite sign ambiguity.
    """
    work = np.array(A, dtype=float)
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise NumericError("matrix must be square")
    if np.abs(work - work.T).max(initial=0.0) > 1e-12:
        raise NumericError("matrix is not symmetric within 1e-12")
    d = work.shape[0]
    # row p of the buffer is row p of work beside column p of the
    # eigenvectors, so one row rotation turns both; a second turns the
    # columns of work
    buffer = np.hstack([work, np.eye(d)])
    work = buffer[:, :d]
    if d > 1:
        converged = False
        for _ in range(max_sweeps):
            off = np.abs(work - np.diag(np.diag(work))).max()
            if off < tol:
                converged = True
                break
            for p in range(d - 1):
                for q in range(p + 1, d):
                    apq = buffer.item(p, q)
                    if abs(apq) < tol / (d * d):
                        continue
                    theta = (buffer.item(q, q) - buffer.item(p, p)) / (2.0 * apq)
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                    c = 1.0 / math.sqrt(t * t + 1.0)
                    s = t * c
                    for lines in (buffer, work.T):
                        a, b = lines[p].copy(), lines[q].copy()
                        lines[p], lines[q] = c * a - s * b, s * a + c * b
                    work[p, q] = 0.0
                    work[q, p] = 0.0
        else:
            converged = np.abs(work - np.diag(np.diag(work))).max() < tol
        if not converged:
            raise NumericError(
                f"off-diagonal mass above {tol} after {max_sweeps} sweeps"
            )
    eigenvalues = np.diag(work).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = np.ascontiguousarray(buffer[:, d:].T[:, order])
    for j in range(d):
        column = vectors[:, j]
        nonzero = np.nonzero(np.abs(column) > 1e-12)[0]
        if nonzero.size and column[nonzero[0]] < 0:
            vectors[:, j] = -column
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=vectors)


def explained_variance(
    eigenvalues: Sequence[float],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-component variance ratios and their running sum."""
    values = np.asarray(eigenvalues, dtype=float)
    if values.size == 0:
        raise NumericError("no eigenvalues")
    if values.min() < -1e-9:
        raise NumericError(f"eigenvalue {values.min()} is too negative to clamp")
    values = np.clip(values, 0.0, None)
    total = float(values.sum())
    if total == 0.0:
        raise NumericError("eigenvalues sum to zero")
    ratios = values / total
    return tuple(ratios.tolist()), tuple(np.cumsum(ratios).tolist())


def contribution_scores(loadings, cfg: RankConfig = RankConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Per feature (row of loadings), its occurrences and weighted occurrence:
    how many of the first n_components components it validly contributes to
    (|loading| >= threshold), and the sum of those components' weights."""
    matrix = np.asarray(loadings, dtype=float)[:, : cfg.n_components]
    mask = np.abs(matrix) >= cfg.contribution_threshold
    weights = np.asarray(cfg.weights, dtype=np.int64)[: matrix.shape[1]]
    return mask.sum(axis=1), mask @ weights


def select_top_features(
    scores: Sequence[FeatureScore],
    top_k: int,
    canonical_order: Sequence[str] = FEATURE_COLUMNS,
) -> tuple[list[FeatureScore], list[str], bool]:
    """All scores ranked by weighted occurrence, and the top-k feature names.

    Ties break by occurrences, then canonical feature order. When fewer
    than top_k features scored above zero the tail is canonical-order
    padding and the returned flag is set.
    """
    if top_k > len(scores):
        raise KTooLarge(f"top_k={top_k} but only {len(scores)} features")
    position = {name: i for i, name in enumerate(canonical_order)}
    ranked = sorted(
        scores,
        key=lambda s: (
            -s.weighted_occurrence,
            -s.occurrences,
            position.get(s.feature, len(position)),
        ),
    )
    padded = sum(1 for s in scores if s.weighted_occurrence > 0) < top_k
    return ranked, [s.feature for s in ranked[:top_k]], padded


def rank_features(
    X_train,
    scaler: Scaler,
    feature_names: Sequence[str] = FEATURE_COLUMNS,
    cfg: RankConfig = RankConfig(),
) -> PcaRanking:
    """Full ranking pipeline on raw training features.

    Standardizes with `scaler`, the one fitted on these training rows (the
    split's), excludes constant features from the PCA input (they are
    reported unranked with score 0), and ranks the rest by weighted
    occurrence over the top components.
    """
    X_arr = np.asarray(X_train, dtype=float)
    if X_arr.ndim != 2:
        raise TooFewRows("need a 2-D matrix of training rows")
    names = tuple(feature_names)
    if X_arr.shape[1] != len(names):
        raise UsageError(
            f"{X_arr.shape[1]} columns but {len(names)} feature names"
        )
    usable = np.flatnonzero(scaler.stds > 0.0).tolist()
    if not usable:
        raise NumericError("every feature is constant")
    if len(usable) < len(names):
        constant = [names[i] for i in range(len(names)) if i not in usable]
        logger.warning("excluding constant features from PCA: %s", constant)
    standardized = standardize_apply(scaler, X_arr)[:, usable]
    covariance = covariance_matrix(standardized)
    eigen = jacobi_eigen(covariance)
    ratios, cumulative = explained_variance(eigen.eigenvalues)
    occurrences = np.zeros(len(names), dtype=np.int64)
    weighted = np.zeros(len(names), dtype=np.int64)
    occurrences[usable], weighted[usable] = contribution_scores(eigen.eigenvectors, cfg)
    scores = map(FeatureScore, names, occurrences.tolist(), weighted.tolist())
    ordered, selected, padded = select_top_features(list(scores), cfg.top_k, names)
    return PcaRanking(
        used_features=tuple(names[i] for i in usable),
        explained_ratios=ratios,
        cumulative_ratios=cumulative,
        scores=tuple(ordered),
        selected=tuple(selected),
        padded=padded,
    )
