import math

import numpy as np
import pytest

from stocksignals.errors import (
    KTooLarge,
    NoConvergence,
    NotSymmetric,
    TooFewRows,
    UsageError,
    ZeroTotalVariance,
)
from stocksignals.pca import (
    FeatureScore,
    RankConfig,
    covariance_matrix,
    explained_variance,
    jacobi_eigen,
    rank_features,
    select_top_features,
    valid_contributions,
    weighted_occurrences,
)
from stocksignals.transform import standardize_apply, standardize_fit


def _standardize(X):
    scaler = standardize_fit(X)
    return standardize_apply(scaler, X)


# --- covariance -----------------------------------------------------------------

def test_covariance_perfectly_correlated_columns():
    base = np.linspace(-3.0, 3.0, 20)
    X = _standardize(np.column_stack([base, 2.0 * base + 1.0]).tolist())
    cov = covariance_matrix(X)
    assert cov[0, 1] == pytest.approx(1.0, abs=1e-9)
    assert cov[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_covariance_sign_pattern_identity():
    X = [[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]
    scaled = _standardize(X)
    cov = covariance_matrix(scaled)
    assert np.allclose(cov, np.eye(2), atol=1e-12)


def test_covariance_independent_columns_near_zero():
    rng = np.random.default_rng(0)
    X = _standardize(rng.normal(size=(4000, 3)).tolist())
    cov = covariance_matrix(X)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 0.1
    assert np.allclose(np.diag(cov), 1.0, atol=1e-9)


def test_covariance_too_few_rows():
    with pytest.raises(TooFewRows):
        covariance_matrix([[1.0, 2.0]])


# --- jacobi ---------------------------------------------------------------------

def test_jacobi_two_by_two_hand_values():
    eig = jacobi_eigen([[2.0, 1.0], [1.0, 2.0]])
    assert eig.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-12)
    r = 1.0 / math.sqrt(2.0)
    assert eig.eigenvectors[:, 0] == pytest.approx([r, r], abs=1e-12)
    assert eig.eigenvectors[:, 1] == pytest.approx([r, -r], abs=1e-12)


def test_jacobi_identity_no_rotation():
    eig = jacobi_eigen(np.eye(4))
    assert eig.eigenvalues == pytest.approx([1.0] * 4)
    assert np.allclose(eig.eigenvectors, np.eye(4))


def test_jacobi_diagonal_sorted():
    eig = jacobi_eigen(np.diag([5.0, 2.0, 1.0]))
    assert list(eig.eigenvalues) == [5.0, 2.0, 1.0]
    assert np.allclose(eig.eigenvectors, np.eye(3))
    shuffled = jacobi_eigen(np.diag([2.0, 5.0, 1.0]))
    assert list(shuffled.eigenvalues) == [5.0, 2.0, 1.0]
    assert np.allclose(shuffled.eigenvectors[:, 0], [0.0, 1.0, 0.0])


def test_jacobi_random_reconstruction_properties():
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = int(rng.integers(2, 29))
        M = rng.normal(size=(d, d))
        A = (M + M.T) / 2.0
        eig = jacobi_eigen(A)
        V, lam = eig.eigenvectors, eig.eigenvalues
        assert np.abs(V @ np.diag(lam) @ V.T - A).max() < 1e-8
        assert np.abs(V.T @ V - np.eye(d)).max() < 1e-9
        assert abs(lam.sum() - np.trace(A)) < 1e-9
        assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_jacobi_sign_convention():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(6, 6))
    A = (M + M.T) / 2.0
    eig = jacobi_eigen(A)
    for j in range(6):
        column = eig.eigenvectors[:, j]
        first = column[np.abs(column) > 1e-12][0]
        assert first > 0


def test_jacobi_not_symmetric():
    with pytest.raises(NotSymmetric):
        jacobi_eigen([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        jacobi_eigen(np.ones((2, 3)))


def test_jacobi_no_convergence_with_tiny_budget():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(12, 12))
    A = (M + M.T) / 2.0
    with pytest.raises(NoConvergence):
        jacobi_eigen(A, tol=1e-300, max_sweeps=1)


# --- explained variance ------------------------------------------------------------

def test_explained_variance_values():
    ratios, cumulative = explained_variance([3.0, 1.0])
    assert ratios == (0.75, 0.25)
    assert cumulative == (0.75, 1.0)
    assert explained_variance([4.2])[0] == (1.0,)


def test_explained_variance_clamps_tiny_negative():
    ratios, _ = explained_variance([2.0, -1e-12])
    assert ratios == (1.0, 0.0)


def test_explained_variance_zero_total():
    with pytest.raises(ZeroTotalVariance):
        explained_variance([0.0, 0.0])


def test_explained_variance_sums_to_one():
    rng = np.random.default_rng(4)
    for _ in range(20):
        values = rng.uniform(0.0, 10.0, size=int(rng.integers(1, 28)))
        ratios, cumulative = explained_variance(values)
        assert abs(sum(ratios) - 1.0) < 1e-12
        assert cumulative[-1] == pytest.approx(1.0, abs=1e-12)
        assert all(r >= 0.0 for r in ratios)


# --- contributions and scoring ------------------------------------------------------

def test_valid_contribution_threshold_inclusive_and_absolute():
    loadings = [[0.1, -0.5, 0.099, 0.0, 0.2, 0.3]]
    sets = valid_contributions(loadings)
    assert sets[0] == frozenset({1, 2, 5, 6})


def test_weighted_occurrences_table_rows():
    sets = [
        frozenset({1, 2, 3, 4, 5}),
        frozenset({1, 2, 3, 5}),
        frozenset(),
        frozenset({6}),
    ]
    scores = weighted_occurrences(sets, ["hold_recs", "buy_recs", "nothing", "tail"])
    assert (scores[0].occurrences, scores[0].weighted_occurrence) == (5, 20)
    assert (scores[1].occurrences, scores[1].weighted_occurrence) == (4, 17)
    assert (scores[2].occurrences, scores[2].weighted_occurrence) == (0, 0)
    assert (scores[3].occurrences, scores[3].weighted_occurrence) == (1, 1)


def test_weighted_occurrence_monotone_in_contributions():
    base = frozenset({2, 4})
    bigger = base | {1}
    names = ["a", "b"]
    small, large = weighted_occurrences([base, bigger], names)
    assert large.occurrences == small.occurrences + 1
    assert large.weighted_occurrence > small.weighted_occurrence


def test_select_top_features_order_and_ties():
    scores = [
        FeatureScore("a", 3, 11),
        FeatureScore("b", 2, 11),
        FeatureScore("c", 5, 20),
        FeatureScore("d", 0, 0),
    ]
    names = ["a", "b", "c", "d"]
    ranked, selected, padded = select_top_features(scores, 3, names)
    assert [s.feature for s in ranked] == ["c", "a", "b", "d"]
    assert selected == ["c", "a", "b"]
    assert not padded
    _, everything, padded = select_top_features(scores, 4, names)
    assert everything == ["c", "a", "b", "d"]
    assert padded  # d scored zero, so the tail is canonical padding
    # equal scores fall back to canonical order
    tied = [FeatureScore("b", 1, 2), FeatureScore("a", 1, 2)]
    assert select_top_features(tied, 1, names)[1] == ["a"]
    with pytest.raises(KTooLarge):
        select_top_features(scores, 5, names)


def test_rank_config_validation():
    with pytest.raises(UsageError):
        RankConfig(weights=(6, 5, 4, 3, 2))
    with pytest.raises(UsageError):
        RankConfig(weights=(1, 2, 3, 4, 5, 6))
    with pytest.raises(UsageError):
        RankConfig(contribution_threshold=0.0)


# --- end-to-end ranking ---------------------------------------------------------------

def _block_dataset(n=400, seed=5):
    """Two correlated 3-feature blocks plus noise columns and one constant."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    v = rng.normal(size=n)
    columns = [
        u + 0.05 * rng.normal(size=n),
        u + 0.05 * rng.normal(size=n),
        u + 0.05 * rng.normal(size=n),
        v + 0.05 * rng.normal(size=n),
        v + 0.05 * rng.normal(size=n),
        v + 0.05 * rng.normal(size=n),
        rng.normal(size=n),
        rng.normal(size=n),
        np.zeros(n),  # constant
    ]
    names = [f"f{i}" for i in range(9)]
    return np.column_stack(columns), names


def test_rank_features_excludes_constant_and_selects_blocks():
    X, names = _block_dataset()
    ranking = rank_features(X, standardize_fit(X), names, RankConfig(top_k=6))
    assert "f8" not in ranking.used_features
    constant_score = next(s for s in ranking.scores if s.feature == "f8")
    assert constant_score.weighted_occurrence == 0
    # block members dominate the selection
    assert set(ranking.selected) <= {f"f{i}" for i in range(8)}
    block = {f"f{i}" for i in range(6)}
    assert len(block & set(ranking.selected)) >= 4
    assert len(ranking.selected) == 6
    assert not ranking.padded
    assert len(ranking.explained_ratios) == len(ranking.used_features)


def test_rank_features_deterministic():
    X, names = _block_dataset(seed=9)
    a = rank_features(X, standardize_fit(X), names)
    b = rank_features(X, standardize_fit(X), names)
    assert a == b


def test_rank_features_padding_flag():
    rng = np.random.default_rng(6)
    # one dominant direction: later components have near-zero loadings spread
    base = rng.normal(size=200)
    X = np.column_stack([base + 1e-6 * rng.normal(size=200) for _ in range(4)])
    names = ["a", "b", "c", "d"]
    cfg = RankConfig(n_components=4, weights=(4, 3, 2, 1), top_k=4)
    ranking = rank_features(X, standardize_fit(X), names, cfg)
    assert len(ranking.selected) == 4
