import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_contribution_scores, reference_jacobi_eigen

from stocksignals import pca
from stocksignals.errors import KTooLarge, NumericError, TooFewRows, UsageError
from stocksignals.pca import (
    FeatureScore,
    RankConfig,
    contribution_scores,
    covariance_matrix,
    explained_variance,
    jacobi_eigen,
    rank_features,
    select_top_features,
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
    with pytest.raises(NumericError, match="^matrix is not symmetric within 1e-12$"):
        jacobi_eigen([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NumericError, match="^matrix must be square$"):
        jacobi_eigen(np.ones((2, 3)))


def test_jacobi_no_convergence_with_tiny_budget():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(12, 12))
    A = (M + M.T) / 2.0
    with pytest.raises(NumericError, match="^off-diagonal mass above 1e-300 after 1 sweeps$"):
        jacobi_eigen(A, tol=1e-300, max_sweeps=1)


@st.composite
def symmetric_matrices(draw):
    """Symmetric d x d matrices, d 1-8, whose entries repeat and come near zero."""
    d = draw(st.integers(min_value=1, max_value=8))
    entry = st.sampled_from([0.0, 1e-300, -1e-15, 4e-13, 1.0, -1.0, 2.5]) | st.floats(
        min_value=-1e3, max_value=1e3, allow_nan=False
    )
    A = np.zeros((d, d))
    A[np.triu_indices(d)] = draw(st.lists(entry, min_size=d * (d + 1) // 2, max_size=d * (d + 1) // 2))
    return A + np.triu(A, 1).T


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices(), st.sampled_from([1, 2, 100]))
def test_jacobi_matches_the_three_plane_reference_bit_for_bit(A, max_sweeps):
    try:
        expected = reference_jacobi_eigen(A, max_sweeps=max_sweeps)
    except NumericError:
        with pytest.raises(NumericError, match="^off-diagonal mass above "):
            jacobi_eigen(A, max_sweeps=max_sweeps)
        return
    found = jacobi_eigen(A, max_sweeps=max_sweeps)
    assert found.eigenvalues.view(np.uint64).tolist() == expected.eigenvalues.view(np.uint64).tolist()
    assert found.eigenvectors.view(np.uint64).tolist() == expected.eigenvectors.view(np.uint64).tolist()


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
    with pytest.raises(NumericError, match="^eigenvalues sum to zero$"):
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

def _loadings(*components):
    """One loading row per set of 1-based components: 0.5 on them, 0.05 elsewhere."""
    return [[0.5 if j in valid else 0.05 for j in range(1, 7)] for valid in components]


def test_valid_contribution_threshold_inclusive_and_absolute():
    occurrences, weighted = contribution_scores([[0.1, -0.5, 0.099, 0.0, 0.2, 0.3]])
    assert occurrences.tolist() == [4]  # components 1, 2, 5 and 6
    assert weighted.tolist() == [6 + 5 + 2 + 1]


def test_weighted_occurrences_table_rows():
    occurrences, weighted = contribution_scores(
        _loadings({1, 2, 3, 4, 5}, {1, 2, 3, 5}, set(), {6})
    )
    assert occurrences.tolist() == [5, 4, 0, 1]
    assert weighted.tolist() == [20, 17, 0, 1]


def test_weighted_occurrence_monotone_in_contributions():
    (small, large), (small_weight, large_weight) = contribution_scores(
        _loadings({2, 4}, {1, 2, 4})
    )
    assert large == small + 1
    assert large_weight > small_weight


@st.composite
def loading_inputs(draw):
    """A loading matrix with entries on and around the thresholds drawn, and
    a RankConfig whose n_components may exceed its columns."""
    rows, columns = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    cells = st.sampled_from([0.0, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0]) | st.floats(-1.0, 1.0)
    loadings = draw(st.lists(st.lists(cells, min_size=columns, max_size=columns),
                             min_size=rows, max_size=rows))
    n_components = draw(st.integers(1, 10))
    cfg = RankConfig(
        n_components=n_components,
        contribution_threshold=draw(st.sampled_from([0.1, 0.5, 1.0]) | st.floats(0.01, 1.0)),
        weights=tuple(range(2 * n_components, 0, -2)),
    )
    return loadings, cfg


@settings(max_examples=300, deadline=None)
@given(loading_inputs())
def test_contribution_scores_match_the_per_feature_set_reference(case):
    loadings, cfg = case
    names = [f"f{i}" for i in range(len(loadings))]
    occurrences, weighted = contribution_scores(loadings, cfg)
    expected = reference_contribution_scores(loadings, names, names, cfg)
    assert occurrences.tolist() == [occ for _, occ, _ in expected]
    assert weighted.tolist() == [w for _, _, w in expected]


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


@pytest.mark.parametrize(
    "weights", [(10**30, 5, 4, 3, 2, 1), (2**62, 2**62 - 1, 4, 3, 2, 1)], ids=["huge", "sum"]
)
def test_weights_that_an_int64_sum_cannot_hold_are_a_usage_error(weights):
    with pytest.raises(UsageError, match=r"weights must sum to less than 2\*\*63"):
        RankConfig(weights=weights)


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


@st.composite
def ranking_inputs(draw):
    """A raw training matrix with some constant columns, and a RankConfig
    whose n_components may exceed the number of non-constant columns."""
    n = draw(st.integers(2, 20))
    d = draw(st.integers(1, 8))
    cells = st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3)
    X = np.array(draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=n, max_size=n)))
    for j in draw(st.sets(st.integers(0, d - 1), max_size=d - 1)):
        X[:, j] = X[0, j]
    n_components = draw(st.integers(1, 10))
    weights = draw(
        st.lists(st.integers(1, 40), min_size=n_components, max_size=n_components, unique=True)
    )
    cfg = RankConfig(
        n_components=n_components,
        contribution_threshold=draw(st.sampled_from([0.1, 0.5, 1.0]) | st.floats(0.01, 1.0)),
        weights=tuple(sorted(weights, reverse=True)),
        top_k=draw(st.integers(1, d)),
    )
    return X, cfg


@settings(max_examples=300, deadline=None)
@given(ranking_inputs())
@example((np.array([[1.0, 5.0, 0.0], [2.0, 5.0, 1.0], [4.0, 5.0, -1.0]]), RankConfig(top_k=3)))
def test_rank_features_matches_the_per_feature_set_reference(case):
    """Scores, order, selection and padding flag against the per-feature
    frozenset scoring, on the eigenvectors rank_features itself computed."""
    X, cfg = case
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    scaler = standardize_fit(X)
    if not (scaler.stds > 0.0).any():
        with pytest.raises(NumericError, match="^every feature is constant$"):
            rank_features(X, scaler, names, cfg)
        return
    seen = []

    def capturing(A):
        seen.append(jacobi_eigen(A))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pca, "jacobi_eigen", capturing)
        ranking = rank_features(X, scaler, names, cfg)
    used = tuple(names[j] for j in np.flatnonzero(scaler.stds > 0.0))
    expected = reference_contribution_scores(seen[0].eigenvectors, used, names, cfg)
    expected.sort(key=lambda s: (-s[2], -s[1], names.index(s[0])))
    assert ranking.used_features == used
    scores = [(s.feature, s.occurrences, s.weighted_occurrence) for s in ranking.scores]
    assert scores == expected
    assert all(type(s.occurrences) is type(s.weighted_occurrence) is int for s in ranking.scores)
    assert ranking.selected == tuple(name for name, _, _ in expected[: cfg.top_k])
    assert ranking.padded == (sum(w > 0 for _, _, w in expected) < cfg.top_k)
