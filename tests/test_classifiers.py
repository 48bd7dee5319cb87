import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_best_split,
    entropy_impurity,
    gaussian_log_posterior,
    gini_impurity,
    reference_best_split,
)

from stocksignals.classifiers import (
    ClassifierSpec,
    ForestModel,
    Internal,
    Leaf,
    best_split,
    class_log_scores,
    fit_decision_tree,
    fit_gaussian_nb,
    fit_random_forest,
    knn_predict,
    predict_forest,
    predict_gaussian_nb,
    predict_tree,
)
from stocksignals.classifiers.tree import DecisionTree, tree_depth
from stocksignals.errors import (
    DimensionMismatch,
    EmptyTraining,
    KTooLarge,
    UsageError,
)
from stocksignals.labels import Label

TREE = ClassifierSpec(kind="decision_tree")


def predict_tree_batch(tree, X):
    return [predict_tree(tree, row) for row in X]


# --- impurities ----------------------------------------------------------------

def test_gini_values():
    assert gini_impurity((10, 0, 0)) == 0.0
    assert gini_impurity((1, 1, 1)) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert gini_impurity((2, 1, 1)) == pytest.approx(0.625, abs=1e-15)


def test_entropy_values():
    assert entropy_impurity((5, 0, 0)) == 0.0
    assert entropy_impurity((1, 1, 1)) == pytest.approx(math.log2(3.0), abs=1e-12)
    assert entropy_impurity((1, 1, 0)) == pytest.approx(1.0, abs=1e-15)


def test_impurity_empty_node():
    with pytest.raises(ValueError):
        gini_impurity((0, 0, 0))
    with pytest.raises(ValueError):
        entropy_impurity((0, 0, 0))


def test_impurity_bounds_random_counts():
    rng = np.random.default_rng(0)
    for _ in range(200):
        counts = tuple(int(c) for c in rng.integers(0, 30, size=3))
        if sum(counts) == 0:
            continue
        g = gini_impurity(counts)
        e = entropy_impurity(counts)
        assert 0.0 <= g <= 2.0 / 3.0 + 1e-12
        assert 0.0 <= e <= math.log2(3.0) + 1e-12
        pure = sum(1 for c in counts if c) == 1
        assert (g == 0.0) == pure
        assert (e == 0.0) == pure


# --- best_split -------------------------------------------------------------------

def test_best_split_separable_example():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 2, 2])
    split = best_split(X, y, "gini", [0])
    assert split.feature == 0
    assert split.threshold == 2.5
    assert split.gain == pytest.approx(0.5, abs=1e-15)


def test_best_split_pure_node_returns_none():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1, 1, 1])
    assert best_split(X, y, "gini", [0]) is None


def test_best_split_respects_candidate_set():
    # feature 1 separates perfectly; restricting to {0} must still use 0
    X = np.array([[5.0, 1.0], [5.0, 2.0], [7.0, 3.0], [5.0, 4.0]])
    y = np.array([0, 0, 2, 2])
    restricted = best_split(X, y, "gini", [0])
    assert restricted is not None and restricted.feature == 0
    free = best_split(X, y, "gini", [0, 1])
    assert free.feature == 1 and free.threshold == 2.5


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_best_split_matches_brute_force(criterion):
    rng = np.random.default_rng(123)
    for _ in range(60):
        n = int(rng.integers(2, 50))
        d = int(rng.integers(1, 5))
        X = rng.uniform(-5.0, 5.0, size=(n, d))
        y = rng.integers(0, 3, size=n)
        mine = best_split(X, y, criterion, range(d))
        oracle = brute_force_best_split(X.tolist(), y.tolist(), criterion)
        if oracle is None:
            assert mine is None
        else:
            assert mine is not None
            assert (mine.feature, mine.threshold) == (oracle[0], oracle[1])
            assert mine.gain == pytest.approx(oracle[2], abs=1e-12)


@st.composite
def split_inputs(draw):
    """Small nodes on a 5-value grid (ties, duplicate rows, constant columns) and any candidates."""
    n = draw(st.integers(min_value=1, max_value=60))
    d = draw(st.integers(min_value=1, max_value=6))
    grid = st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0])
    columns = [
        [draw(grid)] * n if draw(st.booleans()) else draw(st.lists(grid, min_size=n, max_size=n))
        for _ in range(d)
    ]
    X = np.array(columns, dtype=float).T
    y = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.int64)
    candidates = draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d))
    return X, y, candidates, draw(st.sampled_from(["gini", "entropy"]))


def _bits(split):
    """(feature, threshold, gain) with the floats as hex, so == compares bits."""
    if split is None:
        return None
    feature, threshold, gain = split
    return feature, threshold.hex(), gain.hex()


@settings(max_examples=400, deadline=None)
@given(split_inputs())
@example((np.array([[1.0], [1.0]]), np.array([0, 2]), [0], "gini"))
@example((np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 2]), [1, 0], "entropy"))
@example((np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]]), np.array([0, 1, 2]), [], "gini"))
def test_best_split_matches_reference_and_brute_force(inputs):
    X, y, candidates, criterion = inputs
    mine = best_split(X, y, criterion, candidates)
    found = None if mine is None else (mine.feature, mine.threshold, mine.gain)
    assert _bits(found) == _bits(reference_best_split(X, y, criterion, candidates))
    # the node's rows picked out of a larger matrix search the same as the node alone
    n = len(y)
    rows = np.arange(2 * n - 1, n - 1, -1)
    assert best_split(np.vstack([X + 1.0, X[::-1]]), y, criterion, candidates, rows=rows) == mine
    features = sorted(candidates)
    oracle = None
    if features:
        oracle = brute_force_best_split(X[:, features].tolist(), y.tolist(), criterion)
    if oracle is None:
        assert mine is None
    else:
        assert (mine.feature, mine.threshold) == (features[oracle[0]], oracle[1])


# --- decision tree ------------------------------------------------------------------

def test_tree_separable_is_depth_one_and_exact():
    X = [[1.0], [2.0], [3.0], [4.0]]
    y = [Label.SELL, Label.SELL, Label.BUY, Label.BUY]
    tree = fit_decision_tree(X, y, TREE)
    assert isinstance(tree.root, Internal)
    assert isinstance(tree.root.left, Leaf) and isinstance(tree.root.right, Leaf)
    assert predict_tree_batch(tree, X) == y
    assert predict_tree(tree, [1.0]) == Label.SELL
    assert predict_tree(tree, [2.5]) == Label.SELL  # boundary routes left


def test_tree_single_class_is_single_leaf():
    tree = fit_decision_tree([[1.0], [2.0]], [Label.BUY, Label.BUY], TREE)
    assert isinstance(tree.root, Leaf)
    assert tree.root.label == Label.BUY


def test_tree_max_depth_zero_is_majority_leaf():
    spec = ClassifierSpec(kind="decision_tree", max_depth=0)
    tree = fit_decision_tree([[1.0], [2.0], [3.0]], [0, 0, 2], spec)
    assert isinstance(tree.root, Leaf)
    assert tree.root.label == Label.SELL
    tied = fit_decision_tree([[1.0], [2.0]], [0, 2], spec)
    assert tied.root.label == Label.HOLD  # tie rule


def test_tree_training_errors():
    with pytest.raises(EmptyTraining):
        fit_decision_tree(np.empty((0, 2)), [], TREE)
    with pytest.raises(DimensionMismatch):
        fit_decision_tree([[1.0], [2.0]], [0], TREE)
    tree = fit_decision_tree([[1.0, 2.0]] * 2, [0, 0], TREE)
    with pytest.raises(DimensionMismatch):
        predict_tree(tree, [1.0])


def test_tree_perfect_fit_on_consistent_data():
    rng = np.random.default_rng(77)
    for seed in range(8):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 3, size=n)
        tree = fit_decision_tree(X, y, TREE)
        assert [int(p) for p in predict_tree_batch(tree, X)] == list(y)


def test_tree_min_samples_split_stops_growth():
    X = [[1.0], [2.0], [3.0], [4.0]]
    y = [0, 2, 0, 2]
    spec = ClassifierSpec(kind="decision_tree", min_samples_split=5)
    tree = fit_decision_tree(X, y, spec)
    assert isinstance(tree.root, Leaf)


# --- random forest ---------------------------------------------------------------

def test_forest_default_has_ten_trees_and_sqrt_mtry():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 28))
    y = rng.integers(0, 3, size=30)
    forest = fit_random_forest(X, y, ClassifierSpec(kind="random_forest", seed=5))
    assert len(forest.trees) == 10
    assert forest.mtry == 5


def test_forest_deterministic_given_seed():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 6))
    y = rng.integers(0, 3, size=40)
    spec = ClassifierSpec(kind="random_forest", seed=11)
    a = fit_random_forest(X, y, spec)
    b = fit_random_forest(X, y, spec)
    probes = rng.normal(size=(25, 6))
    assert [predict_forest(a, p) for p in probes] == [predict_forest(b, p) for p in probes]
    c = fit_random_forest(X, y, ClassifierSpec(kind="random_forest", seed=12))
    assert any(
        predict_forest(a, p) != predict_forest(c, p) for p in rng.normal(size=(200, 6))
    )


def test_forest_degenerate_equals_plain_tree():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 4))
    y = rng.integers(0, 3, size=50)
    spec = ClassifierSpec(kind="random_forest", n_trees=1, mtry=4, bootstrap=False)
    forest = fit_random_forest(X, y, spec)
    tree = fit_decision_tree(X, y, ClassifierSpec(kind="decision_tree"))
    probes = rng.normal(size=(40, 4))
    assert [predict_forest(forest, p) for p in probes] == [predict_tree(tree, p) for p in probes]


def _leaf_tree(label: Label) -> DecisionTree:
    return DecisionTree(root=Leaf(counts=(0, 0, 0), label=label), n_features=1, criterion="gini")


def test_forest_vote_majority_and_ties():
    buys = [_leaf_tree(Label.BUY)] * 6 + [_leaf_tree(Label.SELL)] * 4
    forest = ForestModel(trees=buys, tree_seeds=[0] * 10, n_features=1, mtry=1)
    assert predict_forest(forest, [0.0]) == Label.BUY
    tied = ForestModel(
        trees=[_leaf_tree(Label.BUY)] * 5 + [_leaf_tree(Label.SELL)] * 5,
        tree_seeds=[0] * 10, n_features=1, mtry=1,
    )
    assert predict_forest(tied, [0.0]) == Label.HOLD
    sells = ForestModel(trees=[_leaf_tree(Label.SELL)] * 10, tree_seeds=[0] * 10, n_features=1, mtry=1)
    assert predict_forest(sells, [0.0]) == Label.SELL


# --- knn ---------------------------------------------------------------------------

def test_knn_exact_point_k1():
    X = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    y = [0, 1, 2]
    assert knn_predict(X, y, [1.0, 1.0], 1) == Label.HOLD


def test_knn_majority():
    X = [[0.0], [0.1], [0.2], [9.0]]
    y = [2, 2, 0, 0]
    assert knn_predict(X, y, [0.05], 3) == Label.BUY


def test_knn_k_too_large():
    with pytest.raises(KTooLarge):
        knn_predict([[0.0]] * 4, [0] * 4, [0.0], 5)
    with pytest.raises(EmptyTraining):
        knn_predict(np.empty((0, 1)), [], [0.0], 1)


def test_knn_distance_tie_prefers_lower_index():
    X = [[1.0], [-1.0]]
    y = [2, 0]
    assert knn_predict(X, y, [0.0], 1) == Label.BUY
    assert knn_predict([[-1.0], [1.0]], [0, 2], [0.0], 1) == Label.SELL


def test_knn_full_neighbourhood_is_global_majority():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        X = rng.normal(size=(n, 3))
        y = rng.integers(0, 3, size=n)
        votes = [int((y == c).sum()) for c in range(3)]
        expected = Label.HOLD
        if votes.count(max(votes)) == 1:
            expected = Label(int(np.argmax(votes)))
        assert knn_predict(X, y, rng.normal(size=3), n) == expected


# --- gaussian nb ---------------------------------------------------------------------

def test_nb_per_class_population_moments():
    model = fit_gaussian_nb([[0.0], [2.0], [10.0]], [0, 0, 2])
    i = model.classes.index(0)
    assert model.means[i][0] == 1.0
    assert model.variances[i][0] == pytest.approx(1.0, rel=1e-6)  # population 1/n + smoothing


def test_nb_single_class_prior_one():
    model = fit_gaussian_nb([[1.0], [2.0]], [1, 1])
    assert model.classes == (1,)
    assert model.priors[0] == 1.0


def test_nb_zero_variance_smoothed_positive():
    model = fit_gaussian_nb([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]], [0, 0, 0])
    assert (model.variances > 0).all()
    constant = fit_gaussian_nb([[5.0], [5.0]], [0, 0])
    assert (constant.variances > 0).all()


def test_nb_equal_variance_picks_nearer_mean():
    model = fit_gaussian_nb([[-1.0], [1.0]], [0, 2])
    assert predict_gaussian_nb(model, [0.9]) == Label.BUY
    assert predict_gaussian_nb(model, [-0.9]) == Label.SELL
    assert predict_gaussian_nb(model, [0.0]) == Label.HOLD  # exact tie


def test_nb_matches_brute_force_posteriors():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(6, 40))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 3, size=n)
        if len(np.unique(y)) < 2:
            continue
        model = fit_gaussian_nb(X, y)
        x = rng.normal(size=d)
        scores = class_log_scores(model, x)
        oracle = [
            gaussian_log_posterior(
                model.priors[i], model.means[i], model.variances[i], x
            )
            for i in range(len(model.classes))
        ]
        assert scores == pytest.approx(oracle, rel=1e-12)
        best = int(np.argmax(oracle))
        if [round(v, 12) for v in oracle].count(round(oracle[best], 12)) == 1:
            assert predict_gaussian_nb(model, x) == Label(model.classes[best])


def test_nb_argmax_shift_invariant():
    model = fit_gaussian_nb([[-1.0], [0.0], [1.0]], [0, 1, 2])
    x = [0.4]
    scores = class_log_scores(model, x)
    for shift in (-100.0, 3.5, 1e6):
        assert int(np.argmax(scores + shift)) == int(np.argmax(scores))


# --- spec validation ------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(UsageError):
        ClassifierSpec(kind="svm")
    with pytest.raises(UsageError):
        ClassifierSpec(kind="decision_tree", criterion="twoing")
    with pytest.raises(UsageError):
        ClassifierSpec(kind="random_forest", n_trees=0)
    with pytest.raises(UsageError):
        ClassifierSpec(kind="knn", k=0)


def test_deep_tree_does_not_hit_recursion_limits():
    # adversarial chain: one feature, strictly increasing, alternating labels
    n = 1200
    X = [[float(i)] for i in range(n)]
    y = [i % 2 * 2 for i in range(n)]
    tree = fit_decision_tree(X, y, TREE)
    assert tree_depth(tree.root) >= 10
    assert predict_tree(tree, [2.0]) == Label.SELL
    assert predict_tree(tree, [3.0]) == Label.BUY
