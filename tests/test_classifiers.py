import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import fit_one, node_split
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_best_split,
    entropy_impurity,
    gaussian_log_posterior,
    gini_impurity,
    majority_label,
    reference_best_split,
    reference_class_log_scores,
    reference_knn_predict,
    reference_predict_forest,
    reference_predict_gaussian_nb,
    reference_predict_tree,
)

from stocksignals.classifiers import (
    KINDS,
    ClassifierSpec,
    ForestModel,
    class_log_scores,
    fit_classifier,
    model_from_params,
    model_to_params,
    predict_labels,
    predict_one,
)
from stocksignals.classifiers import knn
from stocksignals.classifiers.base import MAX_TREES
from stocksignals.classifiers.tree import DecisionTree, check_layout
from stocksignals.errors import DataError, EmptyTraining, KTooLarge, UsageError
from stocksignals.labels import Label, majority_labels

TREE = ClassifierSpec(kind="decision_tree")
NB = ClassifierSpec(kind="gaussian_nb")


def knn_model(X, y, k):
    """The kNN model of k fitted on X and one label per row."""
    return fit_one(ClassifierSpec(kind="knn", k=k), X, y)


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
    split = node_split(X, y, "gini", [0])
    assert split.feature == 0
    assert split.threshold == 2.5
    assert split.gain == pytest.approx(0.5, abs=1e-15)


def test_best_split_pure_node_returns_none():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1, 1, 1])
    assert node_split(X, y, "gini", [0]) is None


def test_best_split_respects_candidate_set():
    # feature 1 separates perfectly; restricting to {0} must still use 0
    X = np.array([[5.0, 1.0], [5.0, 2.0], [7.0, 3.0], [5.0, 4.0]])
    y = np.array([0, 0, 2, 2])
    restricted = node_split(X, y, "gini", [0])
    assert restricted is not None and restricted.feature == 0
    free = node_split(X, y, "gini", [0, 1])
    assert free.feature == 1 and free.threshold == 2.5


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_best_split_matches_brute_force(criterion):
    rng = np.random.default_rng(123)
    for _ in range(60):
        n = int(rng.integers(2, 50))
        d = int(rng.integers(1, 5))
        X = rng.uniform(-5.0, 5.0, size=(n, d))
        y = rng.integers(0, 3, size=n)
        mine = node_split(X, y, criterion, range(d))
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
    mine = node_split(X, y, criterion, candidates)
    found = None if mine is None else (mine.feature, mine.threshold, mine.gain)
    assert _bits(found) == _bits(reference_best_split(X, y, criterion, candidates))
    # the node's rows picked out of a larger matrix search the same as the node alone
    n = len(y)
    rows = np.arange(2 * n - 1, n - 1, -1)
    assert node_split(np.vstack([X + 1.0, X[::-1]]), y, criterion, candidates, rows=rows) == mine
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
    tree = fit_one(TREE, X, y)
    assert tree.left.tolist() == [1, -1, -1]
    assert tree.right.tolist() == [2, -1, -1]
    assert (tree.feature[0], tree.threshold[0]) == (0, 2.5)
    assert tree.counts.tolist() == [[0, 0, 0], [2, 0, 0], [0, 0, 2]]
    assert tree.label.tolist() == [Label.HOLD, Label.SELL, Label.BUY]
    assert predict_labels([tree], X)[:, 0].tolist() == y
    assert predict_one(tree, [1.0]) == Label.SELL
    assert predict_one(tree, [2.5]) == Label.SELL  # boundary routes left


def test_tree_single_class_is_single_leaf():
    tree = fit_one(TREE, [[1.0], [2.0]], [Label.BUY, Label.BUY])
    assert tree.left.tolist() == [-1]
    assert tree.counts.tolist() == [[0, 0, 2]]
    assert tree.label.tolist() == [Label.BUY]


def test_tree_max_depth_zero_is_majority_leaf():
    spec = ClassifierSpec(kind="decision_tree", max_depth=0)
    tree = fit_one(spec, [[1.0], [2.0], [3.0]], [0, 0, 2])
    assert tree.left.tolist() == [-1]
    assert tree.label.tolist() == [Label.SELL]
    tied = fit_one(spec, [[1.0], [2.0]], [0, 2])
    assert tied.label.tolist() == [Label.HOLD]  # tie rule


def test_tree_training_errors():
    with pytest.raises(EmptyTraining):
        fit_one(TREE, np.empty((0, 2)), [])
    with pytest.raises(DataError, match="^2 feature rows vs 1 labels$"):
        fit_one(TREE, [[1.0], [2.0]], [0])
    tree = fit_one(TREE, [[1.0, 2.0]] * 2, [0, 0])
    with pytest.raises(DataError, match=r"^input of shape \(1, 1\), model expects \(m, 2\)$"):
        predict_one(tree, [1.0])


def test_tree_perfect_fit_on_consistent_data():
    rng = np.random.default_rng(77)
    for seed in range(8):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 3, size=n)
        tree = fit_one(TREE, X, y)
        assert predict_labels([tree], X)[:, 0].tolist() == list(y)


def test_tree_min_samples_split_stops_growth():
    X = [[1.0], [2.0], [3.0], [4.0]]
    y = [0, 2, 0, 2]
    spec = ClassifierSpec(kind="decision_tree", min_samples_split=5)
    tree = fit_one(spec, X, y)
    assert tree.left.tolist() == [-1]


# --- random forest ---------------------------------------------------------------

def test_forest_default_has_ten_trees_and_sqrt_mtry():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 28))
    y = rng.integers(0, 3, size=30)
    forest = fit_one(ClassifierSpec(kind="random_forest", seed=5), X, y)
    assert len(forest.trees) == 10
    assert forest.mtry == 5


def test_forest_deterministic_given_seed():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 6))
    y = rng.integers(0, 3, size=40)
    spec = ClassifierSpec(kind="random_forest", seed=11)
    a = fit_one(spec, X, y)
    b = fit_one(spec, X, y)
    probes = rng.normal(size=(25, 6))
    assert np.array_equal(predict_labels([a], probes), predict_labels([b], probes))
    c = fit_one(ClassifierSpec(kind="random_forest", seed=12), X, y)
    probes = rng.normal(size=(200, 6))
    assert not np.array_equal(predict_labels([a], probes), predict_labels([c], probes))


def test_forest_degenerate_equals_plain_tree():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 4))
    y = rng.integers(0, 3, size=50)
    spec = ClassifierSpec(kind="random_forest", n_trees=1, mtry=4, bootstrap=False)
    forest = fit_one(spec, X, y)
    tree = fit_one(ClassifierSpec(kind="decision_tree"), X, y)
    probes = rng.normal(size=(40, 4))
    assert np.array_equal(predict_labels([forest], probes), predict_labels([tree], probes))


def _leaf_tree(label: Label) -> DecisionTree:
    """A one-node tree whose leaf predicts `label`."""
    counts = np.zeros((1, 3), dtype=np.int64)
    counts[0, label] = 1
    return DecisionTree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        counts=counts,
        label=np.array([label]),
        n_features=1,
        criterion="gini",
    )


def test_forest_vote_majority_and_ties():
    buys = [_leaf_tree(Label.BUY)] * 6 + [_leaf_tree(Label.SELL)] * 4
    forest = ForestModel(trees=buys, tree_seeds=[0] * 10, n_features=1, mtry=1)
    assert predict_one(forest, [0.0]) == Label.BUY
    tied = ForestModel(
        trees=[_leaf_tree(Label.BUY)] * 5 + [_leaf_tree(Label.SELL)] * 5,
        tree_seeds=[0] * 10, n_features=1, mtry=1,
    )
    assert predict_one(tied, [0.0]) == Label.HOLD
    sells = ForestModel(trees=[_leaf_tree(Label.SELL)] * 10, tree_seeds=[0] * 10, n_features=1, mtry=1)
    assert predict_one(sells, [0.0]) == Label.SELL


# --- knn ---------------------------------------------------------------------------

def test_knn_exact_point_k1():
    X = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    y = [0, 1, 2]
    assert predict_one(knn_model(X, y, 1), [1.0, 1.0]) == Label.HOLD


def test_knn_majority():
    X = [[0.0], [0.1], [0.2], [9.0]]
    y = [2, 2, 0, 0]
    assert predict_one(knn_model(X, y, 3), [0.05]) == Label.BUY


def test_knn_k_too_large():
    """Checked where a model is made: at fit, and when its params are loaded."""
    with pytest.raises(KTooLarge, match="^k=5 but only 4 training rows$"):
        knn_model([[0.0]] * 4, [0] * 4, 5)
    with pytest.raises(EmptyTraining):
        knn_model(np.empty((0, 1)), [], 1)
    params = model_to_params(knn_model([[0.0]] * 4, [0] * 4, 4))
    model_from_params("knn", params)
    for edit in ({"k": 5}, {"train_x": [], "train_y": [], "k": 1}):
        with pytest.raises(ValueError):
            model_from_params("knn", {**params, **edit})


def test_knn_distance_tie_prefers_lower_index():
    X = [[1.0], [-1.0]]
    y = [2, 0]
    assert predict_one(knn_model(X, y, 1), [0.0]) == Label.BUY
    assert predict_one(knn_model([[-1.0], [1.0]], [0, 2], 1), [0.0]) == Label.SELL


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
        assert predict_one(knn_model(X, y, n), rng.normal(size=3)) == expected


# --- gaussian nb ---------------------------------------------------------------------

def test_nb_per_class_population_moments():
    model = fit_one(NB, [[0.0], [2.0], [10.0]], [0, 0, 2])
    i = model.classes.index(0)
    assert model.means[i][0] == 1.0
    assert model.variances[i][0] == pytest.approx(1.0, rel=1e-6)  # population 1/n + smoothing


def test_nb_single_class_prior_one():
    model = fit_one(NB, [[1.0], [2.0]], [1, 1])
    assert model.classes == (1,)
    assert model.priors[0] == 1.0


def test_nb_zero_variance_smoothed_positive():
    model = fit_one(NB, [[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]], [0, 0, 0])
    assert (model.variances > 0).all()
    constant = fit_one(NB, [[5.0], [5.0]], [0, 0])
    assert (constant.variances > 0).all()


def test_nb_equal_variance_picks_nearer_mean():
    model = fit_one(NB, [[-1.0], [1.0]], [0, 2])
    assert predict_one(model, [0.9]) == Label.BUY
    assert predict_one(model, [-0.9]) == Label.SELL
    assert predict_one(model, [0.0]) == Label.HOLD  # exact tie


def test_nb_matches_brute_force_posteriors():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(6, 40))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 3, size=n)
        if len(np.unique(y)) < 2:
            continue
        model = fit_one(NB, X, y)
        x = rng.normal(size=d)
        scores = class_log_scores(model, x[None, :])[0]
        oracle = [
            gaussian_log_posterior(
                model.priors[i], model.means[i], model.variances[i], x
            )
            for i in range(len(model.classes))
        ]
        assert scores == pytest.approx(oracle, rel=1e-12)
        best = int(np.argmax(oracle))
        if [round(v, 12) for v in oracle].count(round(oracle[best], 12)) == 1:
            assert predict_one(model, x) == Label(model.classes[best])


def test_nb_argmax_shift_invariant():
    model = fit_one(NB, [[-1.0], [0.0], [1.0]], [0, 1, 2])
    scores = class_log_scores(model, np.array([[0.4]]))[0]
    for shift in (-100.0, 3.5, 1e6):
        assert int(np.argmax(scores + shift)) == int(np.argmax(scores))


# --- batch prediction against the per-row references ---------------------------------

GRID = [-1.5, 0.0, 0.25, 1.0, 3.0]
# midpoints of neighbouring grid values, i.e. every threshold a tree can learn
MIDPOINTS = [-0.75, 0.125, 0.625, 2.0]
# +-1e200 squares to an inf distance; NaN gives NaN distances and scores
SPECIAL = [1e200, -1e200, math.nan]


@st.composite
def prediction_inputs(draw):
    """Training rows on a 5-value grid (duplicate rows, distance ties, constant
    columns) and 0..12 probes on the grid or its midpoints, a quarter of them
    with one special value."""
    n = draw(st.integers(min_value=1, max_value=60))
    d = draw(st.integers(min_value=1, max_value=6))
    grid = st.sampled_from(GRID)
    columns = [
        [draw(grid)] * n if draw(st.booleans()) else draw(st.lists(grid, min_size=n, max_size=n))
        for _ in range(d)
    ]
    X = np.array(columns, dtype=float).T
    y = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.int64)
    probes = np.empty((draw(st.integers(min_value=0, max_value=12)), d))
    for probe in probes:
        probe[:] = draw(st.lists(st.sampled_from(GRID + MIDPOINTS), min_size=d, max_size=d))
        if draw(st.integers(0, 3)) == 0:
            probe[draw(st.integers(0, d - 1))] = draw(st.sampled_from(SPECIAL))
    return X, y, probes


def _bit_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _all_pair_distances(X, probes):
    """(m, n) exact distances of every (probe, training row) pair, through
    the recheck that knn_labels runs on its candidates."""
    probe, row = np.divmod(np.arange(len(probes) * len(X)), len(X))
    return knn.exact_distances(X, probes, probe, row).reshape(len(probes), len(X))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(prediction_inputs(), st.data())
def test_knn_batch_matches_reference(inputs, data):
    X, y, probes = inputs
    k = data.draw(st.integers(min_value=1, max_value=len(y)), label="k")
    per_block = data.draw(st.integers(min_value=1, max_value=3), label="probes per block")
    model = knn_model(X, y, k)
    with mock.patch.object(knn, "_BLOCK_ELEMENTS", per_block * X.size):
        labels = predict_labels([model], probes)[:, 0].tolist()
        distances = _all_pair_distances(X, probes)
    assert labels == [reference_knn_predict(X, y, probe, k) for probe in probes]
    per_row = np.array([((X - probe) ** 2).sum(axis=1) for probe in probes])
    assert _bit_equal(distances, per_row.reshape(len(probes), len(y)))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 30), st.integers(1, 40), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_distance_block_rounds_like_per_row_sums(n, d, m, seed):
    """Off-grid values, so every addition rounds and the summation order shows
    in the bits; d up to 40 covers numpy's unrolled pairwise sum (d >= 8)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
    probes = rng.normal(size=(m, d))
    per_row = np.array([((X - probe) ** 2).sum(axis=1) for probe in probes]).reshape(m, n)
    assert _bit_equal(_all_pair_distances(X, probes), per_row)
    k = int(rng.integers(1, n + 1))
    model = knn_model(X, rng.integers(0, 3, size=n), k)
    assert predict_labels([model], probes)[:, 0].tolist() == [
        reference_knn_predict(X, model.train_y, probe, k) for probe in probes
    ]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(prediction_inputs(), st.data())
def test_knn_label_columns_match_reference(inputs, data):
    """Every column of a multi-column call is the per-row vote over that
    column's labeled rows, and what that column's model predicts alone; a
    column with too few rows fails the fit, first one first."""
    X, _, probes = inputs
    n = len(X)
    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    exactly_k = np.isin(np.arange(n), data.draw(st.permutations(range(n)), label="rows")[:k])
    masks = st.lists(st.booleans(), min_size=n, max_size=n)
    kept = [np.ones(n, dtype=bool), exactly_k] + [np.array(data.draw(masks)) for _ in range(2)]
    order = data.draw(st.permutations(range(4)), label="column order")
    kept = [kept[i] for i in order[: data.draw(st.integers(1, 4), label="columns")]]
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    Y = np.column_stack([np.where(rows, data.draw(labels), -1) for rows in kept])
    per_block = data.draw(st.integers(min_value=1, max_value=3), label="probes per block")
    short = [count for count in (int(rows.sum()) for rows in kept) if count < k]
    spec = ClassifierSpec(kind="knn", k=k)
    if short:
        error, message = (
            (EmptyTraining, "no training rows")
            if short[0] == 0
            else (KTooLarge, f"k={k} but only {short[0]} training rows")
        )
        with pytest.raises(error, match=f"^{message}$"):
            fit_classifier(spec, X, Y)
        return
    models = fit_classifier(spec, X, Y)
    with mock.patch.object(knn, "_BLOCK_ELEMENTS", per_block * n):
        got = knn.knn_labels(X, Y, k, probes)
    assert got.shape == (len(probes), len(kept))
    for j, rows in enumerate(kept):
        expected = [reference_knn_predict(X[rows], Y[rows, j], probe, k) for probe in probes]
        assert got[:, j].tolist() == expected
        assert predict_labels([models[j]], probes)[:, 0].tolist() == expected


@st.composite
def horizon_label_matrices(draw, n):
    """(n, h) label columns shaped like horizon tails: rows are days of
    tickers of `days` rows, in order or shuffled as a training split holds
    them, and column j leaves out the last tails[j] days of each ticker,
    tails ascending, so the label sets are nested and U (the rows some
    column leaves out) is small against n. Sometimes one more column leaves
    out rows at random, which breaks the nesting and lets k + U pass n."""
    days = draw(st.integers(1, n))
    tails = sorted(draw(st.lists(st.integers(0, min(days - 1, 3)), min_size=1, max_size=10)))
    day = np.arange(n) % days
    if draw(st.booleans()):
        day = day[draw(st.permutations(range(n)))]
    kept = [day < days - tail for tail in tails]
    if draw(st.booleans()):
        kept.append(np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))))
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    return np.column_stack([np.where(rows, draw(labels), -1) for rows in kept])


# probe values whose screen bound is not finite
UNBOUNDED = [math.nan, math.inf, -math.inf, 1e200, -1e200]


@st.composite
def screen_inputs(draw):
    """(X, probes): 1-30 training rows of 1-6 features, each feature on its own
    scale 10^-150..10^150, with values on a small integer grid (exact distance
    ties, ties at the k-th distance) or off it, and sometimes duplicate rows;
    0-8 probes on the same scales, some a copy of a training row and some
    with one NaN, infinite or 1e200 entry."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 6))
    scales = 10.0 ** np.array(draw(st.lists(st.integers(-150, 150), min_size=d, max_size=d)))
    values = st.lists(st.integers(-3, 3).map(float) | st.floats(-4, 4), min_size=d, max_size=d)
    X = np.array(draw(st.lists(values, min_size=n, max_size=n))) * scales
    if draw(st.booleans()):
        X = X[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    probes = np.array(draw(st.lists(values, max_size=8)), dtype=float).reshape(-1, d) * scales
    for probe in probes:
        change = draw(st.integers(0, 3))
        if change == 0:
            probe[:] = X[draw(st.integers(0, n - 1))]
        elif change == 1:
            probe[draw(st.integers(0, d - 1))] = draw(st.sampled_from(UNBOUNDED))
    return X, probes


@st.composite
def screen_label_matrices(draw, n):
    """(n, h) label columns: nested horizon tails, random labels, or 2-4
    columns of which each row is left out by one, but for 0-2 rows that all
    of them label, so that fewer than k rows are often labeled in every
    column."""
    shape = draw(st.sampled_from(["nested", "random", "staggered"]))
    if shape == "nested":
        return draw(horizon_label_matrices(n))
    h = draw(st.integers(1, 4) if shape == "random" else st.integers(2, 4))
    Y = np.array(draw(st.lists(st.integers(0, 2), min_size=n * h, max_size=n * h))).reshape(n, h)
    if shape == "random":
        kept = draw(st.lists(st.booleans(), min_size=n * h, max_size=n * h))
        return np.where(np.array(kept).reshape(n, h), Y, -1)
    position = np.array(draw(st.permutations(range(n))))
    left_out = position % h
    left_out[position < draw(st.integers(0, 2))] = h  # labeled in every column
    return np.where(left_out[:, None] == np.arange(h), -1, Y)


@settings(max_examples=400, deadline=None)
@given(screen_inputs(), st.data())
def test_knn_screen_keeps_every_column_equal_to_the_reference(inputs, data):
    """Whatever the scales, ties and probes, each column's vote is the
    reference vote over its labeled rows, and the recheck's distances are
    the bits of the per-row sums. k is often drawn where the rows labeled in
    every column run out."""
    X, probes = inputs
    n = len(X)
    Y = data.draw(screen_label_matrices(n), label="labels")
    fewest = int((Y >= 0).sum(axis=0).min())
    assume(fewest >= 1)
    full = int((Y >= 0).all(axis=1).sum())
    edges = [k for k in (full, full + 1) if 1 <= k <= fewest]
    k = data.draw(st.sampled_from(edges or [1]) | st.integers(1, fewest), label="k")
    per_block = data.draw(st.integers(min_value=1, max_value=3), label="probes per block")
    rechecked = []
    exact_distances = knn.exact_distances

    def spy(train_X, block, probe, row):
        squared = exact_distances(train_X, block, probe, row)
        rechecked.append((train_X, block, probe, row, squared))
        return squared

    with mock.patch.object(knn, "_BLOCK_ELEMENTS", per_block * n):
        with mock.patch.object(knn, "exact_distances", spy):
            got = knn.knn_labels(X, Y, k, probes)
    assert sum(len(block) for _, block, *_ in rechecked) == len(probes)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, column in enumerate(Y.T):
            rows = column >= 0
            expected = [reference_knn_predict(X[rows], column[rows], p, k) for p in probes]
            assert got[:, j].tolist() == expected
        for train_X, block, probe, row, squared in rechecked:
            per_row = np.array([((train_X - p) ** 2).sum(axis=1) for p in block])
            assert _bit_equal(squared, per_row.reshape(len(block), -1)[probe, row])


def test_knn_screen_keeps_a_tie_whose_screened_distance_rounds_above_the_kth():
    """Rows -1.2 and -1.8 are the same exact distance from the probe -1.5,
    but the screen rounds row 0's above row 1's. Row 1, the only row both
    columns label, sets the k-th screened distance (k = 1), and column 0
    must still choose row 0, the lower index of the tie."""
    X = np.array([[-1.2], [-1.8]])
    probe = np.array([[-1.5]])
    exact = ((X - probe[0]) ** 2).sum(axis=1)
    screened = (probe**2).sum() + (X**2).sum(axis=1) - 2 * (probe @ X.T)[0]
    assert exact[0] == exact[1] and screened[0] > screened[1]
    Y = np.array([[0, -1], [2, 1]])
    assert knn.knn_labels(X, Y, 1, probe).tolist() == [[Label.SELL, Label.HOLD]]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(st.sampled_from(KINDS), prediction_inputs(), st.data())
def test_predict_labels_columns_are_each_models_own_predictions(kind, inputs, data):
    """Column j of predict_labels(models, X) is what models[j] predicts alone,
    and predict_one agrees with every entry. The 1-4 label columns are the
    longest horizon tails of a nested label matrix; for kNN some row is
    unlabeled in some column, so the stacked call screens against the rows
    every column labels while each model alone has its own labeled rows only."""
    X, _, probes = inputs
    n = len(X)
    Y = data.draw(horizon_label_matrices(n), label="labels")
    Y = Y[:, -data.draw(st.integers(1, 4), label="columns") :]
    fewest = int((Y >= 0).sum(axis=0).min())
    assume(fewest >= 1 and (kind != "knn" or (Y < 0).any()))
    spec = ClassifierSpec(
        kind=kind,
        k=data.draw(st.integers(1, fewest), label="k"),
        n_trees=3,
        seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
    )
    models = fit_classifier(spec, X, Y)
    per_block = data.draw(st.integers(min_value=1, max_value=3), label="probes per block")
    with mock.patch.object(knn, "_BLOCK_ELEMENTS", per_block * n):
        got = predict_labels(models, probes)
        alone = [predict_labels([model], probes) for model in models]
    assert got.shape == (len(probes), len(models))
    for j, model in enumerate(models):
        assert alone[j].shape == (len(probes), 1)
        assert got[:, j].tolist() == alone[j][:, 0].tolist()
        assert [predict_one(model, probe) for probe in probes] == got[:, j].tolist()


def test_knn_fit_rejects_a_non_finite_row_only_where_it_is_labeled():
    X = np.arange(6.0)[:, None]
    Y = np.array([[0, 1, -1], [1, -1, -1], [2, -1, 0], [0, 1, -1], [1, -1, -1], [2, 1, -1]])
    X_bad = X.copy()
    X_bad[1] = math.nan  # labeled in the first column only
    # each column is checked whole (rows, finite rows, k) before the next one
    with pytest.raises(DataError, match="^features must be finite$"):
        fit_classifier(ClassifierSpec(kind="knn", k=2), X_bad, Y[:, [0, 2]])
    with pytest.raises(KTooLarge, match="^k=2 but only 1 training rows$"):
        fit_classifier(ClassifierSpec(kind="knn", k=2), X_bad, Y[:, [2, 0]])
    models = fit_classifier(ClassifierSpec(kind="knn", k=1), X_bad, Y[:, 1:])
    assert [predict_labels([model], X)[:, 0].tolist() for model in models] == [
        [Label.HOLD] * 6,
        [Label.SELL] * 6,
    ]


def test_nan_and_infinite_probes_share_their_block_with_screened_probes():
    """A NaN probe and one that overflows share their block's one block_votes
    call with a screened probe and vote like the reference: the NaN probe its
    k lowest-index labeled rows. Row 1 is NaN and unlabeled in both columns;
    row 3 is unlabeled in the second."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    X[1] = math.nan
    Y = np.column_stack([rng.integers(0, 3, size=40), rng.integers(0, 3, size=40)])
    Y[1] = -1
    Y[3, 1] = -1
    k = 3
    probes = np.array([[0.1, -0.2, 0.3], [0.5, math.nan, 0.0], [1e200, 0.0, -1.0]])
    blocks = []
    block_votes = knn.block_votes

    def counted(*args):
        blocks.append(len(args[3]))
        return block_votes(*args)

    with mock.patch.object(knn, "block_votes", counted):
        got = knn.knn_labels(X, Y, k, probes)
    assert blocks == [len(probes)]
    for j, column in enumerate(Y.T):
        rows = column >= 0
        with np.errstate(over="ignore"):
            expected = [reference_knn_predict(X[rows], column[rows], p, k) for p in probes]
        assert got[:, j].tolist() == expected


def test_knn_labels_memory_stays_below_the_full_distance_matrix():
    """Ten label columns share bounded distance blocks, never the (m, n) matrix
    (841 x 1,959 float64 = 13.2 MB against ~47 MB of process RSS): random
    labels, where nearly every row is unlabeled somewhere and a probe's
    candidates reach its 5th nearest of the ~110 rows labeled in every
    column; nested horizon labels (199 of 1,959 rows unlabeled somewhere),
    also with one NaN probe, which takes every row, in each block; and
    columns that each leave out a different tenth of the rows, so that no
    row is labeled in all ten and each column's rows are a bounding set."""
    rng = np.random.default_rng(0)
    train_X = rng.normal(size=(1959, 28))
    random_Y = rng.integers(-1, 3, size=(1959, 10))
    # 20 tickers of about 98 days; horizon h leaves out each ticker's last h days
    day = np.arange(1959) % 98
    nested_Y = np.where(
        day[:, None] < 98 - np.arange(1, 11), rng.integers(0, 3, size=(1959, 10)), -1
    )
    X = rng.normal(size=(841, 28))
    nan_X = X.copy()
    nan_X[:: knn._BLOCK_ELEMENTS // len(train_X), 3] = math.nan
    staggered_Y = np.where(
        np.arange(1959)[:, None] % 10 == np.arange(10), -1, rng.integers(0, 3, size=(1959, 10))
    )
    blocks = []
    block_votes = knn.block_votes

    def counted(*args):  # a mock spy would keep every block alive
        blocks.append(len(args[3]))
        return block_votes(*args)

    for Y, probes in ((random_Y, X), (nested_Y, X), (nested_Y, nan_X), (staggered_Y, X)):
        blocks.clear()
        with mock.patch.object(knn, "block_votes", counted):
            tracemalloc.start()
            try:
                knn.knn_labels(train_X, Y, 5, probes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sum(blocks) == len(X)
        assert peak < len(X) * len(train_X) * 8 / 2


TREE_COLUMNS = ("feature", "threshold", "left", "right", "counts", "label")


def _same_columns(a: DecisionTree, b: DecisionTree) -> bool:
    return (a.n_features, a.criterion) == (b.n_features, b.criterion) and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in TREE_COLUMNS
    )


@settings(max_examples=400, deadline=None)
@given(prediction_inputs(), st.data())
def test_tree_and_forest_batches_match_reference(inputs, data):
    """Every fitted tree, alone or in a forest, passes check_layout, predicts
    like the one-row column walk (also with a feature set to each learned
    threshold, or to NaN) and comes back column for column from its params;
    forests vote like the per-row reference."""
    X, y, probes = inputs
    criterion = data.draw(st.sampled_from(["gini", "entropy"]), label="criterion")
    max_depth = data.draw(st.none() | st.integers(min_value=0, max_value=4), label="max_depth")
    tree = fit_one(
        ClassifierSpec(kind="decision_tree", criterion=criterion, max_depth=max_depth), X, y
    )
    spec = ClassifierSpec(
        kind="random_forest",
        n_trees=data.draw(st.integers(min_value=1, max_value=6), label="n_trees"),
        seed=data.draw(st.integers(min_value=0, max_value=2**32), label="seed"),
        mtry=data.draw(st.none() | st.integers(min_value=1, max_value=6), label="mtry"),
        bootstrap=data.draw(st.booleans(), label="bootstrap"),
    )
    forest = fit_one(spec, X, y)
    base = X[:8]
    for model in (tree, *forest.trees):
        check_layout(model)
        internal = np.flatnonzero(model.left >= 0)
        on_threshold = np.repeat(base[None], len(internal), axis=0)
        on_threshold[np.arange(len(internal)), :, model.feature[internal]] = model.threshold[
            internal, None
        ]
        with_nan = np.repeat(base[None], X.shape[1], axis=0)
        with_nan[np.arange(X.shape[1]), :, np.arange(X.shape[1])] = np.nan
        rows = np.vstack([probes, *on_threshold, *with_nan])
        expected = [reference_predict_tree(model, row) for row in rows]
        assert predict_labels([model], rows)[:, 0].tolist() == expected
        clone = model_from_params("decision_tree", json.loads(json.dumps(model_to_params(model))))
        assert _same_columns(clone, model)
    expected = [reference_predict_forest(forest, p) for p in probes]
    assert predict_labels([forest], probes)[:, 0].tolist() == expected
    clone = model_from_params("random_forest", json.loads(json.dumps(model_to_params(forest))))
    assert all(_same_columns(a, b) for a, b in zip(clone.trees, forest.trees, strict=True))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(prediction_inputs())
@example((np.array([[-1.0], [1.0]]), np.array([0, 2]), np.array([[0.0], [0.9]])))  # exact tie
@example((np.array([[0.0, 1.0]]), np.array([2]), np.empty((0, 2))))
def test_gaussian_nb_batch_matches_reference(inputs):
    X, y, probes = inputs
    model = fit_one(NB, X, y)
    labels = predict_labels([model], probes)[:, 0].tolist()
    assert labels == [reference_predict_gaussian_nb(model, p) for p in probes]
    per_row = np.array([reference_class_log_scores(model, p) for p in probes])
    scores = class_log_scores(model, probes)
    assert _bit_equal(scores, per_row.reshape(len(probes), len(model.classes)))


def test_majority_labels_is_the_scalar_tie_rule_per_row():
    counts = list(itertools.product(range(4), repeat=3))
    assert majority_labels(np.array(counts)).tolist() == [majority_label(c) for c in counts]


@pytest.mark.parametrize("kind", KINDS)
def test_fit_rejects_1d_or_non_finite_training_input(kind):
    """Every kind validates its training pair alike; DataError exits 2."""
    spec = ClassifierSpec(kind=kind, k=1)
    with pytest.raises(DataError, match="^feature matrix must be 2-D$"):
        fit_classifier(spec, [0.0, 1.0], [[0], [2]])
    with pytest.raises(DataError, match="^labels must be an"):
        fit_classifier(spec, [[0.0], [1.0]], [0, 2])  # a label vector, not a matrix
    for bad in (math.nan, math.inf):
        with pytest.raises(DataError):
            fit_one(spec, [[0.0], [bad]], [0, 2])


# --- spec validation ------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(UsageError):
        ClassifierSpec(kind="svm")
    with pytest.raises(UsageError):
        ClassifierSpec(kind="decision_tree", criterion="twoing")
    with pytest.raises(UsageError):
        ClassifierSpec(kind="random_forest", n_trees=0)
    assert ClassifierSpec(n_trees=MAX_TREES).n_trees == MAX_TREES
    for n_trees in (MAX_TREES + 1, 10**30):
        with pytest.raises(UsageError, match=f"n_trees must be <= {MAX_TREES}"):
            ClassifierSpec(n_trees=n_trees)
    with pytest.raises(UsageError):
        ClassifierSpec(kind="knn", k=0)


def tree_depth(tree: DecisionTree) -> int:
    """Maximum edge count from the root down to a leaf."""
    depth = np.zeros(len(tree.left), dtype=np.intp)
    for node in np.flatnonzero(tree.left >= 0):  # parents precede their children
        depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
    return int(depth.max())


def test_deep_tree_does_not_hit_recursion_limits():
    # adversarial chain: one feature, strictly increasing, alternating labels
    n = 1200
    X = [[float(i)] for i in range(n)]
    y = [i % 2 * 2 for i in range(n)]
    tree = fit_one(TREE, X, y)
    assert tree_depth(tree) >= 10
    assert predict_one(tree, [2.0]) == Label.SELL
    assert predict_one(tree, [3.0]) == Label.BUY
