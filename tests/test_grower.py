"""The lockstep grower against the per-tree reference grower, bit for bit.

`grow_trees` grows every tree of every label column together and searches
all of a step's nodes in batched `best_split` calls; `reference_grow_tree`
grows one tree at a time with one-feature-at-a-time split searches. Every
column of every tree must match, thresholds to the bit.
"""

from unittest import mock

import numpy as np
import pytest
from conftest import assert_same_tree, fit_one, node_split, random_dataset
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_fit_decision_tree, reference_fit_random_forest

from stocksignals.classifiers import ClassifierSpec, fit_bundles, fit_classifier
from stocksignals.classifiers import tree
from stocksignals.errors import DataError, DimensionMismatch, EmptyTraining
from stocksignals.transform import split_dataset

GRID = (-2.0, -0.5, 0.0, 0.5, 3.0)


@st.composite
def label_matrices(draw):
    """X on a 5-value grid (tied values, duplicate rows, constant columns) and
    1-3 label columns, each with -1 gaps but at least one labeled row."""
    n = draw(st.integers(min_value=1, max_value=40))
    d = draw(st.integers(min_value=1, max_value=5))
    grid = st.sampled_from(GRID)
    columns = [
        [draw(grid)] * n if draw(st.integers(0, 4)) == 0 else draw(st.lists(grid, min_size=n, max_size=n))
        for _ in range(d)
    ]
    X = np.array(columns, dtype=float).T
    if draw(st.booleans()):  # duplicate the first rows
        X[n // 2 :] = X[: n - n // 2]
    h = draw(st.integers(min_value=1, max_value=3))
    Y = np.array(
        draw(st.lists(st.lists(st.integers(-1, 2), min_size=h, max_size=h), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    for j in range(h):
        if not (Y[:, j] >= 0).any():
            Y[draw(st.integers(0, n - 1)), j] = draw(st.integers(0, 2))
    return X, Y


@st.composite
def specs(draw, d):
    return ClassifierSpec(
        kind=draw(st.sampled_from(["decision_tree", "random_forest"])),
        criterion=draw(st.sampled_from(["gini", "entropy"])),
        n_trees=draw(st.integers(min_value=1, max_value=4)),
        max_depth=draw(st.none() | st.integers(min_value=0, max_value=4)),
        min_samples_split=draw(st.integers(min_value=1, max_value=6)),
        seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        mtry=draw(st.none() | st.sampled_from([1, d]) | st.integers(min_value=1, max_value=6)),
        bootstrap=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(label_matrices(), st.data())
def test_lockstep_trees_match_per_tree_reference(inputs, data):
    X, Y = inputs
    spec = data.draw(specs(X.shape[1]), label="spec")
    # tiny caps split a step into several calls and search big nodes alone
    cap = data.draw(st.sampled_from([1, 7, 40, 1 << 13]), label="cap")
    with mock.patch.object(tree, "_SPLIT_ELEMENTS", cap):
        models = fit_classifier(spec, X, Y)
    assert len(models) == Y.shape[1]
    for column, model in zip(Y.T, models):
        rows = column >= 0
        if spec.kind == "decision_tree":
            assert_same_tree(model, reference_fit_decision_tree(X[rows], column[rows], spec))
            continue
        trees, seeds = reference_fit_random_forest(X[rows], column[rows], spec)
        assert model.tree_seeds == seeds
        assert len(model.trees) == len(trees)
        for mine, reference in zip(model.trees, trees):
            assert_same_tree(mine, reference)


def test_one_column_fits_match_the_matrix_fit():
    rng = np.random.default_rng(4)
    X = rng.choice(GRID, size=(60, 6))
    y = rng.integers(0, 3, size=60)
    forest = ClassifierSpec(kind="random_forest", n_trees=3, seed=9, max_depth=5)
    for mine, reference in zip(
        fit_one(forest, X, y).trees, reference_fit_random_forest(X, y, forest)[0]
    ):
        assert_same_tree(mine, reference)
    plain = ClassifierSpec(kind="decision_tree", criterion="entropy")
    assert_same_tree(fit_one(plain, X, y), reference_fit_decision_tree(X, y, plain))


@settings(max_examples=200, deadline=None)
@given(label_matrices(), st.data())
def test_list_form_of_best_split_is_one_call_per_node(inputs, data):
    X, Y = inputs
    n, d = X.shape
    criterion = data.draw(st.sampled_from(["gini", "entropy"]), label="criterion")
    labels, features, rows = [], [], []
    for _ in range(data.draw(st.integers(min_value=1, max_value=5), label="nodes")):
        node = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n), label="rows")
        )
        rows.append(node)
        labels.append(np.abs(Y[node, 0]))
        features.append(
            sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1), label="features"))
        )
    feature, threshold, gain = tree.best_split(
        X, labels, criterion, features, rows, tree.dense_ranks(X)
    )
    found = [
        None if f < 0 else (f, t.hex(), g.hex())
        for f, t, g in zip(feature.tolist(), threshold.tolist(), gain.tolist())
    ]
    expected = [node_split(X, y, criterion, f, rows=r) for y, f, r in zip(labels, features, rows)]
    as_bits = lambda s: None if s is None else (s.feature, s.threshold.hex(), s.gain.hex())  # noqa: E731
    assert found == [as_bits(s) for s in expected]
    assert (threshold[feature < 0] == 0.0).all() and (gain[feature < 0] == 0.0).all()


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest", "knn", "gaussian_nb"])
def test_first_failing_column_raises_what_its_own_fit_would(kind):
    spec = ClassifierSpec(kind=kind, k=1, n_trees=2)
    X = np.array([[0.0], [1.0], [np.inf], [2.0]])
    ok, unlabeled, bad = [0, 1, -1, 2], [-1] * 4, [0, 1, 2, -1]
    with pytest.raises(DataError, match="^features must be finite$"):
        fit_classifier(spec, X, np.array([ok, bad, unlabeled]).T)
    with pytest.raises(EmptyTraining, match="^no training rows$"):
        fit_classifier(spec, X, np.array([ok, unlabeled, bad]).T)
    with pytest.raises(DimensionMismatch, match="^4 feature rows vs 3 labels$"):
        fit_classifier(spec, X, np.array([ok, bad, unlabeled]).T[:3])
    with pytest.raises(DimensionMismatch, match="^feature matrix must be 2-D$"):
        fit_classifier(spec, X[:, 0], np.array([ok, bad]).T)
    assert len(fit_classifier(spec, X, np.array([ok, ok]).T)) == 2


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
def test_fit_bundles_raises_the_first_failing_horizon_in_order(kind):
    data = random_dataset(40, seed=3)
    split = split_dataset(data, slice(0, 30), slice(30, 40))
    split.train.X[5, 2] = np.inf  # labeled at every horizon but 7
    split.train.Y[5, 6] = -1
    split.train.Y[:, 8] = -1
    spec = ClassifierSpec(kind=kind, n_trees=2)
    with pytest.raises(EmptyTraining, match="^no training rows labeled at horizon 9$"):
        fit_bundles(spec, split, (7, 9, 1))
    with pytest.raises(DataError, match="^features must be finite$"):
        fit_bundles(spec, split, (7, 1, 9))
