"""The flat-frontier grower against the per-tree reference grower, bit for bit.

`grow_trees` grows every tree of every label column together, each on its
distinct rows weighted by their draws, and searches all of a step's nodes
in batched `best_split` calls; `reference_grow_tree` grows one tree at a
time on the repeated rows with one-feature-at-a-time split searches. Every
column of every tree must match, thresholds to the bit.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import assert_same_tree, fit_one, random_dataset, synthetic_market_bytes
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_best_split, reference_fit_decision_tree, reference_fit_random_forest

from stocksignals import ingest
from stocksignals.classifiers import ClassifierSpec, fit_bundles, fit_classifier
from stocksignals.classifiers import tree
from stocksignals.classifiers.forest import fit_forests
from stocksignals.errors import DataError, EmptyTraining
from stocksignals.transform import (
    Dataset,
    LabelConfig,
    SplitConfig,
    assemble_features,
    shuffle_split,
    split_dataset,
)

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


@st.composite
def grower_cases(draw):
    """label_matrices with a spec and a _SPLIT_ELEMENTS cap: tiny caps split a
    step into several calls and search big nodes alone."""
    X, Y = draw(label_matrices())
    spec = draw(specs(X.shape[1]))
    cap = draw(st.sampled_from([1, 7, 40, 1 << 13]))
    return X, Y, spec, cap


# A bootstrap child with fewer distinct rows than min_samples_split but as
# many draws is split: a stop rule that counted distinct rows would make it
# a leaf.
FEWER_DISTINCT_ROWS_THAN_MIN_SPLIT = (
    np.array([[3.0, 2.0], [3.0, 3.0], [3.0, 0.0], [1.0, 2.0], [1.0, 1.0], [2.0, 3.0], [2.0, 0.0]]),
    np.array([[2], [2], [0], [1], [1], [2], [0]]),
    ClassifierSpec(kind="random_forest", n_trees=1, min_samples_split=4, seed=4),
    1 << 13,
)
# the root's children lie at max_depth, impure, and are leaves at once
CHILDREN_AT_MAX_DEPTH = (
    np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]]),
    np.array([[0], [1], [0], [1], [2], [2]]),
    ClassifierSpec(kind="decision_tree", max_depth=1),
    1 << 13,
)

# 15 nodes from 8 distinct rows, seven levels deep: a tree makes more nodes
# than it has entries
MORE_NODES_THAN_ROWS = (
    np.arange(8.0)[:, None],
    np.array([[0], [1], [0], [1], [0], [1], [0], [1]]),
    ClassifierSpec(kind="decision_tree"),
    1 << 13,
)


def assembled(raw):
    """The feature rows the CLI assembles from a market CSV, tickers in order."""
    table = ingest.validate_and_clean(ingest.parse_market_csv(raw))
    series = ingest.partition_by_ticker(table).values()
    return Dataset.concat([assemble_features(s, LabelConfig()) for s in series])


# the label matrix the CLI fits: 100 rows and ten nested horizon columns, so
# a 3-tree forest grows 30 trees in lockstep, up to six pending nodes each,
# and a step's nodes take several best_split calls
MARKET = assembled(synthetic_market_bytes(2, 60, seed=1))
CLI_SHAPED = (
    MARKET.X,
    MARKET.Y.astype(np.int64),
    ClassifierSpec(kind="random_forest", n_trees=3, seed=42),
    40,
)


@example(case=CLI_SHAPED)
@example(case=FEWER_DISTINCT_ROWS_THAN_MIN_SPLIT)
@example(case=CHILDREN_AT_MAX_DEPTH)
@example(case=MORE_NODES_THAN_ROWS)
@settings(max_examples=300, deadline=None)
@given(case=grower_cases())
def test_lockstep_trees_match_per_tree_reference(case):
    X, Y, spec, cap = case
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


def search(X, criterion, nodes):
    """best_split of nodes given as (rows, labels, weights, features) in one
    call, as one (feature, threshold bits, gain bits, left counts) per node."""
    rows, labels, weights, features = zip(*nodes)
    found = tree.best_split(
        X, tree.dense_ranks(X), criterion, np.concatenate(rows), np.concatenate(labels),
        np.concatenate(weights), np.array([len(r) for r in rows]), np.array(features),
    )
    feature, threshold, gain, left = (column.tolist() for column in found)
    return [
        (f, t.hex(), g.hex(), tuple(counts)) for f, t, g, counts in zip(feature, threshold, gain, left)
    ]


@st.composite
def weighted_nodes(draw, X, Y, distinct):
    """1-5 nodes of rows of X (distinct ones if `distinct`), each with weights
    1-4 and labels from Y's first column, and one candidate width for all."""
    n, d = X.shape
    width = draw(st.integers(min_value=1, max_value=d))
    nodes = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        rows = st.integers(0, n - 1)
        rows = draw(st.lists(rows, min_size=1, max_size=2 * n, unique=distinct))
        weights = draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
        features = sorted(draw(st.sets(st.integers(0, d - 1), min_size=width, max_size=width)))
        nodes.append((np.array(rows), np.abs(Y[rows, 0]), np.array(weights), features))
    return nodes


@settings(max_examples=200, deadline=None)
@given(label_matrices(), st.data())
def test_batched_best_split_is_one_call_per_node(inputs, data):
    """Weighted nodes searched in one call get what each gets alone, and what
    the one-feature-at-a-time reference gets on the rows repeated."""
    X, Y = inputs
    criterion = data.draw(st.sampled_from(["gini", "entropy"]), label="criterion")
    nodes = data.draw(weighted_nodes(X, Y, distinct=False), label="nodes")
    found = search(X, criterion, nodes)
    assert found == [search(X, criterion, [node])[0] for node in nodes]
    zero = (0.0).hex()
    for (rows, labels, weights, features), (feature, threshold, gain, left) in zip(nodes, found):
        expected = reference_best_split(
            X[np.repeat(rows, weights)], np.repeat(labels, weights), criterion, features
        )
        if expected is None:
            assert (feature, threshold, gain, left) == (-1, zero, zero, (0, 0, 0))
        else:
            assert (feature, threshold, gain) == (expected[0], expected[1].hex(), expected[2].hex())


@settings(max_examples=200, deadline=None)
@given(label_matrices(), st.data())
def test_weighted_entries_split_as_their_repeated_rows(inputs, data):
    """Distinct rows with weights split bit for bit as the rows repeated, and
    the left counts are the weighted class counts of the rows sent left."""
    X, Y = inputs
    criterion = data.draw(st.sampled_from(["gini", "entropy"]), label="criterion")
    nodes = data.draw(weighted_nodes(X, Y, distinct=True), label="nodes")
    repeated = [
        (np.repeat(rows, weights), np.repeat(labels, weights), np.ones(weights.sum(), int), features)
        for rows, labels, weights, features in nodes
    ]
    found = search(X, criterion, nodes)
    assert found == search(X, criterion, repeated)
    for (rows, labels, weights, features), (feature, threshold, _, left) in zip(nodes, found):
        if feature < 0:
            continue
        goes_left = X[rows, feature] <= float.fromhex(threshold)
        assert left == tuple(np.bincount(labels[goes_left], weights[goes_left], minlength=3))


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest", "knn", "gaussian_nb"])
def test_first_failing_column_raises_what_its_own_fit_would(kind):
    spec = ClassifierSpec(kind=kind, k=1, n_trees=2)
    X = np.array([[0.0], [1.0], [np.inf], [2.0]])
    ok, unlabeled, bad = [0, 1, -1, 2], [-1] * 4, [0, 1, 2, -1]
    with pytest.raises(DataError, match="^features must be finite$"):
        fit_classifier(spec, X, np.array([ok, bad, unlabeled]).T)
    with pytest.raises(EmptyTraining, match="^no training rows$"):
        fit_classifier(spec, X, np.array([ok, unlabeled, bad]).T)
    with pytest.raises(DataError, match="^4 feature rows vs 3 labels$"):
        fit_classifier(spec, X, np.array([ok, bad, unlabeled]).T[:3])
    with pytest.raises(DataError, match="^feature matrix must be 2-D$"):
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


# fit_forests' tracemalloc peak on the split below with the per-node grower
# that the flat frontier replaced (one Python node record per pushed node),
# measured as this test measures it
PER_NODE_GROWER_PEAK = 2.18e6
# fit_decision_trees' peak there with the grower that kept its nodes in a
# table grown by doubling, measured as this test measures it (2,730,508 to
# 2,731,864 bytes); decision trees grow breadth first, a whole level a step
NODE_TABLE_GROWER_TREE_PEAK = 2.73e6


def fit_peak(fit):
    """fit(X, Y)'s tracemalloc peak on the training side of a 10-ticker market."""
    data = assembled(synthetic_market_bytes(10, 100, seed=1))
    split = split_dataset(data, *shuffle_split(data, SplitConfig(seed=42)))
    X, Y = split.train.X, split.train.Y.astype(np.int64)
    assert (X.shape, Y.shape) == ((630, 28), (630, 10))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fit(X, Y)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_forest_fit_peak_memory_stays_near_the_per_node_grower():
    peak = fit_peak(lambda X, Y: fit_forests(X, Y, ClassifierSpec(seed=42)))
    assert peak <= 1.5 * PER_NODE_GROWER_PEAK


def test_decision_tree_fit_peak_memory_stays_under_the_node_table_grower():
    spec = ClassifierSpec(kind="decision_tree")
    peak = fit_peak(lambda X, Y: tree.fit_decision_trees(X, Y, spec))
    assert peak <= NODE_TABLE_GROWER_TREE_PEAK
