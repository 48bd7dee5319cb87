"""Pinned sha256 of the labels predicted for a bench-sized probe matrix.

Models are fitted on the 630x28 grid matrix of `test_model_hashes` and
predict 300 probes drawn from a grid of half that step, so probe values
also land exactly on tree thresholds (midpoints of the training grid) and
squared distances are multiples of 1/64: many probes have several training
rows at exactly their k-th nearest distance, which the test checks, so the
kNN tie rule decides labels here. A change that alters predictions on
purpose updates PREDICTION_HASHES and says why in CHANGES.md; the assertion
message prints the hash the current code produces.

The single-model pins leave no training row unlabeled, so `knn_labels` is
also pinned on ten nested label columns, one per horizon of a 10-ticker
split, where each horizon leaves out more of every ticker's last rows.
"""

import hashlib

import numpy as np
import pytest
from conftest import fit_one
from test_model_hashes import grid_matrix

from stocksignals.classifiers import ClassifierSpec, predict_labels
from stocksignals.classifiers.knn import knn_labels

PREDICTION_HASHES = {
    "knn_k1": "2aea6009b79a74419daf0b8d2bd3e0f89c8e9d113a87d73b81f59dd51023143b",
    "knn_k5": "44529832e67da301e8eb118ef957047c3e89b8d97b6d7ee87360fc57e42fd846",
    "knn_k15": "147c4ea3914dbbac9f47b0d425ddb303806393e59c1ab325901fe270308afaea",
    "decision_tree_gini": "b92d511e6578431054b0dc194ac38336f7d8060fccc07f3359d7109a04ad7d3c",
    "random_forest": "9928ddbf9f5e2f8a9e6508c88d9f49370e453a57a21e739618e1b7ed0f920956",
    "gaussian_nb": "dd5cc2a3a8230a6f8d8a5b76989f2bf0c120b947c27653407dd09ecaf208dfb1",
}

# knn_labels with k=5 on horizon_label_matrix(), (300, 10) int8 in C order
HORIZON_COLUMNS_HASH = "0b672e08427dec1ce4b0cabfa4a65dc44a4efd1b3ee144e7d081fc1ea0895959"

SPECS = {
    "knn_k1": ClassifierSpec(kind="knn", k=1),
    "knn_k5": ClassifierSpec(kind="knn", k=5),
    "knn_k15": ClassifierSpec(kind="knn", k=15),
    "decision_tree_gini": ClassifierSpec(kind="decision_tree", criterion="gini"),
    "random_forest": ClassifierSpec(kind="random_forest", seed=42),
    "gaussian_nb": ClassifierSpec(kind="gaussian_nb"),
}


def probe_matrix(seed=23, m=300, d=28):
    """Probes on a grid of 15 values per column, step 0.125 (the training step halved)."""
    return np.random.default_rng(seed).integers(0, 15, size=(m, d)) * 0.125


@pytest.mark.parametrize("name", list(SPECS))
def test_bench_sized_prediction_bytes_are_pinned(name):
    X, y = grid_matrix()
    labels = predict_labels([fit_one(SPECS[name], X, y)], probe_matrix())[:, 0]
    digest = hashlib.sha256(np.array(labels, dtype=np.int8).tobytes()).hexdigest()
    assert digest == PREDICTION_HASHES[name], f"{name}: {digest}"


@pytest.mark.parametrize("k", [1, 5, 15])
def test_probes_tie_at_the_kth_distance(k):
    X, _ = grid_matrix()
    squared = ((X[None, :, :] - probe_matrix()[:, None, :]) ** 2).sum(axis=-1)
    ordered = np.sort(squared, axis=1)
    assert (ordered[:, k - 1] == ordered[:, k]).sum() >= 10


def horizon_label_matrix(y, columns=10, days=63, seed=29):
    """(630, 10) labels: the 630 rows are 10 tickers of 63 days, and column j
    leaves out each ticker's last j + 1 days (100 rows unlabeled somewhere).
    A fifth of each column's labels are redrawn, so the columns differ."""
    rng = np.random.default_rng(seed)
    kept = rng.random((len(y), columns)) < 0.8
    labels = np.where(kept, y[:, None], rng.integers(0, 3, size=(len(y), columns)))
    day = np.arange(len(y)) % days
    return np.where(day[:, None] < days - 1 - np.arange(columns), labels, -1)


def test_horizon_label_columns_prediction_bytes_are_pinned():
    X, y = grid_matrix()
    labels = knn_labels(X, horizon_label_matrix(y), 5, probe_matrix())
    digest = hashlib.sha256(labels.astype(np.int8).tobytes()).hexdigest()
    assert digest == HORIZON_COLUMNS_HASH, digest
