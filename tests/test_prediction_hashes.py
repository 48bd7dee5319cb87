"""Pinned sha256 of the labels predicted for a bench-sized probe matrix.

Models are fitted on the 630x28 grid matrix of `test_model_hashes` and
predict 300 probes drawn from a grid of half that step, so probe values
also land exactly on tree thresholds (midpoints of the training grid) and
squared distances are multiples of 1/64: many probes have several training
rows at exactly their k-th nearest distance, which the test checks, so the
kNN tie rule decides labels here. A change that alters predictions on
purpose updates PREDICTION_HASHES and says why in CHANGES.md; the assertion
message prints the hash the current code produces.
"""

import hashlib

import numpy as np
import pytest
from conftest import fit_one
from test_model_hashes import grid_matrix

from stocksignals.classifiers import ClassifierSpec, predict_batch

PREDICTION_HASHES = {
    "knn_k1": "2aea6009b79a74419daf0b8d2bd3e0f89c8e9d113a87d73b81f59dd51023143b",
    "knn_k5": "44529832e67da301e8eb118ef957047c3e89b8d97b6d7ee87360fc57e42fd846",
    "knn_k15": "147c4ea3914dbbac9f47b0d425ddb303806393e59c1ab325901fe270308afaea",
    "decision_tree_gini": "b92d511e6578431054b0dc194ac38336f7d8060fccc07f3359d7109a04ad7d3c",
    "random_forest": "9928ddbf9f5e2f8a9e6508c88d9f49370e453a57a21e739618e1b7ed0f920956",
    "gaussian_nb": "dd5cc2a3a8230a6f8d8a5b76989f2bf0c120b947c27653407dd09ecaf208dfb1",
}

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
    labels = predict_batch(fit_one(SPECS[name], X, y), probe_matrix())
    digest = hashlib.sha256(np.array(labels, dtype=np.int8).tobytes()).hexdigest()
    assert digest == PREDICTION_HASHES[name], f"{name}: {digest}"


@pytest.mark.parametrize("k", [1, 5, 15])
def test_probes_tie_at_the_kth_distance(k):
    X, _ = grid_matrix()
    squared = ((X[None, :, :] - probe_matrix()[:, None, :]) ** 2).sum(axis=-1)
    ordered = np.sort(squared, axis=1)
    assert (ordered[:, k - 1] == ordered[:, k]).sum() >= 10
