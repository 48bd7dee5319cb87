"""Pinned sha256 of `bundle_json` for models fitted on a bench-sized matrix.

The golden CLI runs fit on ~200-row markets; these fits use 630 rows and
all 28 features, the size of the bench's `pipeline-forest` training side.
Values come from a coarse grid, so equal values (and, in forest trees,
bootstrap duplicates) reach deep nodes and every tie rule of the split
search is exercised. A change that alters a model on purpose updates
MODEL_HASHES and says why in CHANGES.md; the assertion message prints the
hash the current code produces.

kNN and naive Bayes are also pinned through a two-column label matrix
whose second column leaves every third row unlabeled (-1), so each model
saves only its own column's training rows.
"""

import hashlib

import numpy as np
import pytest
from conftest import bundle_json, fit_one

from stocksignals.classifiers import ClassifierSpec, ModelBundle, fit_classifier
from stocksignals.transform import FEATURE_COLUMNS, standardize_apply, standardize_fit

MODEL_HASHES = {
    "random_forest": "11b8a1ada014b34490e6cd98562bd80b73e92f042dca1420c8b5507682e32cf1",
    "decision_tree_gini": "b5ca388a4212dcc5a800077632976d366b45eb03fb6c919ed94fd31679fa6bba",
    "decision_tree_entropy": "6279c9957ca87f49b9ca49bb6881115f1883c70c99171949a59c28cd5bfe554d",
}

# one hash per label column
MATRIX_HASHES = {
    "knn_k5": (
        "b2fb8038cff136afa41eb216325bd9c1adb82f271f2d07c5e699b31c1267e096",
        "5e717ec548c71fe47bbbc04dc46c0e3ebde702fd055dd384588572146423593f",
    ),
    "gaussian_nb": (
        "e660d0fc434d85e55b31b3a121a7f9cebf6d2683c2634290db8203c0fae9ad49",
        "ebb57df180023a59038276bfb544540af0cd66b92a0eb286bcdeb1b8d750954d",
    ),
}

SPECS = {
    "random_forest": ClassifierSpec(kind="random_forest", seed=42),
    "decision_tree_gini": ClassifierSpec(kind="decision_tree", criterion="gini"),
    "decision_tree_entropy": ClassifierSpec(kind="decision_tree", criterion="entropy"),
    "knn_k5": ClassifierSpec(kind="knn", k=5),
    "gaussian_nb": ClassifierSpec(kind="gaussian_nb"),
}


def grid_matrix(seed=11, n=630, d=len(FEATURE_COLUMNS)):
    """Features on a grid of 8 values per column; labels lean on two columns."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 8, size=(n, d)) * 0.25
    noise = rng.integers(0, 3, size=n)
    y = np.where(rng.random(n) < 0.5, noise, (X[:, 0] + X[:, 5] > 1.75) * 2)
    return X, y.astype(np.int64)


def _digest(bundle):
    return hashlib.sha256(bundle_json(bundle).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(MODEL_HASHES))
def test_bench_sized_model_bytes_are_pinned(name):
    X, y = grid_matrix()
    scaler = standardize_fit(X)
    spec = SPECS[name]
    bundle = ModelBundle(
        spec=spec,
        horizon=1,
        feature_names=FEATURE_COLUMNS,
        scaler=scaler,
        model=fit_one(spec, standardize_apply(scaler, X), y),
    )
    digest = _digest(bundle)
    assert digest == MODEL_HASHES[name], f"{name}: {digest}"


@pytest.mark.parametrize("name", list(MATRIX_HASHES))
def test_label_matrix_model_bytes_are_pinned(name):
    X, y = grid_matrix()
    Y = np.column_stack([y, np.where(np.arange(len(y)) % 3 == 0, -1, y[::-1])])
    scaler = standardize_fit(X)
    spec = SPECS[name]
    models = fit_classifier(spec, standardize_apply(scaler, X), Y)
    digests = tuple(
        _digest(
            ModelBundle(
                spec=spec,
                horizon=horizon,
                feature_names=FEATURE_COLUMNS,
                scaler=scaler,
                model=model,
            )
        )
        for horizon, model in enumerate(models, start=1)
    )
    assert digests == MATRIX_HASHES[name], f"{name}: {digests}"
