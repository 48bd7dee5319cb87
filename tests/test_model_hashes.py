"""Pinned sha256 of `bundle_json` for models fitted on a bench-sized matrix.

The golden CLI runs fit on ~200-row markets; these fits use 630 rows and
all 28 features, the size of the bench's `pipeline-forest` training side.
Values come from a coarse grid, so equal values (and, in forest trees,
bootstrap duplicates) reach deep nodes and every tie rule of the split
search is exercised. A change that alters a model on purpose updates
MODEL_HASHES and says why in CHANGES.md; the assertion message prints the
hash the current code produces.
"""

import hashlib

import numpy as np
import pytest

from stocksignals.classifiers import ClassifierSpec, ModelBundle, bundle_json, fit_classifier
from stocksignals.transform import FEATURE_COLUMNS, standardize_apply, standardize_fit

MODEL_HASHES = {
    "random_forest": "11b8a1ada014b34490e6cd98562bd80b73e92f042dca1420c8b5507682e32cf1",
    "decision_tree_gini": "b5ca388a4212dcc5a800077632976d366b45eb03fb6c919ed94fd31679fa6bba",
    "decision_tree_entropy": "6279c9957ca87f49b9ca49bb6881115f1883c70c99171949a59c28cd5bfe554d",
}

SPECS = {
    "random_forest": ClassifierSpec(kind="random_forest", seed=42),
    "decision_tree_gini": ClassifierSpec(kind="decision_tree", criterion="gini"),
    "decision_tree_entropy": ClassifierSpec(kind="decision_tree", criterion="entropy"),
}


def grid_matrix(seed=11, n=630, d=len(FEATURE_COLUMNS)):
    """Features on a grid of 8 values per column; labels lean on two columns."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 8, size=(n, d)) * 0.25
    noise = rng.integers(0, 3, size=n)
    y = np.where(rng.random(n) < 0.5, noise, (X[:, 0] + X[:, 5] > 1.75) * 2)
    return X, y.astype(np.int64)


@pytest.mark.parametrize("name", list(SPECS))
def test_bench_sized_model_bytes_are_pinned(name):
    X, y = grid_matrix()
    scaler = standardize_fit(X)
    spec = SPECS[name]
    bundle = ModelBundle(
        spec=spec,
        horizon=1,
        feature_names=FEATURE_COLUMNS,
        scaler=scaler,
        model=fit_classifier(spec, standardize_apply(scaler, X), y),
    )
    digest = hashlib.sha256(bundle_json(bundle).encode("utf-8")).hexdigest()
    assert digest == MODEL_HASHES[name], f"{name}: {digest}"
