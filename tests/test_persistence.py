import json
import re

import numpy as np
import pytest
from conftest import random_dataset

from stocksignals.classifiers import (
    ClassifierSpec,
    ModelBundle,
    bundle_json,
    fit_bundle,
    fit_classifier,
    load_bundle,
    model_from_params,
    model_to_params,
    predict_batch,
)
from stocksignals.errors import EmptyTraining, UsageError
from stocksignals.transform import FEATURE_COLUMNS, split_dataset, standardize_apply


@pytest.mark.parametrize(
    "spec",
    [
        ClassifierSpec(kind="decision_tree", criterion="entropy"),
        ClassifierSpec(kind="random_forest", n_trees=5, seed=3),
        ClassifierSpec(kind="knn", k=3),
        ClassifierSpec(kind="gaussian_nb"),
    ],
    ids=lambda s: s.kind,
)
def test_model_params_round_trip_predicts_identically(spec):
    rng = np.random.default_rng(10)
    X = rng.normal(size=(60, 5))
    y = rng.integers(0, 3, size=60)
    model = fit_classifier(spec, X, y)
    params = json.loads(json.dumps(model_to_params(model)))  # through real JSON
    clone = model_from_params(spec.kind, params)
    probes = rng.normal(size=(30, 5))
    assert predict_batch(clone, probes) == predict_batch(model, probes)


def _train_split(data):
    """Every row trains; the test side is empty."""
    return split_dataset(data, slice(None), slice(0, 0))


def test_bundle_save_load_bit_identical(tmp_path):
    spec = ClassifierSpec(kind="random_forest", n_trees=4, seed=9)
    bundle = fit_bundle(spec, _train_split(random_dataset(40, seed=2)), horizon=10)
    path = tmp_path / "model.json"
    path.write_text(bundle_json(bundle), encoding="utf-8")
    loaded = load_bundle(path)
    assert loaded.spec == bundle.spec
    assert loaded.horizon == 10
    assert loaded.feature_names == FEATURE_COLUMNS
    assert loaded.scaler.to_dict() == bundle.scaler.to_dict()
    probes = random_dataset(20, seed=5)
    assert bundle.predict(probes) == loaded.predict(probes)
    # re-serialization of the loaded bundle is byte-identical
    assert bundle_json(loaded) == path.read_text(encoding="utf-8")


def test_bundle_predict_projects_by_name():
    data = random_dataset(30, seed=4)
    subset = (FEATURE_COLUMNS[2], FEATURE_COLUMNS[20])
    spec = ClassifierSpec(kind="decision_tree", seed=1)
    bundle = fit_bundle(spec, _train_split(data).select(subset), horizon=1)
    assert bundle.feature_names == subset
    direct = predict_batch(
        bundle.model, standardize_apply(bundle.scaler, data.X[:10][:, [2, 20]])
    )
    assert bundle.predict(data.take(slice(0, 10))) == direct


def test_fit_bundle_unknown_horizon_and_empty_training():
    data = random_dataset(10)
    spec = ClassifierSpec(kind="decision_tree")
    with pytest.raises(UsageError):
        fit_bundle(spec, _train_split(data), horizon=11)
    data.Y[:] = -1
    with pytest.raises(EmptyTraining):
        fit_bundle(spec, _train_split(data), horizon=3)


def test_load_bundle_rejects_foreign_json(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text(json.dumps({"hello": 1}), encoding="utf-8")
    with pytest.raises(UsageError):
        load_bundle(path)


def _tree_params():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
    tree = fit_classifier(ClassifierSpec(kind="decision_tree"), X, [0, 1, 2, 2])
    params = json.loads(json.dumps(model_to_params(tree)))
    assert [len(node) for node in params["tree"]["nodes"]] == [4, 4, 2, 2, 2]
    return params


@pytest.mark.parametrize(
    "node, field, value",
    [
        (0, "left", 0),  # a cycle back to the root
        (0, "left", 10**6),
        (0, "right", 1),  # the left child again
        (1, "right", 5),  # past the last node
        (0, "feature", 2),
        (0, "feature", -1),
        (0, "feature", 1.0),
        (0, "threshold", "0.5"),
        (2, "counts", [1, 0]),
        (2, "counts", [0, 0, 0]),
        (2, "counts", [-1, 2, 0]),
        (2, "label", 3),
        (2, "label", None),
    ],
)
def test_decode_rejects_a_malformed_tree(node, field, value):
    params = _tree_params()
    model_from_params("decision_tree", params)
    params["tree"]["nodes"][node][field] = value
    with pytest.raises(ValueError):
        model_from_params("decision_tree", params)


@pytest.mark.parametrize("edit", ["no trees", "tree n_features"])
def test_decode_rejects_a_forest_whose_trees_do_not_fit_it(edit):
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
    forest = fit_classifier(ClassifierSpec(kind="random_forest", n_trees=2), X, [0, 1, 2, 2])
    params = json.loads(json.dumps(model_to_params(forest)))
    if edit == "no trees":
        params["trees"] = []
    else:
        params["trees"][1]["n_features"] = 3
    with pytest.raises(ValueError):
        model_from_params("random_forest", params)


def _bundle_text(**changes):
    """A saved bundle's JSON with some top-level keys replaced."""
    bundle = fit_bundle(ClassifierSpec(kind="gaussian_nb"), _train_split(random_dataset(20)), 10)
    return json.dumps({**bundle.to_dict(), **changes})


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "Expecting property name"),
        (json.dumps({"format": "stocksignals-model"}), "missing key 'spec'"),
        (json.dumps([1, 2]), "format is not 'stocksignals-model'"),
        (_bundle_text(horizon="10"), "'str' object cannot be interpreted as an integer"),
    ],
)
def test_load_bundle_names_the_file_it_rejects(tmp_path, text, message):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(UsageError, match=re.escape(f"not a model file: {path}: {message}")):
        load_bundle(path)
