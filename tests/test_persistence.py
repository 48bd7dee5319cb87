import json
import re

import numpy as np
import pytest
from conftest import bundle_json, fit_one, random_dataset

from stocksignals.classifiers.base import (
    ClassifierSpec,
    ModelBundle,
    fit_bundles,
    fit_classifier,
    load_bundle,
    model_from_params,
    model_to_params,
    predict_labels,
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
    """Also for a label column with unlabeled (-1) rows, which a saved kNN
    model leaves out."""
    rng = np.random.default_rng(10)
    X = rng.normal(size=(60, 5))
    y = rng.integers(0, 3, size=60)
    gaps = np.where(np.arange(60) % 4 == 1, -1, y)
    probes = rng.normal(size=(30, 5))
    for model in fit_classifier(spec, X, np.column_stack([y, gaps])):
        params = json.loads(json.dumps(model_to_params(model)))  # through real JSON
        clone = model_from_params(spec.kind, params)
        assert np.array_equal(predict_labels([clone], probes), predict_labels([model], probes))
        assert model_to_params(clone) == params


def _train_split(data):
    """Every row trains; the test side is empty."""
    return split_dataset(data, slice(None), slice(0, 0))


def test_bundle_save_load_bit_identical(tmp_path):
    spec = ClassifierSpec(kind="random_forest", n_trees=4, seed=9)
    (bundle,) = fit_bundles(spec, _train_split(random_dataset(40, seed=2)), (10,))
    path = tmp_path / "model.json"
    path.write_text(bundle_json(bundle), encoding="utf-8")
    loaded = load_bundle(path)
    assert loaded.spec == bundle.spec
    assert loaded.horizon == 10
    assert loaded.feature_names == FEATURE_COLUMNS
    assert loaded.scaler.to_dict() == bundle.scaler.to_dict()
    probes = random_dataset(20, seed=5)
    assert np.array_equal(bundle.predict(probes), loaded.predict(probes))
    # re-serialization of the loaded bundle is byte-identical
    assert bundle_json(loaded) == path.read_text(encoding="utf-8")


def test_bundle_predict_projects_by_name():
    data = random_dataset(30, seed=4)
    subset = (FEATURE_COLUMNS[2], FEATURE_COLUMNS[20])
    spec = ClassifierSpec(kind="decision_tree", seed=1)
    (bundle,) = fit_bundles(spec, _train_split(data).select(subset), (1,))
    assert bundle.feature_names == subset
    X = standardize_apply(bundle.scaler, data.X[:10][:, [2, 20]])
    direct = predict_labels([bundle.model], X)[:, 0]
    assert np.array_equal(bundle.predict(data.take(slice(0, 10))), direct)


def test_fit_bundle_unknown_horizon_and_empty_training():
    data = random_dataset(10)
    spec = ClassifierSpec(kind="decision_tree")
    with pytest.raises(UsageError):
        fit_bundles(spec, _train_split(data), (11,))
    data.Y[:] = -1
    with pytest.raises(EmptyTraining):
        fit_bundles(spec, _train_split(data), (3,))


def test_load_bundle_rejects_foreign_json(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text(json.dumps({"hello": 1}), encoding="utf-8")
    with pytest.raises(UsageError):
        load_bundle(path)


def _tree_params():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
    tree = fit_one(ClassifierSpec(kind="decision_tree"), X, [0, 1, 2, 2])
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
    forest = fit_one(ClassifierSpec(kind="random_forest", n_trees=2), X, [0, 1, 2, 2])
    params = json.loads(json.dumps(model_to_params(forest)))
    if edit == "no trees":
        params["trees"] = []
    else:
        params["trees"][1]["n_features"] = 3
    with pytest.raises(ValueError):
        model_from_params("random_forest", params)


def _params(kind):
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
    model = fit_one(ClassifierSpec(kind=kind, k=2), X, [0, 1, 2, 2])
    params = json.loads(json.dumps(model_to_params(model)))
    model_from_params(kind, params)
    return params


KNN_EDITS = {
    "label 5": ("train_y", lambda y: [5, *y[1:]]),
    "label -1": ("train_y", lambda y: [-1, *y[1:]]),
    "float label": ("train_y", lambda y: [0.0, *y[1:]]),
    "label short": ("train_y", lambda y: y[:-1]),
    "row short": ("train_x", lambda x: x[:-1]),
    "nan feature": ("train_x", lambda x: [[float("nan"), 0.0], *x[1:]]),
    "ragged rows": ("train_x", lambda x: [x[0][:1], *x[1:]]),
    "string feature": ("train_x", lambda x: [["0.5", 0.0], *x[1:]]),
    "no rows": ("train_x", lambda x: []),
    "k 0": ("k", lambda k: 0),
    "k above n": ("k", lambda k: 5),
    "float k": ("k", lambda k: 2.0),
    "bool k": ("k", lambda k: True),
}


@pytest.mark.parametrize("case", KNN_EDITS)
def test_decode_rejects_a_malformed_knn_model(case):
    field, edit = KNN_EDITS[case]
    params = _params("knn")
    params[field] = edit(params[field])
    with pytest.raises(ValueError):
        model_from_params("knn", params)


NB_EDITS = {
    "variance 0": ("variances", lambda v: [[0.0, *v[0][1:]], *v[1:]]),
    "variance -1": ("variances", lambda v: [[-1.0, *v[0][1:]], *v[1:]]),
    "variance inf": ("variances", lambda v: [[float("inf"), *v[0][1:]], *v[1:]]),
    "variances short": ("variances", lambda v: v[:-1]),
    "nan mean": ("means", lambda m: [[float("nan"), *m[0][1:]], *m[1:]]),
    "means narrower": ("means", lambda m: [row[:1] for row in m]),
    "prior 0": ("priors", lambda p: [0.0, *p[1:]]),
    "prior -0.5": ("priors", lambda p: [-0.5, *p[1:]]),
    "priors short": ("priors", lambda p: p[:-1]),
    "class 3": ("classes", lambda c: [3, *c[1:]]),
    "classes descending": ("classes", lambda c: c[::-1]),
    "class twice": ("classes", lambda c: [c[0], *c[:-1]]),
    "float class": ("classes", lambda c: [0.0, *c[1:]]),
    "epsilon 0": ("epsilon", lambda e: 0.0),
    "string epsilon": ("epsilon", lambda e: "1e-9"),
}


@pytest.mark.parametrize("case", NB_EDITS)
def test_decode_rejects_a_malformed_naive_bayes_model(case):
    field, edit = NB_EDITS[case]
    params = _params("gaussian_nb")
    params[field] = edit(params[field])
    with pytest.raises(ValueError):
        model_from_params("gaussian_nb", params)


def _fitted_bundle():
    (bundle,) = fit_bundles(
        ClassifierSpec(kind="gaussian_nb"), _train_split(random_dataset(20)), (10,)
    )
    return bundle


def _bundle_text(**changes):
    """A saved bundle's JSON with some top-level keys replaced."""
    return json.dumps({**_fitted_bundle().to_dict(), **changes})


def _scaler_text(key, value):
    """A saved bundle's JSON with the first of its scaler's means or stds replaced."""
    saved = _fitted_bundle().to_dict()
    saved["scaler"][key][0] = value
    return json.dumps(saved)


BAD_SCALER = "a scaler needs finite numbers as means and finite numbers >= 0 as stds"


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "Expecting property name"),
        (json.dumps({"format": "stocksignals-model"}), "missing key 'spec'"),
        (json.dumps([1, 2]), "format is not 'stocksignals-model'"),
        (_bundle_text(horizon="10"), "'str' object cannot be interpreted as an integer"),
        (_bundle_text(version=99), "version 99 is not 1"),
        (_bundle_text(version="1"), "version '1' is not 1"),
        (_bundle_text(version=True), "version True is not 1"),
        (_bundle_text(kind="knn"), "kind 'knn' is not the spec's kind 'gaussian_nb'"),
        (_bundle_text(kind=None), "kind None is not the spec's kind 'gaussian_nb'"),
        (_scaler_text("means", "0.5"), BAD_SCALER),
        (_scaler_text("means", True), BAD_SCALER),
        (_scaler_text("means", None), BAD_SCALER),
        (_scaler_text("means", [0.5]), BAD_SCALER),
        (_scaler_text("means", float("nan")), BAD_SCALER),
        (_scaler_text("means", float("-inf")), BAD_SCALER),
        (_scaler_text("stds", "1.0"), BAD_SCALER),
        (_scaler_text("stds", -1.0), BAD_SCALER),
        (_scaler_text("stds", float("nan")), BAD_SCALER),
        (_scaler_text("stds", float("inf")), BAD_SCALER),
        (_scaler_text("stds", 10**400), "int too large to convert to float"),
    ],
)
def test_load_bundle_names_the_file_it_rejects(tmp_path, text, message):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(UsageError, match=re.escape(f"not a model file: {path}: {message}")):
        load_bundle(path)


def test_load_bundle_takes_integer_scaler_values_and_a_zero_std(tmp_path):
    """A zero std marks a constant feature, which scales to 0."""
    bundle = _fitted_bundle()
    saved = bundle.to_dict()
    saved["scaler"]["means"][0] = 3
    saved["scaler"]["stds"][0] = 0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(saved), encoding="utf-8")
    scaler = load_bundle(path).scaler
    assert scaler.means.dtype == scaler.stds.dtype == np.float64
    assert (scaler.means[0], scaler.stds[0]) == (3.0, 0.0)
    assert np.array_equal(scaler.stds[1:], bundle.scaler.stds[1:])
