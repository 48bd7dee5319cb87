"""From-scratch classifiers behind one fit/predict contract.

Kinds: decision_tree (CART, gini or entropy), random_forest (bootstrap +
per-node feature sampling), knn (Euclidean), gaussian_nb. Every fit is a
pure function of (data, spec.seed); every prediction tie resolves to Hold.
"""

from stocksignals.classifiers.base import (
    KINDS,
    ClassifierSpec,
    ModelBundle,
    bundle_json,
    fit_bundle,
    fit_bundles,
    fit_classifier,
    horizon_labels,
    load_bundle,
    model_from_params,
    model_to_params,
    predict_batch,
    predict_one,
)
from stocksignals.classifiers.forest import ForestModel, fit_random_forest
from stocksignals.classifiers.gaussian_nb import (
    GaussianNbModel,
    class_log_scores,
    fit_gaussian_nb,
)
from stocksignals.classifiers.knn import KnnModel
from stocksignals.classifiers.tree import (
    DecisionTree,
    Split,
    best_split,
    fit_decision_tree,
)

__all__ = [
    "KINDS",
    "ClassifierSpec",
    "ModelBundle",
    "DecisionTree",
    "ForestModel",
    "GaussianNbModel",
    "KnnModel",
    "Split",
    "best_split",
    "bundle_json",
    "class_log_scores",
    "fit_bundle",
    "fit_bundles",
    "fit_classifier",
    "fit_decision_tree",
    "fit_gaussian_nb",
    "fit_random_forest",
    "horizon_labels",
    "load_bundle",
    "model_from_params",
    "model_to_params",
    "predict_batch",
    "predict_one",
]
