"""From-scratch classifiers behind one fit/predict contract.

Kinds: decision_tree (CART, gini or entropy), random_forest (bootstrap +
per-node feature sampling), knn (Euclidean), gaussian_nb. Every kind fits
through `fit_classifier(spec, X, Y)` on an (n, h) label matrix Y whose
column j labels column j's training rows and holds -1 on the rest; the
result is one model per column, as if each were fitted on its rows alone.
Every kind predicts through `predict_labels(models, X)`, the one
prediction path: the models of one fit in, an (m, h) matrix of label
values out, column j from models[j]. Every fit is a pure function of
(data, spec.seed); every prediction tie resolves to Hold.
"""

from stocksignals.classifiers.base import (
    KINDS,
    ClassifierSpec,
    ModelBundle,
    fit_bundles,
    fit_classifier,
    load_bundle,
    model_from_params,
    model_to_params,
    predict_labels,
    predict_one,
)
from stocksignals.classifiers.forest import ForestModel
from stocksignals.classifiers.gaussian_nb import GaussianNbModel, class_log_scores
from stocksignals.classifiers.knn import KnnModel
from stocksignals.classifiers.tree import DecisionTree

__all__ = [
    "KINDS",
    "ClassifierSpec",
    "ModelBundle",
    "DecisionTree",
    "ForestModel",
    "GaussianNbModel",
    "KnnModel",
    "class_log_scores",
    "fit_bundles",
    "fit_classifier",
    "load_bundle",
    "model_from_params",
    "model_to_params",
    "predict_labels",
    "predict_one",
]
