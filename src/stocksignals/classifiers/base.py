"""Shared classifier spec, fit/predict dispatch, and JSON persistence.

Every fit takes an (n, h) label matrix: column j holds the labels of its
training rows and -1 on every other row, and `fit_classifier` returns one
model per column, each the model of its column's rows alone, so
`fit_bundles` fits all horizons of a split in one call; `predict_labels`
turns the models of one fit back into an (m, h) label matrix. A model is
checked once, where it is made: its training pair when it is fitted, its
parameters when it is loaded. Prediction checks only the probe matrix.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from stocksignals.classifiers.forest import ForestModel, fit_forests, forest_labels
from stocksignals.classifiers.gaussian_nb import (
    GaussianNbModel,
    check_gaussian_nb,
    fit_gaussian_nb,
    gaussian_nb_labels,
)
from stocksignals.classifiers.knn import KnnModel, check_knn, knn_labels
from stocksignals.classifiers.tree import (
    DecisionTree,
    check_layout,
    fit_decision_trees,
    tree_labels,
)
from stocksignals.errors import DataError, EmptyTraining, KTooLarge, UsageError
from stocksignals.labels import Label
from stocksignals.transform import Dataset, Scaler, TrainTestSplit, standardize_apply

KINDS = ("decision_tree", "random_forest", "knn", "gaussian_nb")
CRITERIA = ("gini", "entropy")

FORMAT_NAME = "stocksignals-model"
FORMAT_VERSION = 1
# a forest holds all of its trees, for every horizon, in memory at once
MAX_TREES = 10_000


@dataclass(frozen=True)
class ClassifierSpec:
    """Hyperparameters for one classifier kind.

    mtry and bootstrap only affect random forests; bootstrap=False is a
    test hook that makes a 1-tree, mtry=d forest reproduce a plain tree.
    """

    kind: str = "random_forest"
    criterion: str = "gini"
    n_trees: int = 10
    k: int = 5
    max_depth: int | None = None
    min_samples_split: int = 2
    seed: int = 0
    mtry: int | None = None
    bootstrap: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown classifier kind {self.kind!r}")
        if self.criterion not in CRITERIA:
            raise UsageError(f"unknown criterion {self.criterion!r}")
        if self.n_trees < 1:
            raise UsageError("n_trees must be >= 1")
        if self.n_trees > MAX_TREES:
            raise UsageError(f"n_trees must be <= {MAX_TREES}")
        if self.k < 1:
            raise UsageError("k must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise UsageError("max_depth must be >= 0")
        if self.min_samples_split < 1:
            raise UsageError("min_samples_split must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise UsageError("mtry must be >= 1")


FittedModel = Union[DecisionTree, ForestModel, KnnModel, GaussianNbModel]


def _training_arrays(spec: ClassifierSpec, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """X as (n, d) floats and Y as an (n, h) int64 label matrix, checked for spec.

    Column j of Y holds -1 on the rows outside its training set. The columns
    are checked in order, each as its training rows alone would be: no row
    (EmptyTraining), a non-finite row (DataError) or, for kNN, fewer than k
    rows (KTooLarge); so the first failing column raises.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError("feature matrix must be 2-D")
    Y = np.asarray(Y, dtype=np.int64)
    if Y.ndim != 2:
        raise DataError("labels must be an (n, h) matrix, one column per model")
    if len(X) != len(Y):
        raise DataError(f"{len(X)} feature rows vs {len(Y)} labels")
    k = spec.k if spec.kind == "knn" else 1
    finite = np.isfinite(X).all(axis=1)
    for rows in (Y >= 0).T:
        count = int(rows.sum())
        if count == 0:
            raise EmptyTraining("no training rows")
        if not finite[rows].all():
            raise DataError("features must be finite")
        if k > count:
            raise KTooLarge(f"k={k} but only {count} training rows")
    return X, Y


def fit_classifier(spec: ClassifierSpec, X, Y) -> list[FittedModel]:
    """One model of spec per column of the (n, h) label matrix Y, each fitted
    on the rows of X its column labels (-1: not a training row there).

    Every column is checked, in order, before any is fitted (see
    _training_arrays). Tree kinds grow every column's trees together, and
    kNN models share X.
    """
    X, Y = _training_arrays(spec, X, Y)
    if spec.kind == "decision_tree":
        return fit_decision_trees(X, Y, spec)
    if spec.kind == "random_forest":
        return fit_forests(X, Y, spec)
    if spec.kind == "knn":
        return [KnnModel(train_X=X, train_y=column, k=spec.k) for column in Y.T]
    return [fit_gaussian_nb(X[column >= 0], column[column >= 0]) for column in Y.T]


# the batch predictor of each kind but kNN, whose models predict together
_BATCH_LABELS = {
    DecisionTree: tree_labels, ForestModel: forest_labels, GaussianNbModel: gaussian_nb_labels
}


def _probe_matrix(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise DataError(f"input of shape {X.shape}, model expects (m, {n_features})")
    return X


def predict_labels(models: Sequence[FittedModel], X) -> np.ndarray:
    """(m, len(models)) label values of the scaled rows X, column j from models[j].

    The models are of one kind and from one fit, or are one loaded model. kNN
    models of one fit share its training matrix, so one knn_labels call votes
    for all their label columns and computes each block of distances once.
    """
    first = models[0]
    X = _probe_matrix(X, first.n_features)
    if isinstance(first, KnnModel):
        Y = np.column_stack([model.train_y for model in models])
        return knn_labels(first.train_X, Y, first.k, X)
    return np.column_stack([_BATCH_LABELS[type(model)](model, X) for model in models])


def predict_one(model: FittedModel, x: Sequence[float]) -> Label:
    """Predict one row through predict_labels."""
    return Label(predict_labels([model], [x])[0, 0])


# --- parameter (de)serialization -------------------------------------------

# model.json keeps these columns of a leaf and these of an internal node; the
# fitted columns hold _FILL in the fields a node does not keep
_LEAF_FIELDS = ("counts", "label")
_SPLIT_FIELDS = ("feature", "threshold", "left", "right")
_FILL = dict(feature=-1, threshold=0.0, left=-1, right=-1, counts=[0, 0, 0], label=Label.HOLD)


def _encode_tree(tree: DecisionTree) -> dict:
    """The columns as a preorder node list; avoids recursion limits on deep trees."""
    columns = {name: getattr(tree, name).tolist() for name in _FILL}
    return {
        "nodes": [
            {name: columns[name][pos] for name in (_SPLIT_FIELDS if split else _LEAF_FIELDS)}
            for pos, split in enumerate((tree.left >= 0).tolist())
        ],
        "n_features": tree.n_features,
        "criterion": tree.criterion,
    }


def _decode_tree(data: Mapping) -> DecisionTree:
    """Columns of a preorder node list; ValueError unless check_layout holds."""
    columns: dict[str, list] = {name: [] for name in _FILL}
    for node in data["nodes"]:
        kept = _LEAF_FIELDS if "counts" in node else _SPLIT_FIELDS
        for name, column in columns.items():
            column.append(node[name] if name in kept else _FILL[name])
    tree = DecisionTree(
        **{name: np.array(column) for name, column in columns.items()},
        n_features=data["n_features"],
        criterion=data["criterion"],
    )
    check_layout(tree)
    return tree


def model_to_params(model: FittedModel) -> dict:
    if isinstance(model, DecisionTree):
        return {"tree": _encode_tree(model)}
    if isinstance(model, ForestModel):
        return {
            "trees": [_encode_tree(t) for t in model.trees],
            "tree_seeds": model.tree_seeds,
            "n_features": model.n_features,
            "mtry": model.mtry,
        }
    if isinstance(model, KnnModel):
        rows = model.train_y >= 0  # a fitted model's training rows
        return {
            "train_x": model.train_X[rows].tolist(),
            "train_y": model.train_y[rows].tolist(),
            "k": model.k,
        }
    return {
        "classes": list(model.classes),
        "priors": model.priors.tolist(),
        "means": model.means.tolist(),
        "variances": model.variances.tolist(),
        "epsilon": model.epsilon,
    }


def model_from_params(kind: str, params: Mapping) -> FittedModel:
    """The model that model_to_params saved; ValueError unless it is one that
    predicts every probe as a fitted model does."""
    if kind == "decision_tree":
        return _decode_tree(params["tree"])
    if kind == "random_forest":
        trees = [_decode_tree(t) for t in params["trees"]]
        if not trees or any(tree.n_features != params["n_features"] for tree in trees):
            raise ValueError("a forest needs at least one tree, each with the forest's n_features")
        return ForestModel(
            trees=trees,
            tree_seeds=list(params["tree_seeds"]),
            n_features=params["n_features"],
            mtry=params["mtry"],
        )
    if kind == "knn":
        model = KnnModel(
            train_X=np.array(params["train_x"]), train_y=np.array(params["train_y"]), k=params["k"]
        )
        check_knn(model)
        return model
    if kind == "gaussian_nb":
        model = GaussianNbModel(
            classes=tuple(params["classes"]),
            priors=np.array(params["priors"]),
            means=np.array(params["means"]),
            variances=np.array(params["variances"]),
            epsilon=params["epsilon"],
        )
        check_gaussian_nb(model)
        return model
    raise UsageError(f"unknown classifier kind {kind!r}")


# --- model bundle -----------------------------------------------------------

@dataclass
class ModelBundle:
    """A fitted model plus everything needed to predict from raw features."""

    spec: ClassifierSpec
    horizon: int
    feature_names: tuple[str, ...]
    scaler: Scaler
    model: FittedModel

    def predict(self, data: Dataset) -> np.ndarray:
        """Label values of a dataset's rows, projected onto this bundle's columns
        and scaled as one matrix."""
        X = standardize_apply(self.scaler, data.select(self.feature_names).X)
        return predict_labels([self.model], X)[:, 0]

    def to_dict(self) -> dict:
        # a mean or std that overflowed float64 has no JSON form, and from_dict rejects it
        finite = np.isfinite(self.scaler.means) & np.isfinite(self.scaler.stds)
        if not finite.all():
            name = self.feature_names[int(np.argmin(finite))]
            raise DataError(f"feature {name} overflows the scaler, so no model file can hold it")
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "kind": self.spec.kind,
            "spec": asdict(self.spec),
            "horizon": self.horizon,
            "feature_names": list(self.feature_names),
            "scaler": self.scaler.to_dict(),
            "params": model_to_params(self.model),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelBundle":
        if not isinstance(data, Mapping) or data.get("format") != FORMAT_NAME:
            raise UsageError(f"format is not {FORMAT_NAME!r}")
        spec = ClassifierSpec(**data["spec"])
        if type(data["version"]) is not int or data["version"] != FORMAT_VERSION:
            raise UsageError(f"version {data['version']!r} is not {FORMAT_VERSION}")
        bundle = cls(
            spec=spec,
            horizon=operator.index(data["horizon"]),
            feature_names=tuple(data["feature_names"]),
            scaler=Scaler.from_dict(data["scaler"]),
            model=model_from_params(spec.kind, data["params"]),
        )
        n = len(bundle.feature_names)
        scaler = bundle.scaler
        if not scaler.means.shape == scaler.stds.shape == (n,) or bundle.model.n_features != n:
            raise ValueError(
                f"the scaler's means and stds and the model need one entry per feature ({n})"
            )
        return bundle


def load_bundle(path: Path | str) -> ModelBundle:
    """Read a saved bundle; UsageError naming the file if it does not hold one."""
    try:
        return ModelBundle.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except KeyError as exc:
        raise UsageError(f"not a model file: {path}: missing key {exc}") from None
    except (ValueError, TypeError, OverflowError, UsageError) as exc:
        raise UsageError(f"not a model file: {path}: {exc}") from None


def fit_bundles(
    spec: ClassifierSpec, split: TrainTestSplit, horizons: Sequence[int]
) -> list[ModelBundle]:
    """One classifier per horizon, fitted on the training rows labeled at it.

    The training matrix is scaled once with the split's scaler, which was
    fitted on every training row (labeled or not), so all horizons share
    one feature scaling, and one fit_classifier call fits every horizon. A
    horizon with no labeled training row raises EmptyTraining unless an
    earlier horizon fails first.
    """
    train = split.train
    X = standardize_apply(split.scaler, train.X)
    Y = np.column_stack([train.labels(horizon) for horizon in horizons])
    empty = np.flatnonzero(~(Y >= 0).any(axis=0))
    if empty.size:
        _training_arrays(spec, X, Y[:, : empty[0]])  # an earlier horizon's error comes first
        raise EmptyTraining(f"no training rows labeled at horizon {horizons[empty[0]]}")
    return [
        ModelBundle(
            spec=spec,
            horizon=horizon,
            feature_names=train.feature_names,
            scaler=split.scaler,
            model=model,
        )
        for horizon, model in zip(horizons, fit_classifier(spec, X, Y))
    ]

