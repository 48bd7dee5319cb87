"""Shared classifier spec, fit/predict dispatch, and JSON persistence."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from stocksignals.classifiers.forest import (
    ForestModel,
    fit_random_forest,
    predict_forest,
)
from stocksignals.classifiers.gaussian_nb import (
    GaussianNbModel,
    fit_gaussian_nb,
    predict_gaussian_nb,
)
from stocksignals.classifiers.knn import KnnModel, fit_knn
from stocksignals.classifiers.tree import (
    DecisionTree,
    Internal,
    Leaf,
    fit_decision_tree,
    predict_tree,
)
from stocksignals.errors import EmptyTraining, UsageError
from stocksignals.labels import Label
from stocksignals.transform import Dataset, Scaler, TrainTestSplit, standardize_apply

KINDS = ("decision_tree", "random_forest", "knn", "gaussian_nb")
CRITERIA = ("gini", "entropy")

FORMAT_NAME = "stocksignals-model"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class ClassifierSpec:
    """Hyperparameters for one classifier kind.

    mtry and bootstrap only affect random forests; bootstrap=False is a
    test hook that makes a 1-tree, mtry=d forest reproduce a plain tree.
    """

    kind: str
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
        if self.k < 1:
            raise UsageError("k must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise UsageError("max_depth must be >= 0")
        if self.min_samples_split < 1:
            raise UsageError("min_samples_split must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise UsageError("mtry must be >= 1")


FittedModel = Union[DecisionTree, ForestModel, KnnModel, GaussianNbModel]


def fit_classifier(spec: ClassifierSpec, X, y) -> FittedModel:
    if spec.kind == "decision_tree":
        return fit_decision_tree(X, y, spec)
    if spec.kind == "random_forest":
        return fit_random_forest(X, y, spec)
    if spec.kind == "knn":
        return fit_knn(X, y, spec.k)
    return fit_gaussian_nb(X, y)


def predict_one(model: FittedModel, x: Sequence[float]) -> Label:
    if isinstance(model, DecisionTree):
        return predict_tree(model, x)
    if isinstance(model, ForestModel):
        return predict_forest(model, x)
    if isinstance(model, KnnModel):
        return model.predict_one(x)
    return predict_gaussian_nb(model, x)


def predict_batch(model: FittedModel, X) -> list[Label]:
    """Predict each row of a matrix (rows go to the models as Python floats)."""
    return [predict_one(model, row) for row in np.asarray(X, dtype=float).tolist()]


# --- parameter (de)serialization -------------------------------------------

def _encode_tree(tree: DecisionTree) -> dict:
    """Flat preorder node list; avoids recursion limits on deep trees."""
    nodes: list[dict] = []
    stack: list[tuple[object, int | None, str | None]] = [(tree.root, None, None)]
    while stack:
        node, parent_pos, side = stack.pop()
        pos = len(nodes)
        if isinstance(node, Leaf):
            nodes.append({"counts": list(node.counts), "label": int(node.label)})
        else:
            nodes.append(
                {
                    "feature": node.feature,
                    "threshold": node.threshold,
                    "left": -1,
                    "right": -1,
                }
            )
            stack.append((node.right, pos, "right"))
            stack.append((node.left, pos, "left"))
        if parent_pos is not None:
            nodes[parent_pos][side] = pos
    return {
        "nodes": nodes,
        "n_features": tree.n_features,
        "criterion": tree.criterion,
    }


def _decode_tree(data: Mapping) -> DecisionTree:
    raw = data["nodes"]
    built: list[Leaf | Internal] = []
    for entry in raw:
        if "counts" in entry:
            built.append(
                Leaf(counts=tuple(entry["counts"]), label=Label(entry["label"]))
            )
        else:
            built.append(
                Internal(feature=entry["feature"], threshold=entry["threshold"])
            )
    for entry, node in zip(raw, built):
        if isinstance(node, Internal):
            node.left = built[entry["left"]]
            node.right = built[entry["right"]]
    return DecisionTree(
        root=built[0], n_features=data["n_features"], criterion=data["criterion"]
    )


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
        return {
            "train_x": model.train_X.tolist(),
            "train_y": model.train_y.tolist(),
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
    if kind == "decision_tree":
        return _decode_tree(params["tree"])
    if kind == "random_forest":
        return ForestModel(
            trees=[_decode_tree(t) for t in params["trees"]],
            tree_seeds=list(params["tree_seeds"]),
            n_features=params["n_features"],
            mtry=params["mtry"],
        )
    if kind == "knn":
        return KnnModel(
            train_X=np.asarray(params["train_x"], dtype=float),
            train_y=np.asarray(params["train_y"], dtype=np.int64),
            k=params["k"],
        )
    if kind == "gaussian_nb":
        return GaussianNbModel(
            classes=tuple(params["classes"]),
            priors=np.asarray(params["priors"], dtype=float),
            means=np.asarray(params["means"], dtype=float),
            variances=np.asarray(params["variances"], dtype=float),
            epsilon=params["epsilon"],
        )
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

    def predict(self, data: Dataset) -> list[Label]:
        """Predict every row of a dataset that holds at least this bundle's columns.

        The rows are projected and scaled once as a matrix, then predicted
        one by one.
        """
        X = standardize_apply(self.scaler, data.select(self.feature_names).X)
        return predict_batch(self.model, X)

    def to_dict(self) -> dict:
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
        if data.get("format") != FORMAT_NAME:
            raise UsageError("not a model file")
        spec = ClassifierSpec(**data["spec"])
        return cls(
            spec=spec,
            horizon=data["horizon"],
            feature_names=tuple(data["feature_names"]),
            scaler=Scaler.from_dict(data["scaler"]),
            model=model_from_params(spec.kind, data["params"]),
        )


def bundle_json(bundle: ModelBundle) -> str:
    return json.dumps(bundle.to_dict(), sort_keys=True, indent=2) + "\n"


def save_bundle(bundle: ModelBundle, path: Path | str) -> None:
    Path(path).write_text(bundle_json(bundle), encoding="utf-8")


def load_bundle(path: Path | str) -> ModelBundle:
    return ModelBundle.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def fit_bundles(
    spec: ClassifierSpec, split: TrainTestSplit, horizons: Sequence[int]
) -> Iterator[ModelBundle]:
    """Fit one classifier per horizon on the training rows labeled at it.

    The training matrix is scaled once with the split's scaler, which was
    fitted on every training row (labeled or not), so all horizons share
    one feature scaling.
    """
    train = split.train
    X = standardize_apply(split.scaler, train.X)
    for horizon in horizons:
        y = train.labels(horizon)
        labeled = y >= 0
        if not labeled.any():
            raise EmptyTraining(f"no training rows labeled at horizon {horizon}")
        yield ModelBundle(
            spec=spec,
            horizon=horizon,
            feature_names=train.feature_names,
            scaler=split.scaler,
            model=fit_classifier(spec, X[labeled], y[labeled]),
        )


def fit_bundle(spec: ClassifierSpec, split: TrainTestSplit, horizon: int) -> ModelBundle:
    return next(fit_bundles(spec, split, (horizon,)))
