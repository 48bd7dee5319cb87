"""Confusion matrices and per-horizon signal metrics.

Metric assignment follows the trading use of each signal: precision for
buys (a predicted buy should be a real one), recall for sells (missing a
sell is costly), F1 for holds, and micro-averaged F1 for the whole model,
which for single-label multiclass equals accuracy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from stocksignals.classifiers.base import ClassifierSpec, ModelBundle, fit_bundles, predict_labels
from stocksignals.errors import DataError, EmptyDataset, NoEvaluableHorizon
from stocksignals.labels import Label
from stocksignals.transform import TrainTestSplit, standardize_apply

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClassMetrics:
    """Precision/recall/F1 for one class, with vacuous-denominator flags.

    A 0/0 metric reports 0 with the matching flag set instead of 1 or NaN,
    so a classifier that never predicts a class is diagnosable from the
    report rather than looking vacuously perfect.
    """

    precision: float
    recall: float
    f1: float
    no_predictions: bool
    no_instances: bool


def confusion_matrix(
    y_true: Sequence[Label], y_pred: Sequence[Label]
) -> tuple[tuple[int, ...], ...]:
    """3x3 counts, rows = true label, columns = predicted, order Sell/Hold/Buy."""
    if len(y_true) != len(y_pred):
        raise DataError(f"{len(y_true)} true vs {len(y_pred)} predicted")
    if len(y_true) == 0:
        raise EmptyDataset("cannot build a confusion matrix from zero pairs")
    counts = np.zeros((3, 3), dtype=np.int64)
    np.add.at(counts, (np.asarray(y_true, dtype=np.intp), np.asarray(y_pred, dtype=np.intp)), 1)
    return tuple(map(tuple, counts.tolist()))


def class_metrics(cm: tuple[tuple[int, ...], ...], label: Label) -> ClassMetrics:
    tp = cm[label][label]
    predicted = sum(row[label] for row in cm)
    actual = sum(cm[label])
    no_predictions = predicted == 0
    no_instances = actual == 0
    precision = 0.0 if no_predictions else tp / predicted
    recall = 0.0 if no_instances else tp / actual
    f1 = 0.0 if precision * recall == 0.0 else 2 * precision * recall / (precision + recall)
    return ClassMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        no_predictions=no_predictions,
        no_instances=no_instances,
    )


def micro_f1(cm: tuple[tuple[int, ...], ...]) -> float:
    """Micro-averaged F1 = trace / total, i.e. accuracy for single-label data."""
    total = sum(map(sum, cm))
    if total == 0:
        raise EmptyDataset("empty confusion matrix")
    return sum(cm[i][i] for i in range(3)) / total


@dataclass(frozen=True)
class HorizonReport:
    horizon: int
    sell: ClassMetrics
    hold: ClassMetrics
    buy: ClassMetrics
    micro_f1: float
    confusion: tuple[tuple[int, ...], ...]
    n_test: int

    @property
    def buy_precision(self) -> float:
        return self.buy.precision

    @property
    def sell_recall(self) -> float:
        return self.sell.recall

    @property
    def hold_f1(self) -> float:
        return self.hold.f1


@dataclass(frozen=True)
class EvaluationReport:
    spec: ClassifierSpec
    horizons: tuple[HorizonReport, ...]
    sector: str | None = None
    omitted_horizons: tuple[int, ...] = field(default_factory=tuple)


def evaluate_per_horizon(
    spec: ClassifierSpec,
    split: TrainTestSplit,
    sector: str | None = None,
    fitted: dict[int, ModelBundle] | None = None,
) -> EvaluationReport:
    """One independently fitted classifier per horizon, day-1 through day-n.

    Every horizon with labeled rows on both sides of the split is fitted on
    its labeled training rows by one fit_bundles call, and one predict_labels
    call predicts the test matrix, scaled once, for all of them; each report
    counts its horizon's labeled test rows only. Other horizons are omitted
    with a warning; if none is evaluable the whole call fails. `fitted`, when
    given, receives the bundles by horizon.
    """
    train, test = split.train, split.test
    evaluable = [
        horizon for horizon in train.horizons
        if (train.labels(horizon) >= 0).any() and (test.labels(horizon) >= 0).any()
    ]
    omitted = [horizon for horizon in train.horizons if horizon not in evaluable]
    for horizon in omitted:
        logger.warning("horizon %d has no labeled train/test rows; omitted", horizon)
    if not evaluable:
        raise NoEvaluableHorizon("no horizon had labeled train and test rows")
    bundles = fit_bundles(spec, split, evaluable)
    if fitted is not None:
        fitted.update((bundle.horizon, bundle) for bundle in bundles)
    X_test = standardize_apply(split.scaler, test.X)
    predicted = predict_labels([bundle.model for bundle in bundles], X_test)
    reports: list[HorizonReport] = []
    for horizon, labels in zip(evaluable, predicted.T):
        y_true = test.labels(horizon)
        labeled = y_true >= 0
        cm = confusion_matrix(y_true[labeled], labels[labeled])
        reports.append(
            HorizonReport(
                horizon=horizon,
                sell=class_metrics(cm, Label.SELL),
                hold=class_metrics(cm, Label.HOLD),
                buy=class_metrics(cm, Label.BUY),
                micro_f1=micro_f1(cm),
                confusion=cm,
                n_test=int(labeled.sum()),
            )
        )
    return EvaluationReport(
        spec=spec,
        horizons=tuple(reports),
        sector=sector,
        omitted_horizons=tuple(omitted),
    )
