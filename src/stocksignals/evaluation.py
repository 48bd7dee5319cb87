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

from stocksignals.classifiers import ClassifierSpec, horizon_labels
from stocksignals.errors import (
    EmptyDataset,
    LengthMismatch,
    NoEvaluableHorizon,
)
from stocksignals.labels import Label
from stocksignals.transform import TrainTestSplit, standardize_apply

logger = logging.getLogger(__name__)

LABEL_ORDER = (Label.SELL, Label.HOLD, Label.BUY)


@dataclass(frozen=True)
class ConfusionMatrix:
    """3x3 counts, rows = true label, columns = predicted, order Sell/Hold/Buy."""

    counts: tuple[tuple[int, int, int], ...]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(3))

    def row(self, label: Label) -> tuple[int, int, int]:
        return self.counts[int(label)]

    def column(self, label: Label) -> tuple[int, int, int]:
        j = int(label)
        return tuple(self.counts[i][j] for i in range(3))


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
) -> ConfusionMatrix:
    if len(y_true) != len(y_pred):
        raise LengthMismatch(f"{len(y_true)} true vs {len(y_pred)} predicted")
    if not y_true:
        raise EmptyDataset("cannot build a confusion matrix from zero pairs")
    counts = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for t, p in zip(y_true, y_pred):
        counts[int(t)][int(p)] += 1
    return ConfusionMatrix(counts=tuple(tuple(row) for row in counts))


def class_metrics(cm: ConfusionMatrix, label: Label) -> ClassMetrics:
    tp = cm.counts[int(label)][int(label)]
    predicted = sum(cm.column(label))
    actual = sum(cm.row(label))
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


def micro_f1(cm: ConfusionMatrix) -> float:
    """Micro-averaged F1 = trace / total, i.e. accuracy for single-label data."""
    total = cm.total
    if total == 0:
        raise EmptyDataset("empty confusion matrix")
    return cm.trace / total


@dataclass(frozen=True)
class HorizonReport:
    horizon: int
    sell: ClassMetrics
    hold: ClassMetrics
    buy: ClassMetrics
    micro_f1: float
    confusion: ConfusionMatrix
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
    seed: int
    horizons: tuple[HorizonReport, ...]
    sector: str | None = None
    omitted_horizons: tuple[int, ...] = field(default_factory=tuple)

    def by_horizon(self, horizon: int) -> HorizonReport:
        for report in self.horizons:
            if report.horizon == horizon:
                return report
        raise KeyError(horizon)


def evaluate_per_horizon(
    spec: ClassifierSpec, split: TrainTestSplit, sector: str | None = None
) -> EvaluationReport:
    """One independently fitted classifier per horizon, day-1 through day-n.

    Each is fitted on the labeled training rows and scored on the labeled
    test rows; every horizon shares the split's scaler. The test matrix is
    scaled once and `horizon_labels` predicts all of it for every evaluable
    horizon (kNN shares its distance blocks across them); each horizon's
    report counts its labeled test rows only. Horizons with no labeled row on
    either side of the split are omitted with a warning; if none is
    evaluable the whole call fails.
    """
    train, test = split.train, split.test
    evaluable: list[int] = []
    omitted: list[int] = []
    for horizon in train.horizons:
        if (train.labels(horizon) >= 0).any() and (test.labels(horizon) >= 0).any():
            evaluable.append(horizon)
        else:
            logger.warning("horizon %d has no labeled train/test rows; omitted", horizon)
            omitted.append(horizon)
    if not evaluable:
        raise NoEvaluableHorizon("no horizon had labeled train and test rows")
    X_test = standardize_apply(split.scaler, test.X)
    predicted = horizon_labels(spec, split, evaluable, X_test)
    reports: list[HorizonReport] = []
    for horizon, labels in zip(evaluable, predicted.T):
        y_true = test.labels(horizon)
        labeled = y_true >= 0
        cm = confusion_matrix(y_true[labeled].tolist(), labels[labeled].tolist())
        reports.append(
            HorizonReport(
                horizon=horizon,
                sell=class_metrics(cm, Label.SELL),
                hold=class_metrics(cm, Label.HOLD),
                buy=class_metrics(cm, Label.BUY),
                micro_f1=micro_f1(cm),
                confusion=cm,
                n_test=cm.total,
            )
        )
    return EvaluationReport(
        spec=spec,
        seed=spec.seed,
        horizons=tuple(reports),
        sector=sector,
        omitted_horizons=tuple(omitted),
    )
