import numpy as np
import pytest
from conftest import random_dataset

from stocksignals.classifiers import ClassifierSpec
from stocksignals.errors import EmptyDataset, LengthMismatch, NoEvaluableHorizon
from stocksignals.evaluation import (
    ConfusionMatrix,
    class_metrics,
    confusion_matrix,
    evaluate_per_horizon,
    micro_f1,
)
from stocksignals.labels import Label
from stocksignals.transform import split_dataset

S, H, B = Label.SELL, Label.HOLD, Label.BUY


def test_confusion_single_pair():
    cm = confusion_matrix([B], [B])
    assert cm.counts[2][2] == 1
    assert cm.total == 1


def test_confusion_counts_cells():
    cm = confusion_matrix([S, H], [H, H])
    assert cm.counts[0][1] == 1
    assert cm.counts[1][1] == 1
    assert cm.total == 2


def test_confusion_errors():
    with pytest.raises(LengthMismatch):
        confusion_matrix([S], [S, H])
    with pytest.raises(EmptyDataset):
        confusion_matrix([], [])


def test_perfect_diagonal_metrics():
    cm = confusion_matrix([S, H, B, S, H, B], [S, H, B, S, H, B])
    for label in (S, H, B):
        metrics = class_metrics(cm, label)
        assert (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)
        assert not metrics.no_predictions and not metrics.no_instances
    assert micro_f1(cm) == 1.0


def test_constant_sell_predictor_vacuous_flags():
    y_true = [S, S, H, B, B, B]
    y_pred = [S] * 6
    cm = confusion_matrix(y_true, y_pred)
    buy = class_metrics(cm, B)
    sell = class_metrics(cm, S)
    assert buy.precision == 0.0 and buy.no_predictions
    assert sell.recall == 1.0 and not sell.no_instances


def test_hand_computed_precision_recall_f1():
    # buy: tp=3, fp=1, fn=2
    y_true = [B, B, B, B, B, S, H]
    y_pred = [B, B, B, S, H, B, H]
    metrics = class_metrics(confusion_matrix(y_true, y_pred), B)
    assert metrics.precision == pytest.approx(0.75, abs=1e-15)
    assert metrics.recall == pytest.approx(0.6, abs=1e-15)
    assert metrics.f1 == pytest.approx(2 / 3, abs=1e-15)


def test_micro_f1_values():
    y_true = [S, S, H, H, B, B, B, B]
    y_pred = [S, H, H, B, B, B, S, B]
    cm = confusion_matrix(y_true, y_pred)
    assert micro_f1(cm) == 0.625
    with pytest.raises(EmptyDataset):
        micro_f1(ConfusionMatrix(counts=((0,) * 3,) * 3))


def test_micro_f1_equals_accuracy_exactly():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 200))
        y_true = [Label(int(v)) for v in rng.integers(0, 3, size=n)]
        y_pred = [Label(int(v)) for v in rng.integers(0, 3, size=n)]
        cm = confusion_matrix(y_true, y_pred)
        matches = sum(1 for t, p in zip(y_true, y_pred) if t == p)
        assert cm.trace == matches
        assert micro_f1(cm) == matches / n


def test_metric_ranges_and_f1_zero_iff():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        cm = confusion_matrix(
            [Label(int(v)) for v in rng.integers(0, 3, size=n)],
            [Label(int(v)) for v in rng.integers(0, 3, size=n)],
        )
        for label in (S, H, B):
            m = class_metrics(cm, label)
            assert 0.0 <= m.precision <= 1.0
            assert 0.0 <= m.recall <= 1.0
            assert 0.0 <= m.f1 <= 1.0
            assert (m.f1 == 0.0) == (m.precision * m.recall == 0.0)


def test_joint_permutation_leaves_metrics_unchanged():
    rng = np.random.default_rng(3)
    y_true = [Label(int(v)) for v in rng.integers(0, 3, size=50)]
    y_pred = [Label(int(v)) for v in rng.integers(0, 3, size=50)]
    base = confusion_matrix(y_true, y_pred)
    perm = rng.permutation(50)
    shuffled = confusion_matrix(
        [y_true[i] for i in perm], [y_pred[i] for i in perm]
    )
    assert shuffled == base


def _split(data, fraction=0.7):
    cut = int(len(data) * fraction)
    return split_dataset(data, slice(0, cut), slice(cut, len(data)))


def test_evaluate_per_horizon_structure_and_determinism():
    split = _split(random_dataset(80, seed=6))
    spec = ClassifierSpec(kind="decision_tree", seed=13)
    report = evaluate_per_horizon(spec, split)
    assert len(report.horizons) == 10
    assert [h.horizon for h in report.horizons] == list(range(1, 11))
    for horizon in report.horizons:
        assert horizon.n_test == len(split.test)
        assert horizon.confusion.total == horizon.n_test
        assert 0.0 <= horizon.micro_f1 <= 1.0
        # metric assignment: buy -> precision, sell -> recall, hold -> f1
        assert horizon.buy_precision == horizon.buy.precision
        assert horizon.sell_recall == horizon.sell.recall
        assert horizon.hold_f1 == horizon.hold.f1
    again = evaluate_per_horizon(spec, split)
    assert again == report


def test_evaluate_skips_unlabeled_horizons():
    data = random_dataset(40, seed=7)
    data.Y[:, 3] = -1  # blank out horizon 4 everywhere
    report = evaluate_per_horizon(ClassifierSpec(kind="gaussian_nb"), _split(data))
    assert report.omitted_horizons == (4,)
    assert [h.horizon for h in report.horizons] == [1, 2, 3, 5, 6, 7, 8, 9, 10]


def test_evaluate_no_evaluable_horizon():
    data = random_dataset(10, seed=8)
    data.Y[:] = -1
    with pytest.raises(NoEvaluableHorizon):
        evaluate_per_horizon(ClassifierSpec(kind="decision_tree"), _split(data))
