import numpy as np
import pytest
from conftest import random_dataset
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_evaluate_per_horizon

from stocksignals.classifiers import KINDS, ClassifierSpec
from stocksignals.errors import DataError, EmptyDataset, KTooLarge, NoEvaluableHorizon
from stocksignals.evaluation import (
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
    assert cm[2][2] == 1
    assert sum(map(sum, cm)) == 1


def test_confusion_counts_cells():
    cm = confusion_matrix([S, H], [H, H])
    assert cm[0][1] == 1
    assert cm[1][1] == 1
    assert sum(map(sum, cm)) == 2


def test_confusion_errors():
    with pytest.raises(DataError, match="^1 true vs 2 predicted$"):
        confusion_matrix([S], [S, H])
    with pytest.raises(EmptyDataset):
        confusion_matrix([], [])
    with pytest.raises(IndexError):
        confusion_matrix([3], [S])


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
        micro_f1(((0,) * 3,) * 3)


def test_micro_f1_equals_accuracy_exactly():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 200))
        y_true = [Label(int(v)) for v in rng.integers(0, 3, size=n)]
        y_pred = [Label(int(v)) for v in rng.integers(0, 3, size=n)]
        cm = confusion_matrix(y_true, y_pred)
        matches = sum(1 for t, p in zip(y_true, y_pred) if t == p)
        assert sum(cm[i][i] for i in range(3)) == matches
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


@st.composite
def label_pairs(draw):
    """(true, predicted) pairs whose true and predicted labels each come from
    a drawn subset of the classes, so some classes are never present or never
    predicted."""
    true_classes = draw(st.lists(st.sampled_from(Label), min_size=1, max_size=3, unique=True))
    pred_classes = draw(st.lists(st.sampled_from(Label), min_size=1, max_size=3, unique=True))
    pair = st.tuples(st.sampled_from(true_classes), st.sampled_from(pred_classes))
    return draw(st.lists(pair, min_size=1, max_size=60))


@settings(max_examples=300, deadline=None)
@given(label_pairs())
def test_metrics_match_brute_force_counts(pairs):
    cm = confusion_matrix([t for t, _ in pairs], [p for _, p in pairs])
    for t in Label:
        for p in Label:
            assert cm[t][p] == sum(1 for pair in pairs if pair == (t, p))
    for label in Label:
        hits = sum(1 for t, p in pairs if t == p == label)
        predicted = sum(1 for _, p in pairs if p == label)
        present = sum(1 for t, _ in pairs if t == label)
        m = class_metrics(cm, label)
        assert (m.no_predictions, m.no_instances) == (predicted == 0, present == 0)
        assert m.precision == (hits / predicted if predicted else 0.0)
        assert m.recall == (hits / present if present else 0.0)
        # F1 is the harmonic mean of the two, 2 * hits / (predicted + present)
        assert m.f1 == pytest.approx(2 * hits / (predicted + present) if hits else 0.0, rel=1e-12)
    assert micro_f1(cm) == sum(1 for t, p in pairs if t == p) / len(pairs)


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
        assert sum(map(sum, horizon.confusion)) == horizon.n_test
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


def _masked_split(seed, n=90):
    """A random split whose horizons have different labeled-row counts and
    whose horizon 7 has no labeled training row (so it is omitted)."""
    data = random_dataset(n, seed=seed)
    rng = np.random.default_rng(seed)
    data.Y[rng.random(data.Y.shape) < 0.3] = -1
    split = _split(data)
    split.train.Y[:, 6] = -1
    return split


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_evaluate_matches_per_horizon_reference(kind, seed):
    split = _masked_split(seed)
    subset = split.select(split.train.feature_names[seed % 5 :: 3])
    spec = ClassifierSpec(kind=kind, k=1 + seed % 7, n_trees=3, max_depth=4, seed=seed)
    for case in (split, subset):
        report = evaluate_per_horizon(spec, case, sector="Tech")
        assert report == reference_evaluate_per_horizon(spec, case, sector="Tech")
        assert report.omitted_horizons == (7,)


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_evaluate_knn_k_between_horizon_counts_raises_like_reference(seed):
    split = _masked_split(seed)
    counts = [int((split.train.labels(h) >= 0).sum()) for h in split.train.horizons if h != 7]
    k = sorted(counts)[len(counts) // 2]  # enough rows for some horizons, too few for others
    assert min(counts) < k <= max(counts)
    spec = ClassifierSpec(kind="knn", k=k)
    with pytest.raises(KTooLarge) as expected:
        reference_evaluate_per_horizon(spec, split)
    with pytest.raises(KTooLarge) as got:
        evaluate_per_horizon(spec, split)
    assert str(got.value) == str(expected.value)
