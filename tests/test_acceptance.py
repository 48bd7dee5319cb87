"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line when its criterion holds (visible with -s),
and the per-test pytest outcome doubles as the pass/fail report.
"""

import datetime as dt
import io
import time
from decimal import Decimal

import numpy as np
import pytest
from conftest import horizon_report, make_dataset, node_split, synthetic_market_bytes
from oracles import brute_force_best_split, brute_force_labels, simulate_backtest

from stocksignals import cli
from stocksignals.backtest import BacktestConfig, return_percentage, run_backtest
from stocksignals.classifiers import ClassifierSpec
from stocksignals.evaluation import (
    class_metrics,
    confusion_matrix,
    evaluate_per_horizon,
    micro_f1,
)
from stocksignals.labels import Label
from stocksignals.pca import (
    RankConfig,
    contribution_scores,
    jacobi_eigen,
)
from stocksignals.transform import (
    FEATURE_COLUMNS,
    LabelConfig,
    SplitConfig,
    label_closes,
    shuffle_split,
    split_dataset,
)
from stocksignals.pca import rank_features


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_labeling_matches_brute_force_oracle():
    rng = np.random.default_rng(101)
    horizons = tuple(range(1, 11))
    cfg = LabelConfig(horizons=horizons)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(12, 61))
        walk = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.012, size=n)))
        closes = [float(x) for x in walk]
        mine = label_closes(closes, cfg).tolist()
        oracle = brute_force_labels(closes, horizons)
        for got, want in zip(mine, oracle):
            for g, w in zip(got, want):
                if g != (-1 if w is None else w):
                    mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 5.0, f"labeling oracle sweep took {elapsed:.2f}s"
    _report(1, "labeling oracle, 1000 series, 0 mismatches")


def test_criterion_02_micro_f1_equals_accuracy_exactly():
    rng = np.random.default_rng(202)
    for _ in range(10_000):
        n = int(rng.integers(1, 201))
        y_true = rng.integers(0, 3, size=n)
        y_pred = rng.integers(0, 3, size=n)
        cm = confusion_matrix(
            [Label(int(v)) for v in y_true], [Label(int(v)) for v in y_pred]
        )
        matches = int((y_true == y_pred).sum())
        assert cm.trace == matches and cm.total == n
        assert micro_f1(cm) == matches / n
    _report(2, "micro-F1 identity over 10,000 random triples")


def test_criterion_03_vacuous_sell_recall_reproduction():
    rng = np.random.default_rng(303)
    for _ in range(20):
        n = int(rng.integers(3, 200))
        y_true = [Label(int(v)) for v in rng.integers(0, 3, size=n)]
        y_true[0], y_true[1], y_true[2] = Label.SELL, Label.HOLD, Label.BUY
        y_pred = [Label.SELL] * n
        cm = confusion_matrix(y_true, y_pred)
        sell = class_metrics(cm, Label.SELL)
        buy = class_metrics(cm, Label.BUY)
        assert sell.recall == 1.0
        assert buy.precision == 0.0
        assert buy.no_predictions
    _report(3, "constant-Sell predictor: recall 1.0, vacuous buy precision")


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_criterion_04_split_search_matches_brute_force(criterion):
    rng = np.random.default_rng(404 if criterion == "gini" else 405)
    for _ in range(100):  # 100 per criterion = 200 datasets over the two runs
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 5))
        X = rng.uniform(-10.0, 10.0, size=(n, d))
        y = rng.integers(0, 3, size=n)
        mine = node_split(X, y, criterion, range(d))
        oracle = brute_force_best_split(X.tolist(), y.tolist(), criterion)
        if oracle is None:
            assert mine is None
        else:
            assert mine is not None
            assert (mine.feature, mine.threshold) == (oracle[0], oracle[1])
    _report(4, f"split search vs exhaustive brute force ({criterion})")


def test_criterion_05_eigensolver_properties():
    rng = np.random.default_rng(505)
    for _ in range(100):
        d = int(rng.integers(2, 29))
        M = rng.normal(size=(d, d))
        A = (M + M.T) / 2.0
        eig = jacobi_eigen(A)
        V, lam = eig.eigenvectors, eig.eigenvalues
        assert np.abs(V @ np.diag(lam) @ V.T - A).max() < 1e-8
        assert np.abs(V.T @ V - np.eye(d)).max() < 1e-9
        assert abs(float(lam.sum()) - float(np.trace(A))) < 1e-9
    pair = jacobi_eigen([[2.0, 1.0], [1.0, 2.0]])
    assert abs(pair.eigenvalues[0] - 3.0) < 1e-9
    assert abs(pair.eigenvalues[1] - 1.0) < 1e-9
    _report(5, "Jacobi eigensolver on 100 random symmetric matrices")


def test_criterion_06_weighted_occurrence_arithmetic():
    cfg = RankConfig()
    # total_hold_recs contributes to PCs 1-5 and total_buy_recs to PCs 1, 2, 3 and 5
    occurrences, weighted = contribution_scores(
        [[0.3, -0.2, 0.15, 0.4, -0.1, 0.05], [0.3, 0.2, -0.15, 0.0, 0.1, -0.09]], cfg
    )
    assert list(zip(occurrences.tolist(), weighted.tolist())) == [(5, 20), (4, 17)]
    _, full = contribution_scores([[0.5] * 6], cfg)
    assert full.tolist() == [sum(cfg.weights)] == [21]
    _report(6, "contribution scoring matches the reference rows, max 21")


def test_criterion_07_backtest_matches_hand_rule_simulator():
    d0 = dt.date(2020, 1, 1)

    def bars(prices, signals):
        ds = [d0 + dt.timedelta(days=i) for i in range(len(prices))]
        return list(zip(ds, prices)), list(zip(ds, signals))

    closes, signals = bars(
        [100.0, 101.5, 100.2, 99.1, 100.0],
        [Label.BUY, Label.BUY, Label.SELL, Label.SELL, Label.BUY],
    )
    report = run_backtest(closes, signals, BacktestConfig())
    assert [(t.side, t.exit_reason, t.pnl) for t in report.trades] == [
        ("long", "take_profit", Decimal("1.4800")),
        ("long", "stop_loss", Decimal("-1.3200")),
        ("short", "take_profit", Decimal("1.0800")),
        ("short", "signal_reversal", Decimal("-0.9200")),
        ("long", "end_of_data", Decimal("-0.0200")),
    ]
    assert report.total_profit == Decimal("0.3000")

    rng = np.random.default_rng(707)
    for _ in range(500):
        n = int(rng.integers(1, 50))
        prices = [
            round(float(p), 4)
            for p in rng.uniform(20, 400) * np.exp(np.cumsum(rng.normal(0, 0.02, n)))
        ]
        raw_signals = [int(v) for v in rng.integers(0, 3, size=n)]
        closes, sigs = bars(prices, [Label(s) for s in raw_signals])
        mine = run_backtest(closes, sigs, BacktestConfig())
        oracle = simulate_backtest(closes, list(zip([c[0] for c in closes], raw_signals)))
        got = [
            (t.open_date, t.close_date, t.side, t.entry_price, t.exit_price, t.exit_reason, t.pnl)
            for t in mine.trades
        ]
        assert got == oracle
    _report(7, "backtest equals hand-rule simulator on 500 random runs")


def test_criterion_08_return_percentage_reference_rows():
    rows = [
        (85.63, 102.97, 83.16),
        (479.30, 636.99, 75.25),
        (87.30, 99.96, 87.34),
        (118.12, 107.66, 109.72),
        (466.83, 761.53, 61.30),
    ]
    for profit, initial, expected in rows:
        assert return_percentage(profit, initial) == pytest.approx(expected, abs=0.01)
    _report(8, "all five reference return-percentage rows within 0.01")


# --- criterion 9: synthetic learnability -------------------------------------------

A_IDX, B_IDX = 3, 10
A_BLOCK = (3, 4, 5, 6)
B_BLOCK = (10, 11, 12, 13)


def _learnable_rows(n=5000, seed=909):
    """Rows whose day-10 label is a noisy threshold of features 3 and 10.

    The two informative columns sit in correlated blocks so their structure
    dominates the top principal components; the remaining columns are iid
    noise.
    """
    rng = np.random.default_rng(seed)
    g = rng.normal(size=n)
    h = rng.normal(size=n)
    u = g + 0.5 * h
    v = g - 0.5 * h
    X = rng.normal(size=(n, 28))
    for column in A_BLOCK:
        X[:, column] = u + 0.15 * rng.normal(size=n)
    for column in B_BLOCK:
        X[:, column] = v + 0.15 * rng.normal(size=n)
    score = X[:, A_IDX] + X[:, B_IDX]
    labels = np.where(score > 1.0, 2, np.where(score < -1.0, 0, 1))
    noise = rng.random(n) < 0.10
    labels[noise] = rng.integers(0, 3, size=int(noise.sum()))
    Y = np.full((n, 10), -1, dtype=np.int8)
    Y[:, 9] = labels
    return make_dataset(X, Y, tickers="SYN")


def test_criterion_09_synthetic_learnability_and_top6_retention():
    started = time.perf_counter()
    data = _learnable_rows()
    train_idx, test_idx = shuffle_split(data, SplitConfig(train_fraction=0.7, seed=17))
    split = split_dataset(data, train_idx, test_idx)
    spec = ClassifierSpec(kind="random_forest", seed=17)

    report = evaluate_per_horizon(spec, split)
    day10 = horizon_report(report, 10)
    truths = split.test.labels(10).tolist()
    baseline = max(truths.count(c) for c in (Label.SELL, Label.HOLD, Label.BUY)) / len(truths)
    assert day10.micro_f1 >= baseline + 0.10, (
        f"micro_f1 {day10.micro_f1:.4f} vs baseline {baseline:.4f}"
    )

    ranking = rank_features(split.train.X, split.scaler, FEATURE_COLUMNS, RankConfig(top_k=6))
    selected = ranking.selected
    informative = set(A_BLOCK) | set(B_BLOCK)
    selected_idx = {FEATURE_COLUMNS.index(name) for name in selected}
    assert selected_idx <= informative, f"selection leaked noise columns: {selected}"

    small_report = evaluate_per_horizon(spec, split.select(selected))
    small_day10 = horizon_report(small_report, 10)
    assert day10.micro_f1 - small_day10.micro_f1 <= 0.05, (
        f"top-6 lost {day10.micro_f1 - small_day10.micro_f1:.4f}"
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"synthetic run took {elapsed:.1f}s"
    _report(9, f"forest {day10.micro_f1:.3f} vs baseline {baseline:.3f}; top-6 {small_day10.micro_f1:.3f}")


def test_criterion_10_pipeline_determinism(tmp_path):
    data = tmp_path / "market.csv"
    data.write_bytes(synthetic_market_bytes(n_tickers=3, n_days=70, seed=1010))
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    for out in (out_a, out_b):
        code = cli.main(
            [
                "pipeline",
                "--data", str(data),
                "--out", str(out),
                "--seed", "123",
                "--trees", "5",
            ]
        )
        assert code == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    _report(10, f"two pipeline runs byte-identical across {len(names_a)} files")
