import datetime as dt
import math
import re
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import simulate_backtest

from stocksignals.backtest import (
    END_OF_DATA,
    LONG,
    SHORT,
    SIGNAL_REVERSAL,
    STOP_LOSS,
    TAKE_PROFIT,
    BacktestConfig,
    return_percentage,
    run_backtest,
    to_price,
)
from stocksignals.errors import DataError, EmptyDataset, UsageError
from stocksignals.labels import Label

CFG = BacktestConfig()
D0 = dt.date(2020, 1, 1)


def dates(n):
    return [D0 + dt.timedelta(days=i) for i in range(n)]


def bars(prices, signals):
    """The date, close and signal columns of a replay from D0 on."""
    return dates(len(prices)), prices, signals


def exits(prices, signals, cfg=BacktestConfig(liquidate_at_end=False)):
    """(side, exit price, exit reason) of each trade of a replay."""
    report = run_backtest(*bars(prices, signals), cfg)
    return [(t.side, t.exit_price, t.exit_reason) for t in report.trades]


# --- stops ---------------------------------------------------------------------

def test_long_stop_checks():
    def long_at_100_then(close):
        return exits([100.0, close], [Label.BUY, Label.HOLD])

    assert long_at_100_then(101.2) == [(LONG, to_price(101.2), TAKE_PROFIT)]
    assert long_at_100_then(99.0) == [(LONG, to_price(99.0), STOP_LOSS)]
    assert long_at_100_then(100.5) == []
    assert exits([55.0], [Label.HOLD]) == []


def test_short_stop_checks_symmetric():
    def short_at_100_then(close):
        return exits([100.0, close], [Label.SELL, Label.HOLD])

    assert short_at_100_then(99.0) == [(SHORT, to_price(99.0), TAKE_PROFIT)]
    assert short_at_100_then(101.0) == [(SHORT, to_price(101.0), STOP_LOSS)]
    assert short_at_100_then(100.5) == []


def test_stop_boundaries_inclusive_exact():
    assert exits([100.0, 101.0], [Label.BUY, Label.HOLD]) == [(LONG, to_price(101.0), TAKE_PROFIT)]
    assert exits([100.0, 99.0], [Label.BUY, Label.HOLD]) == [(LONG, to_price(99.0), STOP_LOSS)]
    threshold = Decimal("33.3333") * Decimal("1.01")  # 33.666633
    # a quantized close just below the exact band does not trigger, one above does
    below = float(threshold.quantize(Decimal("0.0001"), ROUND_FLOOR))
    above = float(threshold.quantize(Decimal("0.0001"), ROUND_CEILING))
    assert exits([33.3333, below], [Label.BUY, Label.HOLD]) == []
    assert exits([33.3333, above], [Label.BUY, Label.HOLD]) == [
        (LONG, to_price(above), TAKE_PROFIT)
    ]


def test_take_profit_wins_when_both_bands_are_hit():
    # a close below $0.00005 prices at $0.0000, where all four bands meet
    prices = [1.0, 0.00001, 0.00002]
    for side, signal in ((LONG, Label.BUY), (SHORT, Label.SELL)):
        assert exits(prices, [Label.HOLD, signal, Label.HOLD]) == [
            (side, to_price(0), TAKE_PROFIT)
        ]


# --- signal transitions ------------------------------------------------------------

def test_flat_buy_opens_long_without_trade():
    assert exits([50.0], [Label.BUY]) == []
    (trade,) = run_backtest(*bars([50.0], [Label.BUY]), CFG).trades
    assert (trade.side, trade.entry_price, trade.open_date) == (LONG, to_price(50.0), D0)
    assert trade.exit_reason == END_OF_DATA


def test_flat_hold_stays_flat():
    assert run_backtest(*bars([50.0], [Label.HOLD]), CFG).trades == ()


def test_long_buy_unchanged():
    # a take-profit band above 105 keeps the stops out of the way
    cfg = BacktestConfig(take_profit_fraction=0.1)
    for signal in (Label.BUY, Label.HOLD):
        (trade,) = run_backtest(*bars([100.0, 105.0], [Label.BUY, signal]), cfg).trades
        assert (trade.side, trade.open_date, trade.entry_price) == (LONG, D0, to_price(100.0))
        assert (trade.exit_price, trade.exit_reason) == (to_price(105.0), END_OF_DATA)
    # the bands stay where the open at 100 set them
    assert exits([100.0, 100.5, 101.2], [Label.BUY, Label.BUY, Label.HOLD]) == [
        (LONG, to_price(101.2), TAKE_PROFIT)
    ]


def test_short_buy_reverses_with_hand_computed_pnl():
    day = D0 + dt.timedelta(days=1)
    reversal, reopened = run_backtest(*bars([100.0, 99.5], [Label.SELL, Label.BUY]), CFG).trades
    assert (reversal.side, reversal.close_date) == (SHORT, day)
    assert reversal.exit_reason == SIGNAL_REVERSAL
    assert reversal.pnl == Decimal("0.4800")
    assert (reopened.side, reopened.open_date, reopened.entry_price) == (LONG, day, to_price(99.5))


# --- full runs -----------------------------------------------------------------------

def test_five_bar_hand_simulated_scenario():
    report = run_backtest(
        *bars(
            [100.0, 101.5, 100.2, 99.1, 100.0],
            [Label.BUY, Label.BUY, Label.SELL, Label.SELL, Label.BUY],
        ),
        CFG,
    )
    facts = [(t.side, t.exit_reason, t.pnl) for t in report.trades]
    assert facts == [
        (LONG, TAKE_PROFIT, Decimal("1.4800")),
        (LONG, STOP_LOSS, Decimal("-1.3200")),
        (SHORT, TAKE_PROFIT, Decimal("1.0800")),
        (SHORT, SIGNAL_REVERSAL, Decimal("-0.9200")),
        (LONG, END_OF_DATA, Decimal("-0.0200")),
    ]
    assert report.total_profit == Decimal("0.3000")
    assert report.initial_price == Decimal("100.0000")
    assert report.return_percentage == pytest.approx(0.3)


def test_all_hold_no_trades():
    report = run_backtest(*bars([100.0, 101.0, 99.0], [Label.HOLD] * 3), CFG)
    assert report.trades == ()
    assert report.total_profit == Decimal(0)
    assert report.return_percentage == 0.0


def test_run_deterministic():
    rng = np.random.default_rng(0)
    prices = [float(p) for p in 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, 30)))]
    signals = [Label(int(v)) for v in rng.integers(0, 3, size=30)]
    columns = bars(prices, signals)
    assert run_backtest(*columns, CFG) == run_backtest(*columns, CFG)


def test_alignment_errors():
    ds, closes, signals = bars([100.0, 101.0], [Label.BUY, Label.BUY])
    for short in ((ds[:1], closes, signals), (ds, closes[:1], signals), (ds, closes, signals[:1])):
        with pytest.raises(DataError, match=r"^\d dates vs \d closes vs \d signals$"):
            run_backtest(*short, CFG)
    with pytest.raises(EmptyDataset):
        run_backtest([], [], [], CFG)
    for unordered in (ds[::-1], [D0, D0]):
        with pytest.raises(DataError, match="^dates not strictly ascending at "):
            run_backtest(unordered, closes, signals, CFG)


@pytest.mark.parametrize("bar", [0, 1])
@pytest.mark.parametrize("close", [1e24, 1e300, math.inf])
def test_unpriceable_close_is_a_data_error(bar, close):
    prices = [100.0, 100.0]
    prices[bar] = close
    with pytest.raises(DataError, match=re.escape(f"cannot price {close!r}")):
        run_backtest(*bars(prices, [Label.BUY, Label.HOLD]), CFG)


def test_zero_fee_flat_round_trip_is_zero():
    cfg = BacktestConfig(fee_per_transaction=0.0)
    report = run_backtest(*bars([100.0, 100.0], [Label.BUY, Label.SELL]), cfg)
    # the reversal closes at the same price; the end liquidation too
    assert report.total_profit == Decimal(0)


def test_fee_strictly_decreases_profit():
    rng = np.random.default_rng(1)
    prices = [float(p) for p in 50.0 * np.exp(np.cumsum(rng.normal(0, 0.03, 25)))]
    signals = [Label(int(v)) for v in rng.integers(0, 3, size=25)]
    columns = bars(prices, signals)
    cheap = run_backtest(*columns, BacktestConfig(fee_per_transaction=0.01))
    dear = run_backtest(*columns, BacktestConfig(fee_per_transaction=0.05))
    if cheap.trades:
        assert dear.total_profit < cheap.total_profit


def test_no_liquidation_leaves_position_open():
    columns = bars([100.0, 100.1], [Label.BUY, Label.BUY])
    cfg = BacktestConfig(liquidate_at_end=False)
    report = run_backtest(*columns, cfg)
    assert report.trades == ()
    with_liquidation = run_backtest(*columns, CFG)
    assert with_liquidation.trades[-1].exit_reason == END_OF_DATA


def test_conservation_and_no_dangling_trades():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        prices = [float(p) for p in 80.0 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))]
        signals = [Label(int(v)) for v in rng.integers(0, 3, size=n)]
        report = run_backtest(*bars(prices, signals), CFG)
        fee = Decimal("0.01")
        recomputed = sum(
            (
                (t.exit_price - t.entry_price - 2 * fee)
                if t.side == LONG
                else (t.entry_price - t.exit_price - 2 * fee)
                for t in report.trades
            ),
            Decimal(0),
        )
        assert recomputed == report.total_profit
        for trade in report.trades:
            assert trade.open_date <= trade.close_date


def test_matches_hand_rule_simulator():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        prices = [round(float(p), 4) for p in 60.0 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))]
        signals = [int(v) for v in rng.integers(0, 3, size=n)]
        report = run_backtest(*bars(prices, [Label(s) for s in signals]), CFG)
        oracle = simulate_backtest(list(zip(dates(n), prices)), list(zip(dates(n), signals)))
        assert len(report.trades) == len(oracle)
        for trade, (od, cd, side, entry, exit_price, reason, pnl) in zip(report.trades, oracle):
            assert (trade.open_date, trade.close_date) == (od, cd)
            assert trade.side == side
            assert trade.entry_price == entry
            assert trade.exit_price == exit_price
            assert trade.exit_reason == reason
            assert trade.pnl == pnl


def _ten_thousandths(n):
    return Decimal(n).scaleb(-4)


@st.composite
def backtest_cases(draw):
    """Rules, signals and closes for one replay.

    Fees include 0 and the fractions are any multiple of 0.0001 up to 0.3.
    Signals come in runs, so long Hold runs occur. While the oracle holds a
    position, a close may sit on one of its take-profit or stop bands,
    quantized down or up to $0.0001 (exactly on the band when the band
    needs no rounding, as with a whole-cent entry and 0.01).
    """
    fee = _ten_thousandths(draw(st.sampled_from([0, 100]) | st.integers(0, 500)))
    fraction = st.sampled_from([100, 200]) | st.integers(1, 3000)
    tp, sl = _ten_thousandths(draw(fraction)), _ten_thousandths(draw(fraction))
    liquidate = draw(st.booleans())
    n = draw(st.integers(1, 40))
    runs = draw(st.lists(st.tuples(st.sampled_from(Label), st.integers(1, 15)), min_size=1))
    signals = ([label for label, length in runs for _ in range(length)] * n)[:n]
    closes = [Decimal(draw(st.integers(100, 20000))).scaleb(-2)]
    while len(closes) < n:
        # a position still open after the bars so far is the oracle's last,
        # liquidating trade
        held = simulate_backtest(
            list(zip(dates(len(closes)), closes)), list(zip(dates(n), map(int, signals))),
            str(fee), str(tp), str(sl), liquidate=True,
        )
        if held and held[-1][5] == END_OF_DATA and draw(st.booleans()):
            entry = held[-1][3]
            band = draw(st.sampled_from(
                [entry * (1 + tp), entry * (1 - sl), entry * (1 - tp), entry * (1 + sl)]
            ))
            close = band.quantize(Decimal("0.0001"), draw(st.sampled_from([ROUND_FLOOR, ROUND_CEILING])))
        else:
            step = 1 + _ten_thousandths(draw(st.integers(-300, 300)))
            close = (closes[-1] * step).quantize(Decimal("0.01"))
        closes.append(close)
    return fee, tp, sl, liquidate, [float(c) for c in closes], signals


@settings(max_examples=300, deadline=None)
@given(backtest_cases())
def test_matches_hand_rule_simulator_on_drawn_rules_and_band_closes(case):
    fee, tp, sl, liquidate, prices, signals = case
    cfg = BacktestConfig(
        fee_per_transaction=float(fee),
        take_profit_fraction=float(tp),
        stop_loss_fraction=float(sl),
        liquidate_at_end=liquidate,
    )
    report = run_backtest(*bars(prices, signals), cfg)
    oracle = simulate_backtest(
        list(zip(dates(len(prices)), prices)), list(zip(dates(len(prices)), map(int, signals))),
        str(fee), str(tp), str(sl), liquidate,
    )
    got = [
        (t.open_date, t.close_date, t.side, t.entry_price, t.exit_price, t.exit_reason, t.pnl)
        for t in report.trades
    ]
    assert got == oracle
    assert report.total_profit == sum((trade[6] for trade in oracle), Decimal(0))


# --- return percentage ------------------------------------------------------------

@pytest.mark.parametrize(
    "profit,initial,expected",
    [
        (85.63, 102.97, 83.16),
        (479.30, 636.99, 75.25),
        (87.30, 99.96, 87.34),
        (118.12, 107.66, 109.72),
        (466.83, 761.53, 61.30),
    ],
)
def test_return_percentage_reference_rows(profit, initial, expected):
    assert return_percentage(profit, initial) == pytest.approx(expected, abs=0.01)


def test_return_percentage_edges():
    assert return_percentage(0.0, 123.0) == 0.0
    assert return_percentage(-5.0, 100.0) == -5.0
    with pytest.raises(DataError, match="^0.0$"):
        return_percentage(1.0, 0.0)
    with pytest.raises(DataError, match="^-3.0$"):
        return_percentage(1.0, -3.0)


def test_config_validation():
    with pytest.raises(UsageError):
        BacktestConfig(fee_per_transaction=-0.01)
    with pytest.raises(UsageError):
        BacktestConfig(take_profit_fraction=0.0)
    with pytest.raises(UsageError):
        BacktestConfig(signal_horizon=0)
    for name in ("fee_per_transaction", "take_profit_fraction", "stop_loss_fraction"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(UsageError, match=f"^{name} must be finite$"):
                BacktestConfig(**{name: value})
