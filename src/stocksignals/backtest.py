"""Daily-bar long/short backtesting with 1% stops and per-transaction fees.

Bar order is stops first, then the day's signal at the same close, so a
stop that flattens the position can be followed by a same-bar re-entry.
Exits execute at the close (the data has no intraday prices). Money is
tracked in exact decimals quantized to $0.0001 so the pnl identities hold
without float drift. At most one share is ever held.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Sequence

from stocksignals.errors import DataError, EmptyDataset, UsageError
from stocksignals.labels import Label

PRICE_QUANTUM = Decimal("0.0001")

LONG = "long"
SHORT = "short"

TAKE_PROFIT = "take_profit"
STOP_LOSS = "stop_loss"
SIGNAL_REVERSAL = "signal_reversal"
END_OF_DATA = "end_of_data"


def to_price(value) -> Decimal:
    """Exact decimal for a price or fee, quantized to $0.0001; DataError for
    a value that has none (an infinity, or 1e24 and up at 28 digits)."""
    try:
        return Decimal(str(value)).quantize(PRICE_QUANTUM)
    except InvalidOperation:
        raise DataError(f"cannot price {value!r} to $0.0001") from None


@dataclass(frozen=True)
class BacktestConfig:
    fee_per_transaction: float = 0.01
    take_profit_fraction: float = 0.01
    stop_loss_fraction: float = 0.01
    signal_horizon: int = 10
    liquidate_at_end: bool = True

    def __post_init__(self):
        for name in ("fee_per_transaction", "take_profit_fraction", "stop_loss_fraction"):
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite")
        if self.fee_per_transaction < 0:
            raise UsageError("fee_per_transaction must be >= 0")
        if self.take_profit_fraction <= 0 or self.stop_loss_fraction <= 0:
            raise UsageError("stop fractions must be positive")
        if self.signal_horizon < 1:
            raise UsageError("signal_horizon must be >= 1")


@dataclass(frozen=True)
class Trade:
    open_date: dt.date
    close_date: dt.date
    side: str
    entry_price: Decimal
    exit_price: Decimal
    exit_reason: str
    pnl: Decimal


@dataclass(frozen=True)
class BacktestReport:
    trades: tuple[Trade, ...]
    total_profit: Decimal
    initial_price: Decimal
    return_percentage: float


def run_backtest(
    dates: Sequence[dt.date],
    closes: Sequence[float],
    signals: Sequence[Label],
    cfg: BacktestConfig = BacktestConfig(),
) -> BacktestReport:
    """Replay one ticker's date, close and signal columns through the rules.

    Per bar: realize a triggered stop, then apply the signal at the same
    close. Flat opens in the signal's direction, Hold and a matching signal
    change nothing, and an opposing signal reverses. A long takes profit at
    entry*(1+tp) and stops out at entry*(1-sl), a short mirrors it; the
    bands are inclusive and fixed at the open. An open position is
    liquidated at the final close when liquidate_at_end is set.
    """
    if len(dates) == 0:
        raise EmptyDataset("no bars to backtest")
    if not len(dates) == len(closes) == len(signals):
        raise DataError(
            f"{len(dates)} dates vs {len(closes)} closes vs {len(signals)} signals"
        )
    for earlier, date in itertools.pairwise(dates):
        if date <= earlier:
            raise DataError(f"dates not strictly ascending at {date}")

    fee = to_price(cfg.fee_per_transaction)
    tp = Decimal(str(cfg.take_profit_fraction))
    sl = Decimal(str(cfg.stop_loss_fraction))
    one = Decimal(1)
    trades: list[Trade] = []
    side = None  # LONG, SHORT, or None while flat
    entry = opened = profit_band = stop_band = None

    def close_position(price: Decimal, date: dt.date, reason: str) -> None:
        pnl = (price - entry if side == LONG else entry - price) - 2 * fee
        trades.append(Trade(opened, date, side, entry, price, reason, pnl))

    for date, close, signal in zip(dates, closes, signals):
        price = to_price(close)
        if side == LONG and (price >= profit_band or price <= stop_band):
            close_position(price, date, TAKE_PROFIT if price >= profit_band else STOP_LOSS)
            side = None
        elif side == SHORT and (price <= profit_band or price >= stop_band):
            close_position(price, date, TAKE_PROFIT if price <= profit_band else STOP_LOSS)
            side = None
        if signal == Label.HOLD:
            continue
        wanted = LONG if signal == Label.BUY else SHORT
        if side == wanted:
            continue
        if side is not None:
            close_position(price, date, SIGNAL_REVERSAL)
        side, entry, opened = wanted, price, date
        if side == LONG:
            profit_band, stop_band = entry * (one + tp), entry * (one - sl)
        else:
            profit_band, stop_band = entry * (one - tp), entry * (one + sl)
    if cfg.liquidate_at_end and side is not None:
        close_position(price, date, END_OF_DATA)  # the last bar's close
    total = sum((t.pnl for t in trades), Decimal(0))
    initial = to_price(closes[0])
    return BacktestReport(
        trades=tuple(trades),
        total_profit=total,
        initial_price=initial,
        return_percentage=return_percentage(total, initial),
    )


def return_percentage(total_profit, initial_price) -> float:
    """100 * profit / initial price, the report's headline figure."""
    initial = float(initial_price)
    if initial <= 0:
        raise DataError(str(initial_price))
    return 100.0 * float(total_profit) / initial
