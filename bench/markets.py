"""Seeded synthetic market CSVs for the benchmark, generated in O(rows).

Every ticker gets a log-normal price walk and analyst/fundamental columns
drawn from the same ranges as the test suite's generator. All draws come
from one numpy PCG64 stream seeded by the caller, and every number is
written with a fixed format, so one seed always gives the same bytes.

`dirty_share` marks that share of rows with exactly one bad cell (empty,
unparseable, non-finite, a non-positive close or a fractional analyst
count). The program demotes each such cell to missing and drops the row,
which exercises the ingest warning and drop paths without failing a run.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

HEADER = (
    "date,ticker,sector,PX_OFFICIAL_CLOSE,PX_VOLUME,CUR_MKT_CAP,"
    "HISTORICAL_MARKET_CAP,SHORT_INT,SHORT_INT_RATIO,PE_RATIO,"
    "PX_TO_BOOK_RATIO,RETURN_ON_ASSET,BEST_EPS,BEST_EPS_LO,BEST_EPS_HI,"
    "BEST_CAPEX,BEST_CAPEX_LO,BEST_CAPEX_HI,TOT_ANALYST_REC,TOT_BUY_REC,"
    "TOT_SELL_REC,TOT_HOLD_REC,EQY_REC_CONS,BEST_ANALYST_RATING,"
    "BEST_EST_LONG_TERM_GROWTH,BEST_TARGET_PRICE"
)
SECTORS = ("Tech", "Energy", "Health", "Finance", "Utilities")
BASE_DATE = dt.date(2018, 1, 2)

# (cell index within a row, replacement text); index 3 is the close and
# 18 the analyst total, counted over the full 26-column row.
DIRTY_CELLS = ((4, ""), (9, "n/a"), (11, "inf"), (3, "-1.0"), (18, "2.5"))


def trading_dates(n_days: int) -> list[str]:
    """ISO dates of the first n weekdays from BASE_DATE, in one pass."""
    dates = []
    day = BASE_DATE
    while len(dates) < n_days:
        if day.weekday() < 5:
            dates.append(day.isoformat())
        day += dt.timedelta(days=1)
    return dates


def _ticker_lines(rng: np.random.Generator, ticker: str, sector: str, dates: list[str]) -> list[list[str]]:
    n = len(dates)
    price0 = rng.uniform(40.0, 200.0)
    shares = float(rng.integers(50_000_000, 500_000_000))
    eps = rng.uniform(1.0, 8.0)
    capex = rng.uniform(5e7, 5e8)
    close = np.maximum(1.0, price0 * np.exp(np.cumsum(rng.normal(0.0, 0.015, n))))
    close = np.round(close, 4)
    total = rng.integers(5, 30, n)
    buy = (rng.random(n) * (total + 1)).astype(np.int64)
    sell = (rng.random(n) * (total - buy + 1)).astype(np.int64)
    hold = total - buy - sell
    columns = (
        (close, "%.4f"),
        (rng.integers(100_000, 5_000_000, n).astype(float), "%.1f"),
        (close * shares, "%.2f"),
        (close * shares * rng.uniform(0.7, 1.0, n), "%.2f"),
        (rng.integers(100_000, 3_000_000, n).astype(float), "%.1f"),
        (rng.uniform(0.2, 6.0, n), "%.6f"),
        (rng.uniform(5.0, 40.0, n), "%.6f"),
        (rng.uniform(0.5, 8.0, n), "%.6f"),
        (rng.uniform(-5.0, 20.0, n), "%.6f"),
        (np.full(n, eps), "%.4f"),
        (eps * rng.uniform(0.8, 0.95, n), "%.4f"),
        (eps * rng.uniform(1.05, 1.2, n), "%.4f"),
        (np.full(n, capex), "%.2f"),
        (np.full(n, capex * 0.8), "%.2f"),
        (np.full(n, capex * 1.25), "%.2f"),
        (total, "%d"),
        (buy, "%d"),
        (sell, "%d"),
        (hold, "%d"),
        (rng.uniform(1.0, 5.0, n), "%.6f"),
        (rng.uniform(1.0, 5.0, n), "%.6f"),
        (rng.uniform(-2.0, 25.0, n), "%.6f"),
        (close * rng.uniform(0.8, 1.3, n), "%.4f"),
    )
    cells = [[fmt % v for v in values.tolist()] for values, fmt in columns]
    return [[dates[i], ticker, sector] + [col[i] for col in cells] for i in range(n)]


def market_csv_bytes(n_tickers: int, n_days: int, seed: int, dirty_share: float = 0.0) -> bytes:
    """A market CSV of n_tickers x n_days rows, fully determined by seed."""
    rng = np.random.default_rng(seed)
    dates = trading_dates(n_days)
    rows: list[list[str]] = []
    for t in range(n_tickers):
        rows.extend(_ticker_lines(rng, f"TK{t:03d}", SECTORS[t % len(SECTORS)], dates))
    n_dirty = int(len(rows) * dirty_share)
    if n_dirty:
        picked = rng.choice(len(rows), size=n_dirty, replace=False)
        for j, row_index in enumerate(sorted(picked.tolist())):
            cell, text = DIRTY_CELLS[j % len(DIRTY_CELLS)]
            rows[row_index][cell] = text
    lines = [HEADER] + [",".join(row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")
