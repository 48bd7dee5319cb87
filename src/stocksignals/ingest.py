"""CSV ingestion of daily per-ticker market records.

Expected schema: a header row holding `date`, `ticker`, `sector` plus the
23 Bloomberg field symbols in RAW_COLUMNS, comma separated, `.` decimal
point, empty cell = missing. Extra columns are ignored.

Cells that fail to parse under their column's type, or that violate a
value constraint (non-positive close, negative or fractional recommendation
count, non-finite number), are demoted to missing and counted as parse
warnings. Rows that survive validate_and_clean therefore always satisfy the
record invariants.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from typing import IO, Union

from stocksignals.errors import (
    AllRowsDropped,
    DuplicateKey,
    EmptyInput,
    MalformedRow,
    SchemaError,
    SectorConflict,
)

RAW_COLUMNS: tuple[str, ...] = (
    "PX_OFFICIAL_CLOSE",
    "PX_VOLUME",
    "CUR_MKT_CAP",
    "HISTORICAL_MARKET_CAP",
    "SHORT_INT",
    "SHORT_INT_RATIO",
    "PE_RATIO",
    "PX_TO_BOOK_RATIO",
    "RETURN_ON_ASSET",
    "BEST_EPS",
    "BEST_EPS_LO",
    "BEST_EPS_HI",
    "BEST_CAPEX",
    "BEST_CAPEX_LO",
    "BEST_CAPEX_HI",
    "TOT_ANALYST_REC",
    "TOT_BUY_REC",
    "TOT_SELL_REC",
    "TOT_HOLD_REC",
    "EQY_REC_CONS",
    "BEST_ANALYST_RATING",
    "BEST_EST_LONG_TERM_GROWTH",
    "BEST_TARGET_PRICE",
)

COUNT_COLUMNS = frozenset(
    {"TOT_ANALYST_REC", "TOT_BUY_REC", "TOT_SELL_REC", "TOT_HOLD_REC"}
)

META_COLUMNS: tuple[str, ...] = ("date", "ticker", "sector")
CSV_COLUMNS: tuple[str, ...] = META_COLUMNS + RAW_COLUMNS

_FIELD_FOR_COLUMN = {
    "PX_OFFICIAL_CLOSE": "close",
    "PX_VOLUME": "volume",
    "CUR_MKT_CAP": "cur_mkt_cap",
    "HISTORICAL_MARKET_CAP": "historical_mkt_cap",
    "SHORT_INT": "short_int",
    "SHORT_INT_RATIO": "short_int_ratio",
    "PE_RATIO": "pe_ratio",
    "PX_TO_BOOK_RATIO": "pb_ratio",
    "RETURN_ON_ASSET": "return_on_asset",
    "BEST_EPS": "best_eps",
    "BEST_EPS_LO": "best_eps_lo",
    "BEST_EPS_HI": "best_eps_hi",
    "BEST_CAPEX": "best_capex",
    "BEST_CAPEX_LO": "best_capex_lo",
    "BEST_CAPEX_HI": "best_capex_hi",
    "TOT_ANALYST_REC": "tot_analyst_rec",
    "TOT_BUY_REC": "tot_buy_rec",
    "TOT_SELL_REC": "tot_sell_rec",
    "TOT_HOLD_REC": "tot_hold_rec",
    "EQY_REC_CONS": "eqy_rec_cons",
    "BEST_ANALYST_RATING": "best_analyst_rating",
    "BEST_EST_LONG_TERM_GROWTH": "best_est_long_term_growth",
    "BEST_TARGET_PRICE": "best_target_price",
}


@dataclass(frozen=True)
class DailyRecord:
    """One ticker-day of raw inputs. Any value may be missing until cleaned."""

    date: dt.date | None
    ticker: str | None
    sector: str
    close: float | None
    volume: float | None
    cur_mkt_cap: float | None
    historical_mkt_cap: float | None
    short_int: float | None
    short_int_ratio: float | None
    pe_ratio: float | None
    pb_ratio: float | None
    return_on_asset: float | None
    best_eps: float | None
    best_eps_lo: float | None
    best_eps_hi: float | None
    best_capex: float | None
    best_capex_lo: float | None
    best_capex_hi: float | None
    tot_analyst_rec: int | None
    tot_buy_rec: int | None
    tot_sell_rec: int | None
    tot_hold_rec: int | None
    eqy_rec_cons: float | None
    best_analyst_rating: float | None
    best_est_long_term_growth: float | None
    best_target_price: float | None

    def raw_value(self, column: str) -> float | int | None:
        return getattr(self, _FIELD_FOR_COLUMN[column])


@dataclass
class RawTable:
    """Parsed rows in file order plus per-column unparseable-cell counts."""

    rows: list[DailyRecord]
    parse_warnings: dict[str, int]


@dataclass
class CleanTable:
    """Rows surviving the row-wise null drop, plus a drop report."""

    rows: list[DailyRecord]
    dropped_by_column: dict[str, int]
    rows_dropped: int
    rec_count_violations: int


@dataclass
class TickerSeries:
    """All records of one ticker, strictly ascending by date."""

    ticker: str
    sector: str
    records: list[DailyRecord]


def _parse_numeric(cell: str, column: str, warnings: dict[str, int]):
    """Typed cell value, or None (counting a warning) when invalid."""
    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        warnings[column] = warnings.get(column, 0) + 1
        return None
    if not math.isfinite(value):
        warnings[column] = warnings.get(column, 0) + 1
        return None
    if column in COUNT_COLUMNS:
        if value < 0 or value != int(value):
            warnings[column] = warnings.get(column, 0) + 1
            return None
        return int(value)
    if column == "PX_OFFICIAL_CLOSE" and value <= 0:
        warnings[column] = warnings.get(column, 0) + 1
        return None
    return value


def parse_market_csv(source: Union[bytes, IO[bytes]]) -> RawTable:
    """Parse a UTF-8 market CSV byte stream into typed rows.

    Raises EmptyInput when there is no header, SchemaError when a required
    column is missing, and MalformedRow for a wrong column count or a date
    that is not ISO-8601 (YYYY-MM-DD).
    """
    data = source if isinstance(source, bytes) else source.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"input is not valid UTF-8: {exc}") from None
    text = text.lstrip("\ufeff")
    if not text.strip():
        raise EmptyInput("no header row")

    reader = csv.reader(io.StringIO(text))
    header = [name.strip() for name in next(reader)]
    positions: dict[str, int] = {}
    for i, name in enumerate(header):
        if name in positions and name in CSV_COLUMNS:
            raise SchemaError(f"duplicate column {name}")
        positions.setdefault(name, i)
    missing = [c for c in CSV_COLUMNS if c not in positions]
    if missing:
        raise SchemaError(", ".join(missing))

    warnings: dict[str, int] = {}
    rows: list[DailyRecord] = []
    for record in reader:
        if not record:
            continue  # blank line
        if len(record) != len(header):
            raise MalformedRow(
                f"line {reader.line_num}: expected {len(header)} columns, "
                f"got {len(record)}"
            )
        date_text = record[positions["date"]].strip()
        if date_text:
            try:
                date = dt.date.fromisoformat(date_text)
            except ValueError:
                raise MalformedRow(
                    f"line {reader.line_num}: bad date {date_text!r}, "
                    "expected YYYY-MM-DD"
                ) from None
        else:
            date = None
        ticker = record[positions["ticker"]].strip() or None
        sector = record[positions["sector"]].strip()
        values = {
            _FIELD_FOR_COLUMN[col]: _parse_numeric(
                record[positions[col]], col, warnings
            )
            for col in RAW_COLUMNS
        }
        rows.append(DailyRecord(date=date, ticker=ticker, sector=sector, **values))
    return RawTable(rows=rows, parse_warnings=warnings)


def validate_and_clean(table: RawTable | CleanTable) -> CleanTable:
    """Drop every row with a missing date, ticker, or raw feature value.

    The analyst-count identity (buy + sell + hold <= total) is checked but
    only counted: real feeds include analysts with no opinion, so violations
    flag the row rather than reject it.
    """
    kept: list[DailyRecord] = []
    dropped_by_column: dict[str, int] = {}
    dropped = 0
    violations = 0
    for row in table.rows:
        missing = [c for c in RAW_COLUMNS if row.raw_value(c) is None]
        if row.date is None:
            missing.append("date")
        if not row.ticker:
            missing.append("ticker")
        if missing:
            dropped += 1
            for col in missing:
                dropped_by_column[col] = dropped_by_column.get(col, 0) + 1
            continue
        parts = (row.tot_buy_rec, row.tot_sell_rec, row.tot_hold_rec)
        if row.tot_analyst_rec is not None and None not in parts:
            if sum(parts) > row.tot_analyst_rec:
                violations += 1
        kept.append(row)
    if not kept:
        raise AllRowsDropped("no rows survive null-policy cleaning")
    return CleanTable(
        rows=kept,
        dropped_by_column=dropped_by_column,
        rows_dropped=dropped,
        rec_count_violations=violations,
    )


def partition_by_ticker(table: CleanTable) -> dict[str, TickerSeries]:
    """Group cleaned rows per ticker, sorted ascending by date.

    Raises DuplicateKey when a (ticker, date) pair repeats and SectorConflict
    when one ticker carries two different sectors.
    """
    grouped: dict[str, list[DailyRecord]] = {}
    sectors: dict[str, str] = {}
    seen: set[tuple[str, dt.date]] = set()
    for row in table.rows:
        key = (row.ticker, row.date)
        if key in seen:
            raise DuplicateKey(f"{row.ticker} already has a row for {row.date}")
        seen.add(key)
        if row.ticker in sectors:
            if sectors[row.ticker] != row.sector:
                raise SectorConflict(
                    f"{row.ticker} maps to both "
                    f"{sectors[row.ticker]!r} and {row.sector!r}"
                )
        else:
            sectors[row.ticker] = row.sector
        grouped.setdefault(row.ticker, []).append(row)
    return {
        ticker: TickerSeries(
            ticker=ticker,
            sector=sectors[ticker],
            records=sorted(rows, key=lambda r: r.date),
        )
        for ticker, rows in sorted(grouped.items())
    }
