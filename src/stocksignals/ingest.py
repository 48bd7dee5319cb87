"""CSV ingestion of daily per-ticker market rows into columns.

Expected schema: a header row holding `date`, `ticker`, `sector` plus the
23 Bloomberg field symbols in RAW_COLUMNS, comma separated, `.` decimal
point, empty cell = missing. Extra columns are ignored.

A parsed table is columnar: `dates` (datetime64[D], NaT = missing),
`tickers` and `sectors` (object arrays of str, "" = missing ticker) and
`values`, an (n, 23) float64 matrix in RAW_COLUMNS order with NaN for a
missing cell. This module owns that layout; transform reads the matrix by
RAW_COLUMNS position.

Cells that fail to parse as a number, or that violate a value constraint
(non-positive close, negative or fractional recommendation count,
non-finite number), are demoted to missing and counted as parse warnings.
Rows that survive validate_and_clean therefore hold a finite value in every
column, and a non-negative whole number in every count column.
"""

from __future__ import annotations

import array
import csv
import datetime as dt
import io
import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Sequence, Union

import numpy as np

from stocksignals.errors import DataError

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

# data rows whose raw cells are held as text at a time
_CHUNK_ROWS = 4096
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_COUNT_INDEX = [
    RAW_COLUMNS.index(c) for c in ("TOT_ANALYST_REC", "TOT_BUY_REC", "TOT_SELL_REC", "TOT_HOLD_REC")
]


@dataclass
class MarketColumns:
    """Rows as columns: dates, tickers, sectors and the raw value matrix."""

    dates: np.ndarray  # datetime64[D], NaT = missing
    tickers: np.ndarray  # object array of str, "" = missing
    sectors: np.ndarray  # object array of str
    values: np.ndarray  # (n, 23) float64 in RAW_COLUMNS order, NaN = missing

    @property
    def rows(self) -> range:
        """Row positions, in table order."""
        return range(len(self.values))


@dataclass
class RawTable(MarketColumns):
    """Parsed rows in file order plus per-column demoted-cell counts."""

    parse_warnings: dict[str, int]


@dataclass
class CleanTable(MarketColumns):
    """Rows surviving the row-wise null drop, plus a drop report."""

    dropped_by_column: dict[str, int]
    rows_dropped: int
    rec_count_violations: int


@dataclass
class TickerSeries:
    """All rows of one ticker, strictly ascending by date."""

    ticker: str
    sector: str
    dates: np.ndarray  # datetime64[D]
    values: np.ndarray  # (n, 23) float64 in RAW_COLUMNS order


def _parse_column(cells: Sequence[str], column: str) -> tuple[np.ndarray, int]:
    """A column's values (NaN = missing: empty, or demoted for being no number
    or breaking the column's constraint) and its number of demoted cells.

    float() ignores surrounding whitespace. One map(float) converts the cells;
    when a cell raises, the conversion resumes after it. array.extend keeps
    the values converted before the error, so the failing cell is the one at
    len(values).
    """
    values = array.array("d")
    remaining = iter(cells)
    empty = 0
    while len(values) < len(cells):
        try:
            values.extend(map(float, remaining))
        except ValueError:
            empty += not cells[len(values)].strip()
            values.append(math.nan)
    parsed = np.frombuffer(values, dtype=float)
    valid = np.isfinite(parsed)
    if column in COUNT_COLUMNS:
        valid &= (parsed >= 0) & (parsed == np.trunc(parsed))
        parsed += 0.0  # a count of -0 is 0
    elif column == "PX_OFFICIAL_CLOSE":
        valid &= parsed > 0
    parsed[~valid] = np.nan
    return parsed, len(cells) - empty - int(np.count_nonzero(valid))


def _parse_date(text: str, line: int) -> np.datetime64:
    """A stripped YYYY-MM-DD date cell as datetime64[D]; NaT when empty.

    The pattern comes first because from Python 3.11 on `date.fromisoformat`
    also reads other ISO 8601 forms, such as 20180102 and 2018-W01-2.
    """
    try:
        if text and not _ISO_DATE.fullmatch(text):
            raise ValueError(text)
        return np.datetime64(dt.date.fromisoformat(text) if text else "NaT", "D")
    except ValueError:
        raise DataError(
            f"line {line}: bad date {text!r}, expected YYYY-MM-DD"
        ) from None


def _parse_block(rows: list[tuple[str, ...]], demoted: np.ndarray) -> np.ndarray:
    """The (k, 23) values of k rows of raw cells in RAW_COLUMNS order,
    adding each column's demoted cells to `demoted`."""
    columns = list(zip(*rows)) or [()] * len(RAW_COLUMNS)
    parsed = [_parse_column(cells, name) for cells, name in zip(columns, RAW_COLUMNS)]
    demoted += [count for _, count in parsed]
    return np.column_stack([values for values, _ in parsed])


def _unreadable(line: int, exc: csv.Error) -> DataError:
    """The error for a line the csv module cannot read. The reader splits
    lines at \\n only, so its complaint about a new-line character in an
    unquoted field is about a bare carriage return, and says so."""
    message = str(exc)
    if message.startswith("new-line character seen in unquoted field"):
        message = "carriage return inside an unquoted cell"
    return DataError(f"line {line}: {message}")


def parse_market_csv(source: Union[bytes, IO[bytes]]) -> RawTable:
    """Parse a UTF-8 market CSV byte stream into columns.

    Raises DataError when there is no header or a required column is
    missing, and for the first row, in file order, that the csv module
    cannot read (a cell over its field limit, a bare carriage return in an
    unquoted cell) or that has a wrong column count or a date that is not
    ISO-8601 (YYYY-MM-DD). Numbers are read _CHUNK_ROWS rows at a time.
    """
    data = source if isinstance(source, bytes) else source.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8: {exc}") from None
    text = text.lstrip("\ufeff")
    if not text or text.isspace():  # text.strip() would copy the text
        raise DataError("no header row")

    reader = csv.reader(io.StringIO(text))
    del data, text  # the reader reads its own copy; free these before the rows pile up
    try:
        header = [name.strip() for name in next(reader)]
    except csv.Error as exc:
        raise _unreadable(reader.line_num, exc) from None
    positions: dict[str, int] = {}
    for i, name in enumerate(header):
        if name in positions and name in CSV_COLUMNS:
            raise DataError(f"duplicate column {name}")
        positions.setdefault(name, i)
    missing = [c for c in CSV_COLUMNS if c not in positions]
    if missing:
        raise DataError(", ".join(missing))

    date_at, ticker_at, sector_at = (positions[c] for c in META_COLUMNS)
    pick = itemgetter(*(positions[c] for c in RAW_COLUMNS))
    seen_dates: dict[str, np.datetime64] = {}  # date cell -> parsed date
    dates, tickers, sectors, chunk, blocks = [], [], [], [], []
    demoted = np.zeros(len(RAW_COLUMNS), dtype=np.int64)
    try:
        for record in reader:
            if not record:
                continue  # blank line
            if len(record) != len(header):
                raise DataError(
                    f"line {reader.line_num}: expected {len(header)} columns, "
                    f"got {len(record)}"
                )
            cell = record[date_at]
            if cell not in seen_dates:
                seen_dates[cell] = _parse_date(cell.strip(), reader.line_num)
            dates.append(seen_dates[cell])
            tickers.append(record[ticker_at].strip())
            sectors.append(record[sector_at].strip())
            chunk.append(pick(record))
            if len(chunk) == _CHUNK_ROWS:
                blocks.append(_parse_block(chunk, demoted))
                chunk = []
    except csv.Error as exc:
        raise _unreadable(reader.line_num, exc) from None
    blocks.append(_parse_block(chunk, demoted))
    return RawTable(
        dates=np.array(dates, dtype="datetime64[D]"),
        tickers=np.array(tickers, dtype=object),
        sectors=np.array(sectors, dtype=object),
        values=np.concatenate(blocks),
        parse_warnings={c: int(n) for c, n in zip(RAW_COLUMNS, demoted) if n},
    )


def _rec_count_violations(values: np.ndarray) -> int:
    """Rows whose buy + sell + hold exceeds the analyst total, counted exactly:
    float sums of whole numbers are exact below 2**53, larger ones are redone in ints."""
    total, buy, sell, hold = values[:, _COUNT_INDEX].T
    with np.errstate(over="ignore"):  # an inf sum takes the exact-int path below
        parts = buy + sell + hold
    exact = parts < 2.0**53
    return int(np.count_nonzero(exact & (parts > total))) + sum(
        int(b) + int(s) + int(h) > int(t) for t, b, s, h in values[~exact][:, _COUNT_INDEX].tolist()
    )


def validate_and_clean(table: MarketColumns) -> CleanTable:
    """Drop every row with a missing date, ticker, or raw feature value.

    The analyst-count identity (buy + sell + hold <= total) is checked but
    only counted: real feeds include analysts with no opinion, so violations
    flag the row rather than reject it.
    """
    missing = np.column_stack(
        [np.isnan(table.values), np.isnat(table.dates), table.tickers == ""]
    )
    keep = ~missing.any(axis=1)
    if not keep.any():
        raise DataError("no rows survive null-policy cleaning")
    values = table.values[keep]
    return CleanTable(
        dates=table.dates[keep],
        tickers=table.tickers[keep],
        sectors=table.sectors[keep],
        values=values,
        dropped_by_column={
            column: count
            for column, count in zip(RAW_COLUMNS + ("date", "ticker"), missing.sum(axis=0).tolist())
            if count
        },
        rows_dropped=len(keep) - int(np.count_nonzero(keep)),
        rec_count_violations=_rec_count_violations(values),
    )


def partition_by_ticker(table: CleanTable) -> dict[str, TickerSeries]:
    """Group cleaned rows per ticker (in sorted order), ascending by date.

    Raises DataError when a (ticker, date) pair repeats or one ticker
    carries two different sectors, for whichever row comes first in table
    order.
    """
    names, first, codes = np.unique(table.tickers, return_index=True, return_inverse=True)
    owners = table.sectors[first[codes]]  # each row's ticker's first sector
    order = np.lexsort((table.dates, codes))  # stable: a repeated key keeps table order
    codes_in_order, dates_in_order = codes[order], table.dates[order]
    repeated = np.zeros(len(order), dtype=bool)
    repeated[order[1:]] = (codes_in_order[1:] == codes_in_order[:-1]) & (
        dates_in_order[1:] == dates_in_order[:-1]
    )
    bad = np.flatnonzero(repeated | (table.sectors != owners))
    if bad.size:
        row = bad[0]
        if repeated[row]:
            raise DataError(
                f"{table.tickers[row]} already has a row for {table.dates[row].item()}"
            )
        raise DataError(
            f"{table.tickers[row]} maps to both {owners[row]!r} and {table.sectors[row]!r}"
        )
    groups = np.split(order, np.flatnonzero(np.diff(codes_in_order)) + 1)
    return {
        ticker: TickerSeries(ticker, owners[rows[0]], table.dates[rows], table.values[rows])
        for ticker, rows in zip(names.tolist(), groups)
    }
