"""The ingest-to-assembly path against the per-row references in oracles.py.

Generated market CSVs run through parse, clean, partition and assemble in
both implementations. The assembled Datasets must match bit for bit, the
parse warnings and the drop report must be equal, and bad input must raise
the same exception type with the same message.
"""

import csv
import datetime as dt
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    reference_assemble_features,
    reference_parse_market_csv,
    reference_partition_by_ticker,
    reference_validate_and_clean,
)

from stocksignals import ingest
from stocksignals.errors import DataError
from stocksignals.ingest import CSV_COLUMNS, RAW_COLUMNS
from stocksignals.transform import LabelConfig, assemble_features

BASE_DATE = dt.date(2018, 1, 2)
COUNTS = ("TOT_ANALYST_REC", "TOT_BUY_REC", "TOT_SELL_REC", "TOT_HOLD_REC")

# cells that a parser must demote, keep or read exactly, per kind of column
TRICKY_NUMBERS = (
    "", " ", "abc", "nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400",
    "1e308", "1e-400", "-0", "-0.0", "0", "-1", "2.5", "1_0", " 7 ", "+3",
    "0x10", "9007199254740993", "4.9e-324", "\u0663", "\u00a012\u2003",
)
TRICKY_DATES = ("", " ", "2018-13-01", "20180103", "2018-W01-3", "2018-002", "not a date")
TRICKY_TICKERS = ("", "  ", "B", " A ", "A\x00")
CELL_COLUMNS = RAW_COLUMNS + ("date", "ticker", "sector")


def _outcome(data, cfg):
    """(warnings, drop report, [(ticker, sector, Dataset)]) of the package's path."""
    table = ingest.parse_market_csv(data)
    clean = ingest.validate_and_clean(table)
    report = (clean.dropped_by_column, clean.rows_dropped, clean.rec_count_violations)
    series = ingest.partition_by_ticker(clean)
    parts = [(t, s.sector, assemble_features(s, cfg)) for t, s in series.items()]
    return (len(table.rows), table.parse_warnings), (len(clean.rows), *report), parts


def _reference_outcome(data, cfg):
    rows, warnings = reference_parse_market_csv(data)
    kept, *report = reference_validate_and_clean(rows)
    parts = [
        (t, sector, reference_assemble_features(
            t, group, cfg.horizons, cfg.up_threshold, cfg.down_threshold
        ))
        for t, sector, group in reference_partition_by_ticker(kept)
    ]
    return (len(rows), warnings), (len(kept), *report), parts


def _run(outcome, data, cfg):
    try:
        return "ok", outcome(data, cfg)
    except Exception as exc:  # the type and message are what is compared
        return "error", type(exc), str(exc)


def assert_same_dataset(got, want):
    assert got.tickers.tolist() == want.tickers.tolist()
    assert got.dates.dtype == want.dates.dtype and np.array_equal(got.dates, want.dates)
    assert got.X.dtype == want.X.dtype == np.float64 and got.X.shape == want.X.shape
    assert np.array_equal(got.X.view(np.uint64), want.X.view(np.uint64))
    assert got.Y.dtype == want.Y.dtype and np.array_equal(got.Y, want.Y)
    assert got.horizons == want.horizons and got.feature_names == want.feature_names


def assert_same_path(data, cfg=LabelConfig()):
    """Run both paths and compare them; the package's outcome is returned."""
    got = _run(_outcome, data, cfg)
    want = _run(_reference_outcome, data, cfg)
    if want[0] == "error" or got[0] == "error":
        assert got == want
        return got
    (parsed, cleaned, parts), (ref_parsed, ref_cleaned, ref_parts) = got[1], want[1]
    assert parsed == ref_parsed
    assert cleaned == ref_cleaned
    assert [(t, s) for t, s, _ in parts] == [(t, s) for t, s, _ in ref_parts]
    for (_, _, mine), (_, _, reference) in zip(parts, ref_parts):
        assert_same_dataset(mine, reference)
    return got


def _clean_row(draw, ticker, sector, day):
    total = draw(st.integers(0, 30))
    counts = [draw(st.integers(0, total)) for _ in range(3)]
    cells = {
        "date": (BASE_DATE + dt.timedelta(days=day)).isoformat(),
        "ticker": ticker,
        "sector": sector,
        "TOT_ANALYST_REC": str(total),
        **dict(zip(COUNTS[1:], map(str, counts))),
    }
    for column in RAW_COLUMNS:
        if column not in cells:
            cells[column] = repr(draw(st.floats(0.5, 500.0)))
    return cells


@st.composite
def market_csvs(draw):
    """Bytes of a market CSV: 1-3 tickers of up to 24 distinct days, shuffled,
    with a few tricky cells, maybe a duplicate or malformed row, extra
    columns, quoted multi-line cells, blank lines, a BOM and CRLF endings."""
    rows = []
    for ticker, sector in draw(
        st.lists(
            st.tuples(st.sampled_from(("A", "B", "C", " D ")), st.sampled_from(("Tech", "Energy"))),
            min_size=1, max_size=3, unique_by=lambda pair: pair[0],
        )
    ):
        days = draw(st.lists(st.integers(0, 40), min_size=draw(st.integers(0, 24)), unique=True))
        rows.extend(_clean_row(draw, ticker, sector, day) for day in days)
    rows = draw(st.permutations(rows))
    if rows:
        for _ in range(draw(st.integers(0, 4))):
            row = draw(st.sampled_from(rows))
            column = draw(st.sampled_from(CELL_COLUMNS))
            if column == "date":
                row[column] = draw(st.sampled_from(TRICKY_DATES))
            elif column == "ticker":
                row[column] = draw(st.sampled_from(TRICKY_TICKERS))
            elif column == "sector":
                row[column] = draw(st.sampled_from(("Energy", "", "Multi\nLine")))
            else:
                row[column] = draw(st.sampled_from(TRICKY_NUMBERS))
        if draw(st.integers(0, 3)) == 3:
            rows.insert(draw(st.integers(0, len(rows))), dict(draw(st.sampled_from(rows))))
    header = list(draw(st.permutations(CSV_COLUMNS)))
    extra = draw(st.sampled_from(((), ("EXTRA",), ("EXTRA", "NOTE"))))
    header += extra
    ending = draw(st.sampled_from(("\n", "\r\n")))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=ending)
    writer.writerow(header)
    malformed_at = draw(st.integers(0, len(rows))) if draw(st.integers(0, 7)) == 7 else None
    for i, row in enumerate(rows):
        if i == malformed_at:
            writer.writerow(["2018-01-02", "A"])
        if draw(st.integers(0, 9)) == 9:
            out.write(ending)  # blank line
        notes = [draw(st.sampled_from(("", "x", "two\nlines", 'a "quote"'))) for _ in extra]
        writer.writerow([row[c] for c in header[: len(CSV_COLUMNS)]] + notes)
    if malformed_at == len(rows):
        writer.writerow(["2018-01-02", "A"])
    bom = draw(st.sampled_from(("", "\ufeff", "\ufeff\ufeff")))
    return (bom + out.getvalue()).encode("utf-8")


def _market(rows, header=CSV_COLUMNS):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode()


def _series_rows(n=14, **cells):
    """n clean rows of ticker A on consecutive days, `cells` (column -> {row: text}) written over them."""
    rows = []
    for i in range(n):
        row = {
            "date": (BASE_DATE + dt.timedelta(days=i)).isoformat(),
            "ticker": "A",
            "sector": "Tech",
            **{column: "1.5" for column in RAW_COLUMNS},
            "PX_OFFICIAL_CLOSE": repr(100.0 + i),
            "TOT_ANALYST_REC": "10",
            "TOT_BUY_REC": "5",
            "TOT_SELL_REC": "2",
            "TOT_HOLD_REC": "3",
        }
        for column, texts in cells.items():
            row[column] = texts.get(i, row[column])
        rows.append([row[c] for c in CSV_COLUMNS])
    return _market(rows)


# exact rec-count sum: 2^53 + 1 rounds to 2^53 in float64
@example(_series_rows(TOT_ANALYST_REC={11: str(2**53)}, TOT_BUY_REC={11: str(2**53)},
                      TOT_SELL_REC={11: "1"}, TOT_HOLD_REC={11: "0"}))
@example(_series_rows(TOT_BUY_REC={10: "-0", 11: "-0.0"}, TOT_HOLD_REC={12: "-0"}))
@example(_series_rows(PX_OFFICIAL_CLOSE={3: "1e308"}))
@example(_series_rows(PX_OFFICIAL_CLOSE={11: "1e308"}, PE_RATIO={12: "-0.0"}))
@example(_series_rows(TOT_ANALYST_REC={10: "0"}, TOT_BUY_REC={10: "0", 11: "11"},
                      TOT_SELL_REC={10: "0"}, TOT_HOLD_REC={10: "0"}))
@example(_series_rows(date={5: "20180107"}))
@example(_series_rows(date={5: "2018-02-30"}))
@example(b"\xef\xbb\xbf" + _series_rows())
@example(b"\xff\xfe" + _series_rows())
@example(b"")
@example(b"\n\n")
@example(_market([], header=CSV_COLUMNS[:-1]))
@example(_market([], header=CSV_COLUMNS + ("date",)))
@example(_market([]))
@settings(max_examples=300, deadline=None)
@given(market_csvs())
def test_columnar_path_matches_per_row_reference(data):
    assert_same_path(data)


@settings(max_examples=60, deadline=None)
@given(
    market_csvs(),
    st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True),
    st.floats(1.001, 1.2),
    st.floats(0.8, 0.999),
)
def test_columnar_path_matches_reference_for_any_label_config(data, horizons, up, down):
    assert_same_path(data, LabelConfig(horizons=tuple(horizons), up_threshold=up, down_threshold=down))


def _lines(data):
    return data.decode().splitlines()


def _csv(lines):
    return ("\n".join(lines) + "\n").encode()


def test_first_bad_row_in_file_order_raises():
    header, first, second = _lines(_series_rows(n=2))
    short = "2018-01-09,A"
    bad_date = second.replace("2018-01-03", "2018/01/03")
    multi_line = '"2018\n01",' + first.split(",", 1)[1]  # one cell over lines 2-3
    cases = {
        (first, short, bad_date): "line 3: expected 26 columns, got 2",
        (first, bad_date, short): "line 3: bad date '2018/01/03', expected YYYY-MM-DD",
        (multi_line, short): "line 3: bad date '2018\\n01', expected YYYY-MM-DD",
    }
    for rows, message in cases.items():
        assert assert_same_path(_csv((header, *rows))) == ("error", DataError, message)


def test_first_partition_error_in_file_order_raises():
    header, *rows = _lines(_series_rows(n=4))
    conflict = rows[3].replace("Tech", "Energy")  # a new date under another sector
    both = rows[1].replace("Tech", "Energy")  # a repeated date under another sector
    cases = {
        (rows[0], conflict): "A already has a row for 2018-01-02",
        (conflict, rows[0]): "A maps to both 'Tech' and 'Energy'",
        (both, conflict): "A already has a row for 2018-01-03",
    }
    for extra, message in cases.items():
        got = assert_same_path(_csv((header, *rows[:3], *extra)))
        assert got == ("error", DataError, message)


# (column -> {row: text}) over 10 rows parsed 4 rows to a chunk (rows 0-3,
# 4-7, 8-9): cells that float() rejects, one at a time or all of a column,
# and cells that it reads although they are not plain decimals
FALLBACK_CASES = {
    "first of a chunk": {"PE_RATIO": {0: "abc", 4: "x"}, "SHORT_INT": {8: "-"}},
    "middle of a chunk": {"PE_RATIO": {5: "abc"}, "BEST_EPS": {1: "1.2.3", 2: "--1"}},
    "last of a chunk": {"PE_RATIO": {3: "abc", 7: "?"}, "SHORT_INT": {9: "1e"}},
    "runs of bad cells": {"PE_RATIO": {2: "a", 3: "b", 4: "c", 5: "d"}},
    "every cell": {"PE_RATIO": dict.fromkeys(range(10), "abc"), "SHORT_INT": dict.fromkeys(range(10), "")},
    "empty and blank": {"BEST_EPS": {0: "", 1: " ", 2: "\t", 5: "", 9: "  "}, "TOT_BUY_REC": {4: ""}},
    "read by float": {
        "BEST_EPS": {0: "nan", 1: "inf", 2: "1_000", 3: " 2.5 ", 4: "-inf", 5: "-0.0"},
        "TOT_BUY_REC": {6: "1_0", 7: " 4 ", 8: "nan"},
        "PX_OFFICIAL_CLOSE": {9: " 12.5\t"},
    },
}


@pytest.mark.parametrize("cells", FALLBACK_CASES.values(), ids=list(FALLBACK_CASES))
def test_parse_resumes_after_each_bad_cell(monkeypatch, cells):
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 4)
    data = _series_rows(n=10, **cells)
    table = ingest.parse_market_csv(data)
    rows, warnings = reference_parse_market_csv(data)
    want = np.array([[np.nan if v is None else v for v in row.values] for row in rows])
    assert np.array_equal(np.isnan(table.values), np.isnan(want))
    assert np.array_equal(table.values, want, equal_nan=True)
    assert table.parse_warnings == warnings
