import io
import re

import numpy as np
import pytest
from conftest import (
    csv_bytes,
    make_row,
    parse_synthetic,
    row_csv_cells,
    synthetic_market_bytes,
    trading_date,
    write_market_csv,
)

from stocksignals import ingest
from stocksignals.errors import DataError
from stocksignals.ingest import CSV_COLUMNS, RAW_COLUMNS


def clean_rows(rows):
    """validate_and_clean of the parsed CSV of these make_row dicts."""
    return ingest.validate_and_clean(ingest.parse_market_csv(csv_bytes(rows)))


def assert_same_columns(got, want):
    assert np.array_equal(got.dates, want.dates)
    assert got.tickers.tolist() == want.tickers.tolist()
    assert got.sectors.tolist() == want.sectors.tolist()
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


def test_parse_minimal_two_rows():
    data = csv_bytes([make_row(date=trading_date(0)), make_row(date=trading_date(1))])
    table = ingest.parse_market_csv(data)
    assert len(table.rows) == 2
    assert len(CSV_COLUMNS) == 26
    assert table.parse_warnings == {}
    assert table.values.shape == (2, 23) and table.values.dtype == np.float64
    assert table.values[0, RAW_COLUMNS.index("PX_OFFICIAL_CLOSE")] == 100.0
    assert table.values[0, RAW_COLUMNS.index("TOT_BUY_REC")] == 5
    assert table.dates.tolist() == [trading_date(0), trading_date(1)]
    assert table.tickers.tolist() == ["AAA", "AAA"] and table.sectors.tolist() == ["Tech"] * 2


def test_missing_required_column_names_it():
    header = [c for c in CSV_COLUMNS if c != "PX_OFFICIAL_CLOSE"]
    data = (",".join(header) + "\n").encode()
    with pytest.raises(DataError, match="^PX_OFFICIAL_CLOSE$"):
        ingest.parse_market_csv(data)


def test_zero_byte_stream_is_empty_input():
    with pytest.raises(DataError, match="^no header row$"):
        ingest.parse_market_csv(b"")
    with pytest.raises(DataError, match="^no header row$"):
        ingest.parse_market_csv(io.BytesIO(b"   \n"))


def test_extra_columns_are_ignored():
    header = ",".join(CSV_COLUMNS + ("EXTRA",))
    line = ",".join(row_csv_cells(make_row()) + ["42"])
    table = ingest.parse_market_csv(f"{header}\n{line}\n".encode())
    assert len(table.rows) == 1
    assert_same_columns(table, ingest.parse_market_csv(csv_bytes([make_row()])))


def test_unparseable_numeric_cell_becomes_missing_with_warning():
    table = ingest.parse_market_csv(csv_bytes([make_row(PE_RATIO="abc")]))
    assert np.isnan(table.values[0, RAW_COLUMNS.index("PE_RATIO")])
    assert np.isfinite(np.delete(table.values[0], RAW_COLUMNS.index("PE_RATIO"))).all()
    assert table.parse_warnings == {"PE_RATIO": 1}


@pytest.mark.parametrize(
    "column,value",
    [
        ("PX_OFFICIAL_CLOSE", "0"),
        ("PX_OFFICIAL_CLOSE", "-5.0"),
        ("TOT_BUY_REC", "-1"),
        ("TOT_BUY_REC", "2.5"),
        ("PE_RATIO", "nan"),
        ("PE_RATIO", "inf"),
    ],
)
def test_invariant_violating_cells_demoted_to_missing(column, value):
    table = ingest.parse_market_csv(csv_bytes([make_row(**{column: value})]))
    assert np.isnan(table.values[0, RAW_COLUMNS.index(column)])
    assert table.parse_warnings.get(column) == 1


def test_empty_cell_is_missing_without_warning():
    table = ingest.parse_market_csv(csv_bytes([make_row(PE_RATIO=None), make_row(PE_RATIO=" ")]))
    assert np.isnan(table.values[:, RAW_COLUMNS.index("PE_RATIO")]).all()
    assert table.parse_warnings == {}


def test_wrong_column_count_names_line():
    data = csv_bytes([make_row()]) + b"only,three,cells\n"
    with pytest.raises(DataError, match="^line 3: expected 26 columns, got 3$"):
        ingest.parse_market_csv(data)


def test_non_iso_date_is_malformed():
    cells = row_csv_cells(make_row())
    cells[CSV_COLUMNS.index("date")] = "26/11/2011"
    with pytest.raises(DataError, match="^line 2: bad date '26/11/2011', expected YYYY-MM-DD$"):
        ingest.parse_market_csv(csv_bytes([cells]))


@pytest.mark.parametrize(
    "text", ["20180102", "2018-W01-1", "2018W011", "2018-002", "2018-01-02T00:00", "\uff12018-01-02"]
)
def test_only_yyyy_mm_dd_dates_parse(text):
    # Python 3.11's date.fromisoformat reads the first three; Python 3.10's does not
    cells = row_csv_cells(make_row())
    cells[CSV_COLUMNS.index("date")] = text
    message = re.escape(f"line 2: bad date {text!r}, expected YYYY-MM-DD")
    with pytest.raises(DataError, match=f"^{message}$"):
        ingest.parse_market_csv(csv_bytes([cells]))


def test_parse_reads_rows_beyond_one_chunk(monkeypatch):
    rows = [make_row(date=trading_date(i), PX_OFFICIAL_CLOSE=100.0 + i) for i in range(7)]
    rows[5]["PE_RATIO"] = "bad"
    whole = ingest.parse_market_csv(csv_bytes(rows))
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 2)
    chunked = ingest.parse_market_csv(csv_bytes(rows))
    assert_same_columns(chunked, whole)
    assert chunked.parse_warnings == whole.parse_warnings == {"PE_RATIO": 1}


def test_clean_drops_row_with_missing_feature_and_reports():
    clean = clean_rows(
        [
            make_row(date=trading_date(0)),
            make_row(date=trading_date(1), PE_RATIO=None),
            make_row(date=trading_date(2)),
        ]
    )
    assert len(clean.rows) == 2
    assert clean.dates.tolist() == [trading_date(0), trading_date(2)]
    assert clean.dropped_by_column == {"PE_RATIO": 1}
    assert clean.rows_dropped == 1


def test_clean_identity_on_complete_table():
    table = ingest.parse_market_csv(csv_bytes([make_row(date=trading_date(i)) for i in range(3)]))
    clean = ingest.validate_and_clean(table)
    assert_same_columns(clean, table)
    assert clean.dropped_by_column == {}
    assert clean.rows_dropped == 0


def test_all_rows_dropped():
    with pytest.raises(DataError, match="^no rows survive null-policy cleaning$"):
        clean_rows([make_row(date=trading_date(i), PX_VOLUME=None) for i in range(3)])


def test_missing_date_or_ticker_drops_row():
    clean = clean_rows(
        [
            make_row(date=None),
            make_row(ticker=None, date=trading_date(1)),
            make_row(date=trading_date(2)),
        ]
    )
    assert len(clean.rows) == 1
    assert clean.dropped_by_column == {"date": 1, "ticker": 1}


def test_rec_count_violation_flags_but_keeps_row():
    clean = clean_rows([make_row(TOT_ANALYST_REC=5, TOT_BUY_REC=4, TOT_SELL_REC=3, TOT_HOLD_REC=2)])
    assert len(clean.rows) == 1
    assert clean.rec_count_violations == 1


def test_rec_count_violation_is_exact_beyond_float_precision():
    # 2**53 + 1 rounds to 2**53 in float64, which would hide the violation
    big = make_row(TOT_ANALYST_REC=2**53, TOT_BUY_REC=2**53, TOT_SELL_REC=1, TOT_HOLD_REC=0)
    fits = make_row(date=trading_date(1), TOT_ANALYST_REC=2**53, TOT_BUY_REC=2**53 - 1,
                    TOT_SELL_REC=1, TOT_HOLD_REC=0)
    assert clean_rows([big, fits]).rec_count_violations == 1


def test_cleaning_is_idempotent():
    clean = parse_synthetic(n_tickers=2, n_days=20, seed=3)
    again = ingest.validate_and_clean(clean)
    assert_same_columns(again, clean)
    assert again.rows_dropped == 0


def test_partition_groups_and_sorts():
    clean = clean_rows(
        [
            make_row(ticker="A", date=trading_date(2)),
            make_row(ticker="B", sector="Energy", date=trading_date(0)),
            make_row(ticker="A", date=trading_date(0)),
            make_row(ticker="A", date=trading_date(1)),
        ]
    )
    series = ingest.partition_by_ticker(clean)
    assert list(series) == ["A", "B"]
    assert series["A"].dates.tolist() == [trading_date(i) for i in range(3)]
    assert series["B"].sector == "Energy"
    assert series["B"].values.shape == (1, len(RAW_COLUMNS))


def test_partition_preserves_row_multiset():
    clean = parse_synthetic(n_tickers=4, n_days=15, seed=9)
    series = ingest.partition_by_ticker(clean)
    assert sum(len(s.values) for s in series.values()) == len(clean.rows)
    rows = np.concatenate([s.values for s in series.values()])
    assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, clean.values.tolist()))


def test_partition_duplicate_key():
    clean = clean_rows([make_row(date=trading_date(0)), make_row(date=trading_date(0))])
    with pytest.raises(DataError, match="^AAA already has a row for 2018-01-02$"):
        ingest.partition_by_ticker(clean)


def test_partition_sector_conflict():
    clean = clean_rows(
        [
            make_row(date=trading_date(0), sector="Tech"),
            make_row(date=trading_date(1), sector="Energy"),
        ]
    )
    with pytest.raises(DataError, match="^AAA maps to both 'Tech' and 'Energy'$"):
        ingest.partition_by_ticker(clean)


def test_csv_round_trip_is_exact():
    clean = parse_synthetic(n_tickers=3, n_days=25, seed=11)
    out = io.StringIO()
    write_market_csv(clean, out)
    reparsed = ingest.parse_market_csv(out.getvalue().encode())
    assert reparsed.parse_warnings == {}
    assert_same_columns(ingest.validate_and_clean(reparsed), clean)


def test_round_trip_random_sweep():
    for seed in range(5):
        clean = parse_synthetic(n_tickers=2, n_days=12, seed=seed)
        out = io.StringIO()
        write_market_csv(clean, out)
        again = ingest.validate_and_clean(ingest.parse_market_csv(out.getvalue().encode()))
        assert_same_columns(again, clean)


def test_synthetic_fixture_parses_clean():
    table = ingest.parse_market_csv(synthetic_market_bytes(2, 30, 1))
    assert table.parse_warnings == {}
    clean = ingest.validate_and_clean(table)
    assert len(clean.rows) == 60
