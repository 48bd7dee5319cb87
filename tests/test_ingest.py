import io

import pytest
from conftest import (
    csv_bytes,
    make_record,
    parse_synthetic,
    synthetic_market_bytes,
    trading_date,
    write_market_csv,
)

from stocksignals import ingest
from stocksignals.errors import (
    AllRowsDropped,
    DuplicateKey,
    EmptyInput,
    MalformedRow,
    SchemaError,
    SectorConflict,
)
from stocksignals.ingest import CSV_COLUMNS, RAW_COLUMNS


def test_parse_minimal_two_rows():
    data = csv_bytes([make_record(date=trading_date(0)), make_record(date=trading_date(1))])
    table = ingest.parse_market_csv(data)
    assert len(table.rows) == 2
    assert len(CSV_COLUMNS) == 26
    assert table.parse_warnings == {}
    assert table.rows[0].close == 100.0
    assert table.rows[0].tot_buy_rec == 5


def test_missing_required_column_names_it():
    header = [c for c in CSV_COLUMNS if c != "PX_OFFICIAL_CLOSE"]
    data = (",".join(header) + "\n").encode()
    with pytest.raises(SchemaError, match="PX_OFFICIAL_CLOSE"):
        ingest.parse_market_csv(data)


def test_zero_byte_stream_is_empty_input():
    with pytest.raises(EmptyInput):
        ingest.parse_market_csv(b"")
    with pytest.raises(EmptyInput):
        ingest.parse_market_csv(io.BytesIO(b"   \n"))


def test_extra_columns_are_ignored():
    record = make_record()
    from conftest import record_csv_cells

    header = ",".join(CSV_COLUMNS + ("EXTRA",))
    line = ",".join(record_csv_cells(record) + ["42"])
    table = ingest.parse_market_csv(f"{header}\n{line}\n".encode())
    assert len(table.rows) == 1


def test_unparseable_numeric_cell_becomes_missing_with_warning():
    record = make_record()
    from conftest import record_csv_cells

    cells = record_csv_cells(record)
    cells[CSV_COLUMNS.index("PE_RATIO")] = "abc"
    table = ingest.parse_market_csv(csv_bytes([cells]))
    assert table.rows[0].pe_ratio is None
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
    from conftest import record_csv_cells

    cells = record_csv_cells(make_record())
    cells[CSV_COLUMNS.index(column)] = value
    table = ingest.parse_market_csv(csv_bytes([cells]))
    assert table.rows[0].raw_value(column) is None
    assert table.parse_warnings.get(column) == 1


def test_wrong_column_count_names_line():
    data = csv_bytes([make_record()]) + b"only,three,cells\n"
    with pytest.raises(MalformedRow, match="line 3"):
        ingest.parse_market_csv(data)


def test_non_iso_date_is_malformed():
    from conftest import record_csv_cells

    cells = record_csv_cells(make_record())
    cells[CSV_COLUMNS.index("date")] = "26/11/2011"
    with pytest.raises(MalformedRow, match="26/11/2011"):
        ingest.parse_market_csv(csv_bytes([cells]))


def test_clean_drops_row_with_missing_feature_and_reports():
    rows = [
        make_record(date=trading_date(0)),
        make_record(date=trading_date(1), pe_ratio=None),
        make_record(date=trading_date(2)),
    ]
    table = ingest.RawTable(rows=list(rows), parse_warnings={})
    clean = ingest.validate_and_clean(table)
    assert len(clean.rows) == 2
    assert clean.dropped_by_column == {"PE_RATIO": 1}
    assert clean.rows_dropped == 1


def test_clean_identity_on_complete_table():
    rows = [make_record(date=trading_date(i)) for i in range(3)]
    clean = ingest.validate_and_clean(ingest.RawTable(rows=rows, parse_warnings={}))
    assert clean.rows == rows
    assert clean.dropped_by_column == {}
    assert clean.rows_dropped == 0


def test_all_rows_dropped():
    rows = [make_record(date=trading_date(i), volume=None) for i in range(3)]
    with pytest.raises(AllRowsDropped):
        ingest.validate_and_clean(ingest.RawTable(rows=rows, parse_warnings={}))


def test_missing_date_or_ticker_drops_row():
    rows = [
        make_record(date=None),
        make_record(ticker=None, date=trading_date(1)),
        make_record(date=trading_date(2)),
    ]
    clean = ingest.validate_and_clean(ingest.RawTable(rows=rows, parse_warnings={}))
    assert len(clean.rows) == 1
    assert clean.dropped_by_column == {"date": 1, "ticker": 1}


def test_rec_count_violation_flags_but_keeps_row():
    rows = [make_record(tot_analyst_rec=5, tot_buy_rec=4, tot_sell_rec=3, tot_hold_rec=2)]
    clean = ingest.validate_and_clean(ingest.RawTable(rows=rows, parse_warnings={}))
    assert len(clean.rows) == 1
    assert clean.rec_count_violations == 1


def test_cleaning_is_idempotent():
    clean = parse_synthetic(n_tickers=2, n_days=20, seed=3)
    again = ingest.validate_and_clean(clean)
    assert again.rows == clean.rows
    assert again.rows_dropped == 0


def test_partition_groups_and_sorts():
    rows = [
        make_record(ticker="A", date=trading_date(2)),
        make_record(ticker="B", sector="Energy", date=trading_date(0)),
        make_record(ticker="A", date=trading_date(0)),
        make_record(ticker="A", date=trading_date(1)),
    ]
    clean = ingest.validate_and_clean(ingest.RawTable(rows=rows, parse_warnings={}))
    series = ingest.partition_by_ticker(clean)
    assert set(series) == {"A", "B"}
    assert [r.date for r in series["A"].records] == [trading_date(i) for i in range(3)]
    assert series["B"].sector == "Energy"
    assert len(series["B"].records) == 1


def test_partition_preserves_row_multiset():
    clean = parse_synthetic(n_tickers=4, n_days=15, seed=9)
    series = ingest.partition_by_ticker(clean)
    assert sum(len(s.records) for s in series.values()) == len(clean.rows)


def test_partition_duplicate_key():
    rows = [make_record(date=trading_date(0)), make_record(date=trading_date(0))]
    clean = ingest.CleanTable(rows=rows, dropped_by_column={}, rows_dropped=0, rec_count_violations=0)
    with pytest.raises(DuplicateKey):
        ingest.partition_by_ticker(clean)


def test_partition_sector_conflict():
    rows = [
        make_record(date=trading_date(0), sector="Tech"),
        make_record(date=trading_date(1), sector="Energy"),
    ]
    clean = ingest.CleanTable(rows=rows, dropped_by_column={}, rows_dropped=0, rec_count_violations=0)
    with pytest.raises(SectorConflict):
        ingest.partition_by_ticker(clean)


def test_csv_round_trip_is_exact():
    clean = parse_synthetic(n_tickers=3, n_days=25, seed=11)
    out = io.StringIO()
    write_market_csv(clean.rows, out)
    reparsed = ingest.parse_market_csv(out.getvalue().encode())
    assert reparsed.parse_warnings == {}
    clean_again = ingest.validate_and_clean(reparsed)
    assert clean_again.rows == clean.rows


def test_round_trip_random_sweep():
    for seed in range(5):
        clean = parse_synthetic(n_tickers=2, n_days=12, seed=seed)
        out = io.StringIO()
        write_market_csv(clean.rows, out)
        again = ingest.validate_and_clean(ingest.parse_market_csv(out.getvalue().encode()))
        assert again.rows == clean.rows


def test_synthetic_fixture_parses_clean():
    table = ingest.parse_market_csv(synthetic_market_bytes(2, 30, 1))
    assert table.parse_warnings == {}
    clean = ingest.validate_and_clean(table)
    assert len(clean.rows) == 60
