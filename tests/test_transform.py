import io
import math

import numpy as np
import pytest
from conftest import (
    label_horizons,
    make_dataset,
    make_row,
    make_series,
    random_dataset,
    read_dataset_csv,
    series_of,
    trading_date,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_labels,
    reference_rolling_std,
    reference_scaler,
    reference_standardize,
    reference_write_dataset_csv,
)

from stocksignals import transform
from stocksignals.errors import DataError, EmptyDataset, TooFewRows, UsageError
from stocksignals.ingest import RAW_COLUMNS
from stocksignals.labels import Label
from stocksignals.transform import (
    FEATURE_COLUMNS,
    Dataset,
    LabelConfig,
    SplitConfig,
    assemble_features,
    label_closes,
    rolling_std,
    shuffle_split,
    split_dataset,
    standardize_apply,
    standardize_fit,
    write_dataset_csv,
)


# --- derived percentages -----------------------------------------------------

def _shares(total, buy, hold, sell):
    """(buy, hold, sell)_percent of each assembled day of a 12-day series with these counts."""
    series = make_series(
        100.0 + np.arange(12.0),
        TOT_ANALYST_REC=total, TOT_BUY_REC=buy, TOT_HOLD_REC=hold, TOT_SELL_REC=sell,
    )
    data = assemble_features(series)
    return data.X[:, data.columns(["buy_percent", "hold_percent", "sell_percent"])].tolist()


def test_rec_percentages_basic():
    assert _shares(10, 5, 3, 2) == [[0.5, 0.3, 0.2]] * 2


def test_rec_percentages_zero_total_is_missing():
    assert _shares(0, 0, 0, 0) == []


def test_rec_percentages_all_buy():
    assert _shares(4, 4, 0, 0) == [[1.0, 0.0, 0.0]] * 2


def test_rec_percentages_count_above_total_is_missing():
    assert _shares(5, 7, 0, 0) == []


def test_rec_percentages_of_a_minus_zero_count_are_plus_zero():
    series = series_of([make_row(date=trading_date(i), TOT_BUY_REC="-0") for i in range(12)])
    data = assemble_features(series)
    buy = data.X[:, data.columns(["TOT_BUY_REC", "buy_percent"])]
    assert buy.size and not np.signbit(buy).any()


# --- rolling std ---------------------------------------------------------------

def test_rolling_std_hand_value():
    out = rolling_std([1.0, 2.0, 3.0, 4.0, 5.0], 5)
    assert np.isnan(out[:4]).all()
    assert out[4] == pytest.approx(math.sqrt(2.5), rel=1e-12)


def test_rolling_std_constant_is_zero():
    assert rolling_std([7.0] * 5, 5)[4] == 0.0


def test_rolling_std_short_series_all_missing():
    out = rolling_std([1.0, 2.0, 3.0, 4.0], 5)
    assert out.shape == (4,) and np.isnan(out).all()


def test_rolling_std_window_too_small():
    with pytest.raises(UsageError, match="^window must be >= 2, got 1$"):
        rolling_std([1.0, 2.0], 1)


def test_rolling_std_matches_two_pass_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(5, 40))
        window = int(rng.integers(2, min(n, 12) + 1))
        closes = list(rng.uniform(10.0, 500.0, size=n))
        got = rolling_std(closes, window)
        for i in range(n):
            if i + 1 < window:
                assert np.isnan(got[i])
                continue
            chunk = closes[i + 1 - window : i + 1]
            mean = sum(chunk) / window
            var = sum((x - mean) ** 2 for x in chunk) / (window - 1)
            assert got[i] == pytest.approx(math.sqrt(var), abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(1e-3, 1e6) | st.sampled_from([1e154, 1e308]), max_size=30),
    st.integers(2, 12),
)
def test_rolling_std_matches_prefix_sum_reference_bit_for_bit(closes, window):
    want = [math.nan if w is None else w for w in reference_rolling_std(closes, window)]
    got = rolling_std(closes, window)
    assert np.array_equal(got, np.array(want), equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(np.array(want, dtype=float)))


# --- labels --------------------------------------------------------------------

def test_label_boundaries_from_move_table():
    cfg = LabelConfig()
    series = make_series([100.0] + [100.0] * 10)
    # horizon 3 lands exactly on the +1% boundary
    closes = [100.0, 100.0, 100.0, 101.0, 100.0, 99.0, 100.0, 100.5, 100.0, 100.0, 100.0]
    labels = label_closes(closes, cfg)
    assert labels[0][2] == Label.BUY  # close[3] == 101.0
    assert labels[0][4] == Label.SELL  # close[5] == 99.0
    assert labels[0][6] == Label.HOLD  # close[7] == 100.5
    assert (label_horizons(series)[-1] == -1).all()


def test_label_monotone_in_future_close():
    cfg = LabelConfig()
    base = 100.0
    previous = Label.SELL
    for future in np.linspace(95.0, 105.0, 101):
        labels = label_closes([base, float(future)], LabelConfig(horizons=(1,)))
        label = labels[0][0]
        assert label >= previous or label == previous
        if label != previous:
            assert int(label) > int(previous)
            previous = label
    assert previous == Label.BUY


def test_label_scale_invariance_power_of_two():
    rng = np.random.default_rng(7)
    closes = list(rng.uniform(20.0, 300.0, size=30))
    base = label_closes(closes)
    for c in (0.25, 0.5, 2.0, 8.0, 1024.0):
        assert np.array_equal(label_closes([x * c for x in closes]), base)


def test_label_scale_invariance_generic_walks():
    rng = np.random.default_rng(11)
    for seed in range(10):
        walk = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=25)))
        closes = [float(x) for x in walk]
        base = label_closes(closes)
        for c in (0.37, 3.1, 19.9):
            assert np.array_equal(label_closes([x * c for x in closes]), base)


@st.composite
def labeling_inputs(draw):
    """(closes, cfg): a price walk, some of whose closes sit exactly on
    up * close[i] or down * close[i] for an earlier day i, and horizons that
    may reach past the series."""
    up = draw(st.floats(1.0001, 1.5))
    down = draw(st.floats(0.5, 0.9999))
    closes = draw(st.lists(st.floats(0.01, 1e6), min_size=1, max_size=30))
    hits = draw(
        st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40), st.booleans()), max_size=12)
    )
    for target, back, on_up in sorted(hits):  # ascending targets: sources are final
        if target < len(closes) and back <= target:
            closes[target] = (up if on_up else down) * closes[target - back]
    horizons = draw(st.lists(st.integers(1, 45), min_size=1, max_size=6, unique=True))
    return closes, LabelConfig(horizons=tuple(horizons), up_threshold=up, down_threshold=down)


@settings(max_examples=400, deadline=None)
@given(labeling_inputs())
@example(([100.0, 101.0, 99.0, 100.0], LabelConfig(horizons=(1, 2, 4))))
def test_label_closes_matches_brute_force_oracle(case):
    closes, cfg = case
    want = brute_force_labels(closes, cfg.horizons, cfg.up_threshold, cfg.down_threshold)
    got = label_closes(closes, cfg)
    assert got.dtype == np.int8 and got.shape == (len(closes), len(cfg.horizons))
    assert got.tolist() == [[-1 if w is None else w for w in row] for row in want]


# --- assemble ------------------------------------------------------------------

def test_assemble_drops_warmup_days():
    series = make_series(list(np.linspace(100.0, 140.0, 15)))
    rows = assemble_features(series)
    # first 9 days lack std_10day; the final day has no future rows at all
    assert len(rows) == 5
    assert rows.dates[0] == series.dates[9] == np.datetime64(trading_date(9))
    assert rows.X.shape == (5, 28) and rows.Y.shape == (5, 10)


def test_assemble_keeps_a_day_whose_std_overflowed():
    closes = [100.0 + i for i in range(14)]
    closes[11] = 1e308  # x * x overflows: this and later windows give nan
    rows = assemble_features(make_series(closes))
    assert rows.dates.tolist() == [trading_date(i) for i in range(9, 13)]
    std10 = rows.X[:, FEATURE_COLUMNS.index("std_10day")]
    assert not np.isnan(std10[:2]).any() and np.isnan(std10[2:]).all()


def test_assemble_drops_zero_analyst_day():
    rows = [make_row(date=trading_date(i), PX_OFFICIAL_CLOSE=100.0 + i) for i in range(20)]
    for column in ("TOT_ANALYST_REC", "TOT_BUY_REC", "TOT_SELL_REC", "TOT_HOLD_REC"):
        rows[12][column] = 0
    data = assemble_features(series_of(rows))
    assert trading_date(12) not in data.dates.tolist()
    assert trading_date(13) in data.dates.tolist()


def test_assemble_full_series_has_28_features():
    series = make_series(list(100.0 + np.arange(20.0)))
    rows = assemble_features(series)
    assert rows
    buy_i = FEATURE_COLUMNS.index("buy_percent")
    hold_i = FEATURE_COLUMNS.index("hold_percent")
    sell_i = FEATURE_COLUMNS.index("sell_percent")
    assert rows.X.shape[1] == len(FEATURE_COLUMNS) == 28
    assert rows.X.flags.c_contiguous
    assert np.array_equal(rows.X[:, : len(RAW_COLUMNS)], series.values[9:19])
    for features in rows.X.tolist():
        assert features[-2] >= 0.0 and features[-1] >= 0.0
        percentages = (features[buy_i], features[hold_i], features[sell_i])
        assert all(0.0 <= p <= 1.0 for p in percentages)
        # fixture counts sum to the analyst total, so the shares sum to 1
        assert abs(sum(percentages) - 1.0) < 1e-9


def test_assemble_empty_series():
    empty = transform.TickerSeries(
        "X", "Tech", np.array([], dtype="datetime64[D]"), np.empty((0, len(RAW_COLUMNS)))
    )
    with pytest.raises(DataError, match="^X$"):
        assemble_features(empty)


def test_assemble_row_count_never_exceeds_input():
    rng = np.random.default_rng(5)
    for seed in range(5):
        n = int(rng.integers(1, 40))
        closes = list(rng.uniform(50, 150, size=n))
        series = make_series(closes)
        rows = assemble_features(series)
        assert len(rows) <= n


# --- split ---------------------------------------------------------------------

def test_shuffle_split_sizes():
    rows = random_dataset(10)
    train, test = shuffle_split(rows, SplitConfig(train_fraction=0.7, seed=1))
    assert len(train) == 7 and len(test) == 3


def test_shuffle_split_deterministic():
    rows = random_dataset(25)
    cfg = SplitConfig(train_fraction=0.7, seed=99)
    assert shuffle_split(rows, cfg) == shuffle_split(rows, cfg)
    other = shuffle_split(rows, SplitConfig(train_fraction=0.7, seed=100))
    assert other != shuffle_split(rows, cfg)


def test_shuffle_split_partitions_indices():
    rows = random_dataset(33)
    for seed in range(10):
        train, test = shuffle_split(rows, SplitConfig(seed=seed))
        assert sorted(train + test) == list(range(33))
        assert not set(train) & set(test)


def test_shuffle_split_invalid_fraction():
    rows = random_dataset(4)
    with pytest.raises(UsageError, match=r"^train_fraction must be in \(0, 1\), got 1.0$"):
        shuffle_split(rows, SplitConfig(train_fraction=1.0, seed=0))


def test_shuffle_split_empty():
    with pytest.raises(EmptyDataset):
        shuffle_split([], SplitConfig(seed=0))


# --- dataset selection -----------------------------------------------------------

def _sector_rows(data: Dataset, sectors: dict[str, str]) -> dict[str, Dataset]:
    """Rows per sector, selected the way `--by-sector` does: a ticker mask."""
    return {
        sector: data.take(np.isin(data.tickers, [t for t, s in sectors.items() if s == sector]))
        for sector in sorted(set(sectors.values()))
    }


def test_group_by_sector():
    data = make_dataset(
        np.arange(12.0).reshape(4, 3),
        [[1] * 10] * 4,
        tickers=["AAPL", "XOM", "AAPL", "MSFT"],
    )
    groups = _sector_rows(data, {"AAPL": "Tech", "XOM": "Energy", "MSFT": "Tech"})
    assert sorted(groups) == ["Energy", "Tech"]
    tech = groups["Tech"]
    assert tech.tickers.tolist() == ["AAPL", "AAPL", "MSFT"]
    assert tech.X[:, 0].tolist() == [0.0, 6.0, 9.0]
    assert tech.dates.tolist() == [data.dates.tolist()[i] for i in (0, 2, 3)]
    assert groups["Energy"].X.tolist() == [data.X[1].tolist()]


def test_group_by_sector_single_sector_identity():
    data = random_dataset(5)
    groups = _sector_rows(data, {"AAA": "Tech"})
    assert list(groups) == ["Tech"]
    assert groups["Tech"].X.tolist() == data.X.tolist()
    assert groups["Tech"].Y.tolist() == data.Y.tolist()
    assert groups["Tech"].dates.tolist() == data.dates.tolist()


def test_concat_of_parts_restores_whole():
    data = random_dataset(9, seed=1)
    parts = [data.take(slice(0, 4)), data.take(slice(4, 4)), data.take(slice(4, 9))]
    whole = Dataset.concat(parts)
    assert whole.X.tolist() == data.X.tolist()
    assert whole.Y.tolist() == data.Y.tolist()
    assert whole.dates.tolist() == data.dates.tolist()


def test_labels_unknown_horizon():
    with pytest.raises(UsageError):
        random_dataset(3).labels(11)


def test_split_dataset_fits_scaler_on_train_only():
    data = random_dataset(20, seed=4)
    train_rows, test_rows = shuffle_split(data, SplitConfig(seed=3))
    split = split_dataset(data, train_rows, test_rows)
    assert split.train.X.tolist() == data.X[train_rows].tolist()
    assert split.test.Y.tolist() == data.Y[test_rows].tolist()
    assert split.scaler.to_dict() == standardize_fit(data.X[train_rows]).to_dict()


# --- scaler ---------------------------------------------------------------------

def test_standardize_fit_hand_values():
    scaler = standardize_fit([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    assert scaler.means.tolist() == [2.0, 5.0]
    assert scaler.stds.tolist() == [1.0, 0.0]


def test_standardize_fit_single_row():
    with pytest.raises(TooFewRows):
        standardize_fit([[1.0, 2.0]])


def test_standardize_apply_self_is_zscore():
    rng = np.random.default_rng(3)
    X = rng.normal(10.0, 4.0, size=(40, 5)).tolist()
    scaler = standardize_fit(X)
    Z = np.asarray(standardize_apply(scaler, X))
    assert np.abs(Z.mean(axis=0)).max() < 1e-9
    assert np.abs(Z.std(axis=0, ddof=1) - 1.0).max() < 1e-9


def test_standardize_apply_constant_maps_to_zero():
    X = [[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]
    scaler = standardize_fit(X)
    Z = standardize_apply(scaler, X)
    assert Z[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_standardize_apply_dimension_mismatch():
    scaler = standardize_fit([[1.0] * 28, [2.0] * 28])
    with pytest.raises(DataError, match=r"^rows have shape \(1, 27\), scaler expects 28 features$"):
        standardize_apply(scaler, [[1.0] * 27])


def _bits(values):
    return [float(x).hex() for x in np.ravel(values)]


@st.composite
def scaler_inputs(draw):
    """Matrices of 2+ rows whose columns are constant, or mix magnitudes from 1e-9 to 1e12."""
    n = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=1, max_value=6))
    value = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False)
    columns = []
    for _ in range(d):
        if draw(st.booleans()):
            columns.append([draw(value)] * n)
        else:
            scale = draw(st.sampled_from([1e-9, 1e-3, 1.0, 1e3]))
            columns.append([x * scale for x in draw(st.lists(value, min_size=n, max_size=n))])
    return [list(row) for row in zip(*columns)]


@settings(max_examples=300, deadline=None)
@given(scaler_inputs())
@example([[1.0, 5.0], [2.0, 5.0]])
@example([[0.1, -3.0], [0.1, 2e11]])
@example([[1e-9, 7.0, 3e11], [2.5e-9, 7.0, -4e10], [1.0e-9, 7.0, 5.0]])
def test_standardize_matches_reference_bit_for_bit(rows):
    means, stds = reference_scaler(rows)
    scaler = standardize_fit(rows)
    assert _bits(scaler.means) == _bits(means)
    assert _bits(scaler.stds) == _bits(stds)
    assert _bits(standardize_apply(scaler, rows)) == _bits(reference_standardize(means, stds, rows))
    # Fortran order and a single column must not change the summation order
    assert _bits(standardize_fit(np.asfortranarray(rows)).means) == _bits(means)
    assert _bits(standardize_fit(np.asarray(rows)[:, :1]).stds) == _bits(stds[:1])


# --- projection and dataset CSV ---------------------------------------------------

def test_select_is_pure_column_selection():
    data = random_dataset(6)
    selected = [FEATURE_COLUMNS[3], FEATURE_COLUMNS[17]]
    projected = data.select(selected)
    assert projected.feature_names == tuple(selected)
    assert projected.X.tolist() == data.X[:, [3, 17]].tolist()
    assert projected.Y.tolist() == data.Y.tolist()
    with pytest.raises(UsageError):
        data.select(["NOT_A_FEATURE"])


def test_dataset_csv_round_trip(monkeypatch):
    # a small chunk size makes the 40-row write cross several chunk boundaries
    monkeypatch.setattr(transform, "_CSV_CHUNK_ROWS", 7)
    series = make_series(list(100.0 * np.exp(np.cumsum(np.random.default_rng(2).normal(0, 0.02, 40)))))
    rows = assemble_features(series)
    out = io.StringIO()
    write_dataset_csv(rows, out)
    back = read_dataset_csv(io.StringIO(out.getvalue()))
    assert back.horizons == tuple(range(1, 11))
    assert back.tickers.tolist() == rows.tickers.tolist()
    assert back.dates.tolist() == rows.dates.tolist()
    assert _bits(back.X) == _bits(rows.X)
    assert back.Y.tolist() == rows.Y.tolist()


# floats whose text is easy to get wrong: signed zeros, infinities, subnormals,
# both sides of where repr switches to exponent form (1e-4 and 1e16) and
# values that need all 17 digits
EDGE_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308,
    1e-4, 9.999999999999999e-05, 0.00010000000000000002, -1e-4, 1e-05,
    1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16, 1e17,
    0.1 + 0.2, 1 / 3, 2.0000000000000004, 123456789.12345679, 1.7976931348623157e308,
)
# NaN bit patterns: quiet, negative, signalling and with payloads
NAN_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF4000000000ABC)
# tickers csv.writer quotes (delimiter, quote, line breaks) and ones it does not
CSV_TICKERS = ("AAA", "B,C", 'D"E', '"', "x y", " lead", "new\nline", "cr\r", "", "\u00e9", "'q'")


def _float_bits():
    """Bit patterns of any float, of the edge floats above, of NaNs with
    payloads and of values near 1e-4 and 1e16."""
    floats = st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from(EDGE_FLOATS),
        st.floats(1e-5, 1e-3),
        st.floats(-1e17, 1e17),
        st.floats(1e15, 1e17),
    )
    return st.one_of(
        floats.map(lambda x: int(np.float64(x).view(np.uint64))),
        st.sampled_from(NAN_BITS),
        st.integers(1, 2**52 - 1).map(lambda payload: 0xFFF0000000000000 | payload),
    )


@st.composite
def csv_datasets(draw):
    """Datasets of 0-12 rows and 1-5 features, some horizons maybe never labeled."""
    n = draw(st.integers(0, 12))
    d = draw(st.integers(1, 5))
    horizons = tuple(draw(st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True)))
    bits = draw(st.lists(_float_bits(), min_size=n * d, max_size=n * d))
    labels = st.sampled_from((-1, 0, 1, 2))
    Y = np.array(draw(st.lists(labels, min_size=n * len(horizons), max_size=n * len(horizons))))
    Y = Y.reshape(n, len(horizons))
    for column in draw(st.sets(st.integers(0, len(horizons) - 1))):
        Y[:, column] = -1
    return Dataset(
        tickers=np.array(draw(st.lists(st.sampled_from(CSV_TICKERS), min_size=n, max_size=n)), dtype=str),
        dates=np.datetime64("2018-01-02") + np.array(
            draw(st.lists(st.integers(0, 5000), min_size=n, max_size=n)), dtype=int
        ),
        X=np.array(bits, dtype=np.uint64).view(np.float64).reshape(n, d),
        Y=Y.astype(np.int8),
        feature_names=FEATURE_COLUMNS[:d],
        horizons=horizons,
    )


@example(make_dataset(np.zeros((0, 3)), np.zeros((0, 10))), 1)
@example(make_dataset([[0.0, -0.0], [-0.0, 0.0], [0.0, math.nan]], np.full((3, 10), -1)), 4096)
@settings(max_examples=300, deadline=None)
@given(csv_datasets(), st.sampled_from((1, 3, 4096)))
def test_dataset_csv_matches_per_row_reference(data, chunk_rows):
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "_CSV_CHUNK_ROWS", chunk_rows)
        write_dataset_csv(data, out)
    want = io.StringIO()
    reference_write_dataset_csv(data, want)
    assert out.getvalue() == want.getvalue()
