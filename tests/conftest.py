import csv
import datetime as dt
import io
import sys
import tracemalloc
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np
from hypothesis import settings

# --hypothesis-profile=ci: the same examples on every run, and a failure
# prints the blob that replays it
settings.register_profile("ci", derandomize=True, print_blob=True)

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from stocksignals import ingest, reports  # noqa: E402
from stocksignals.backtest import Trade  # noqa: E402
from stocksignals.classifiers.base import fit_classifier  # noqa: E402
from stocksignals.classifiers.tree import best_split, dense_ranks  # noqa: E402
from stocksignals.ingest import CSV_COLUMNS, RAW_COLUMNS, MarketColumns, TickerSeries  # noqa: E402
from stocksignals.errors import DataError  # noqa: E402
from stocksignals.pca import FeatureScore  # noqa: E402
from stocksignals.transform import (  # noqa: E402
    CLOSE_INDEX,
    FEATURE_COLUMNS,
    Dataset,
    LabelConfig,
    SplitConfig,
    TrainTestSplit,
    assemble_features,
    label_closes,
    shuffle_split,
    split_dataset,
)

BASE_DATE = dt.date(2018, 1, 2)


def trading_date(i: int) -> dt.date:
    """Synthetic trading calendar: weekdays only, starting at BASE_DATE."""
    date = BASE_DATE
    step = 0
    while step < i:
        date += dt.timedelta(days=1)
        if date.weekday() < 5:
            step += 1
    return date


DEFAULT_VALUES = {
    "PX_OFFICIAL_CLOSE": 100.0,
    "PX_VOLUME": 1_000_000.0,
    "CUR_MKT_CAP": 5e9,
    "HISTORICAL_MARKET_CAP": 4.5e9,
    "SHORT_INT": 1e6,
    "SHORT_INT_RATIO": 1.5,
    "PE_RATIO": 22.0,
    "PX_TO_BOOK_RATIO": 3.5,
    "RETURN_ON_ASSET": 7.5,
    "BEST_EPS": 4.2,
    "BEST_EPS_LO": 3.8,
    "BEST_EPS_HI": 4.6,
    "BEST_CAPEX": 2e8,
    "BEST_CAPEX_LO": 1.5e8,
    "BEST_CAPEX_HI": 2.5e8,
    "TOT_ANALYST_REC": 10,
    "TOT_BUY_REC": 5,
    "TOT_SELL_REC": 2,
    "TOT_HOLD_REC": 3,
    "EQY_REC_CONS": 4.1,
    "BEST_ANALYST_RATING": 4.3,
    "BEST_EST_LONG_TERM_GROWTH": 12.0,
    "BEST_TARGET_PRICE": 120.0,
}


def make_row(
    ticker: str | None = "AAA",
    sector: str = "Tech",
    date: dt.date | None = BASE_DATE,
    **values,
) -> dict:
    """One input CSV row as {CSV column: value}; None is an empty cell.

    Raw values are overridden by column name, e.g. `PE_RATIO=None`.
    """
    unknown = set(values) - set(RAW_COLUMNS)
    if unknown:
        raise TypeError(f"not a raw column: {sorted(unknown)}")
    return {"date": date, "ticker": ticker, "sector": sector, **DEFAULT_VALUES, **values}


def row_csv_cells(row: dict) -> list[str]:
    """The row's cells in CSV_COLUMNS order: repr for floats, str otherwise, "" for None."""
    return [
        "" if row[c] is None else repr(row[c]) if isinstance(row[c], float) else str(row[c])
        for c in CSV_COLUMNS
    ]


def csv_bytes(rows, header=CSV_COLUMNS) -> bytes:
    """A market CSV of make_row dicts or of lists of cells."""
    lines = [",".join(header)]
    for row in rows:
        cells = row_csv_cells(row) if isinstance(row, dict) else row
        lines.append(",".join(str(c) for c in cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def series_of(rows) -> TickerSeries:
    """The one ticker series that ingest makes of these make_row dicts."""
    table = ingest.validate_and_clean(ingest.parse_market_csv(csv_bytes(rows)))
    (series,) = ingest.partition_by_ticker(table).values()
    return series


def make_series(
    closes,
    ticker: str = "AAA",
    sector: str = "Tech",
    start: int = 0,
    **values,
) -> TickerSeries:
    """A series of one row per close on consecutive trading dates."""
    return series_of(
        [
            make_row(ticker, sector, trading_date(start + i), PX_OFFICIAL_CLOSE=float(c), **values)
            for i, c in enumerate(closes)
        ]
    )


def synthetic_market_bytes(
    n_tickers: int = 3,
    n_days: int = 80,
    seed: int = 0,
    sectors=("Tech", "Energy", "Health"),
) -> bytes:
    """A complete, parseable market CSV with price walks per ticker; the
    analyst counts are redrawn every day and say nothing about returns."""
    return planted_market_bytes(n_tickers, n_days, seed, strength=0.0, block=1, sectors=sectors)


def planted_market_bytes(
    n_tickers: int,
    n_days: int,
    seed: int,
    strength: float,
    block: int,
    sectors=("Tech", "Energy", "Health"),
) -> bytes:
    """A market CSV whose analyst counts persist and may carry a planted signal.

    Each ticker's buy/sell/hold counts are redrawn every `block` days, and
    the log-return after day t is strength * (buy - sell) / total at day t
    plus N(0, 0.015) noise. With strength 0 and block 1 the draws, and so
    the bytes, are those of synthetic_market_bytes.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(n_tickers):
        ticker = f"TK{t:02d}"
        sector = sectors[t % len(sectors)]
        price = float(rng.uniform(40.0, 200.0))
        shares = float(rng.integers(50_000_000, 500_000_000))
        eps = float(rng.uniform(1.0, 8.0))
        capex = float(rng.uniform(5e7, 5e8))
        drift = 0.0  # the planted return of the day before
        for day in range(n_days):
            price = max(1.0, price * float(np.exp(drift + rng.normal(0.0, 0.015))))
            if day % block == 0:
                total = int(rng.integers(5, 30))
                buy = int(rng.integers(0, total + 1))
                sell = int(rng.integers(0, total - buy + 1))
                hold = total - buy - sell
            drift = strength * (buy - sell) / total
            eps_lo = eps * float(rng.uniform(0.8, 0.95))
            eps_hi = eps * float(rng.uniform(1.05, 1.2))
            rows.append(
                make_row(
                    ticker,
                    sector,
                    trading_date(day),
                    PX_OFFICIAL_CLOSE=round(price, 4),
                    TOT_ANALYST_REC=total,
                    TOT_BUY_REC=buy,
                    TOT_SELL_REC=sell,
                    TOT_HOLD_REC=hold,
                    PX_VOLUME=float(rng.integers(100_000, 5_000_000)),
                    CUR_MKT_CAP=round(price * shares, 2),
                    HISTORICAL_MARKET_CAP=round(price * shares * float(rng.uniform(0.7, 1.0)), 2),
                    SHORT_INT=float(rng.integers(100_000, 3_000_000)),
                    SHORT_INT_RATIO=float(rng.uniform(0.2, 6.0)),
                    PE_RATIO=float(rng.uniform(5.0, 40.0)),
                    PX_TO_BOOK_RATIO=float(rng.uniform(0.5, 8.0)),
                    RETURN_ON_ASSET=float(rng.uniform(-5.0, 20.0)),
                    BEST_EPS=round(eps, 4),
                    BEST_EPS_LO=round(eps_lo, 4),
                    BEST_EPS_HI=round(eps_hi, 4),
                    BEST_CAPEX=round(capex, 2),
                    BEST_CAPEX_LO=round(capex * 0.8, 2),
                    BEST_CAPEX_HI=round(capex * 1.25, 2),
                    EQY_REC_CONS=float(rng.uniform(1.0, 5.0)),
                    BEST_ANALYST_RATING=float(rng.uniform(1.0, 5.0)),
                    BEST_EST_LONG_TERM_GROWTH=float(rng.uniform(-2.0, 25.0)),
                    BEST_TARGET_PRICE=round(price * float(rng.uniform(0.8, 1.3)), 4),
                )
            )
    return csv_bytes(rows)


def purged_rows(data: Dataset, ticker_rows, fraction: float, gap: int):
    """(train rows, test rows) of a per-ticker chronological cut of data.

    `ticker_rows` holds one sequence of row positions per ticker. Each is
    put in date order and cut at floor(n * fraction): the rows from the cut
    on are test rows, and the rows before it are training rows except the
    last `gap` of them, so no training label looks `gap` days or less into
    the test period.
    """
    train, test = [], []
    for rows in ticker_rows:
        rows = np.asarray(rows)[np.argsort(data.dates[rows], kind="stable")]
        cut = int(len(rows) * fraction)
        train += rows[: max(cut - gap, 0)].tolist()
        test += rows[cut:].tolist()
    return train, test


def assembled(raw: bytes) -> Dataset:
    """The feature rows the CLI assembles from a market CSV, tickers in order."""
    table = ingest.validate_and_clean(ingest.parse_market_csv(raw))
    series = ingest.partition_by_ticker(table).values()
    return Dataset.concat([assemble_features(s, LabelConfig()) for s in series])


def ten_ticker_split() -> TrainTestSplit:
    """The seed-42 split of the rows assembled from a 10-ticker, 100-day
    market (630 training rows), on which the memory peaks are measured."""
    data = assembled(synthetic_market_bytes(10, 100, seed=1))
    return split_dataset(data, *shuffle_split(data, SplitConfig(seed=42)))


def traced_peak(call) -> int:
    """call()'s tracemalloc peak above the memory traced when it starts."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def parse_synthetic(n_tickers=3, n_days=80, seed=0):
    table = ingest.parse_market_csv(synthetic_market_bytes(n_tickers, n_days, seed))
    return ingest.validate_and_clean(table)


def make_dataset(X, Y, tickers="AAA") -> Dataset:
    """A Dataset of canonical-prefix feature columns and 10 horizons (-1 = unlabeled).

    Rows get consecutive trading dates; `tickers` is one name for every row
    or one name per row.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    return Dataset(
        tickers=np.array([tickers] * n if isinstance(tickers, str) else tickers),
        dates=np.busday_offset(np.datetime64(BASE_DATE), np.arange(n)),  # trading_date(i)
        X=X,
        Y=np.asarray(Y, dtype=np.int8),
        feature_names=FEATURE_COLUMNS[: X.shape[1]],
    )


def random_dataset(n: int, seed: int = 0) -> Dataset:
    """Rows with 28 random features and a random full 10-slot label vector."""
    rng = np.random.default_rng(seed)
    X = np.empty((n, len(FEATURE_COLUMNS)))
    Y = np.empty((n, 10), dtype=np.int8)
    for i in range(n):  # per row: features, then labels
        X[i] = rng.normal(0.0, 1.0, size=len(FEATURE_COLUMNS))
        Y[i] = rng.integers(0, 3, size=10)
    return make_dataset(X, Y)


def assert_same_tree(mine, reference):
    """Two DecisionTrees hold the same columns, thresholds to the bit."""
    assert (mine.n_features, mine.criterion) == (reference.n_features, reference.criterion)
    for name in ("feature", "left", "right", "counts", "label"):
        got, want = getattr(mine, name), getattr(reference, name)
        assert got.dtype.kind == want.dtype.kind == "i" and np.array_equal(got, want), name
    assert mine.threshold.dtype == reference.threshold.dtype == np.float64
    assert np.array_equal(mine.threshold.view(np.uint64), reference.threshold.view(np.uint64))


def bundle_json(bundle) -> str:
    """A bundle's model.json text, as the CLI's writer streams it."""
    stream = io.StringIO()
    reports.json_writer(bundle.to_dict())(stream)
    return stream.getvalue()


def fit_one(spec, X, y):
    """The model of spec fitted on X and one label per row."""
    return fit_classifier(spec, X, np.asarray(y)[:, None])[0]


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


def node_split(X, y, criterion, candidate_features, rows=None):
    """best_split of one node: its Split, or None when no split gains.

    `rows` indexes the node's rows in X (every row when None), repeats
    allowed; y holds their labels. The node goes to best_split as the
    grower passes it: each distinct (row, label) entry once, weighted by
    how often it occurs.
    """
    if len(y) == 0:
        return None
    rows = np.arange(len(y)) if rows is None else np.asarray(rows)
    entries, weights = np.unique(
        np.column_stack([rows, np.asarray(y)]), axis=0, return_counts=True
    )
    feature, threshold, gain, _ = best_split(
        X, dense_ranks(X), criterion, entries[:, 0], entries[:, 1], weights,
        np.array([len(entries)]), np.array([sorted(candidate_features)]),
    )
    if feature[0] < 0:
        return None
    return Split(feature=int(feature[0]), threshold=float(threshold[0]), gain=float(gain[0]))


def horizon_report(report, horizon: int):
    """The HorizonReport of one horizon in an EvaluationReport."""
    for block in report.horizons:
        if block.horizon == horizon:
            return block
    raise KeyError(horizon)


def label_horizons(series: TickerSeries, cfg: LabelConfig = LabelConfig()):
    """label_closes applied to a ticker series (rows already date-ordered)."""
    return label_closes(series.values[:, CLOSE_INDEX], cfg)


# --- CSV round trips of the program's formats ---------------------------------

def write_market_csv(table: MarketColumns, stream) -> None:
    """Serialize a table without missing dates back to the input schema
    (repr floats, "" for NaN, so a round trip is exact)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for date, ticker, sector, values in zip(
        table.dates.astype(str).tolist(), table.tickers, table.sectors, table.values.tolist()
    ):
        writer.writerow([date, ticker, sector, *("" if v != v else repr(v) for v in values)])


def read_dataset_csv(stream) -> Dataset:
    """Load a dataset CSV back into a Dataset with the horizons it encodes."""
    reader = csv.reader(stream)
    header = next(reader)
    prefix = ["ticker", "date"] + list(FEATURE_COLUMNS)
    if header[: len(prefix)] != prefix:
        raise DataError("dataset header does not match canonical columns")
    horizons = tuple(int(name.removeprefix("label_day")) for name in header[len(prefix):])
    records = [record for record in reader if record]
    width = len(FEATURE_COLUMNS)
    return Dataset(
        tickers=np.array([r[0] for r in records]),
        dates=np.array([r[1] for r in records], dtype="datetime64[D]"),
        X=np.array([[float(x) for x in r[2 : 2 + width]] for r in records]).reshape(-1, width),
        Y=np.array(
            [[int(cell) if cell else -1 for cell in r[2 + width :]] for r in records],
            dtype=np.int8,
        ).reshape(-1, len(horizons)),
        horizons=horizons,
    )


def read_metrics_csv(stream) -> list[dict]:
    rows = []
    for record in csv.DictReader(stream):
        rows.append(
            {
                "sector": record["sector"],
                "model": record["model"],
                "horizon": int(record["horizon"]),
                "buy_precision": float(record["buy_precision"]),
                "sell_recall": float(record["sell_recall"]),
                "hold_f1": float(record["hold_f1"]),
                "micro_f1": float(record["micro_f1"]),
                "n_test": int(record["n_test"]),
            }
        )
    return rows


def read_ranking_csv(stream) -> list[FeatureScore]:
    return [
        FeatureScore(
            feature=record["feature"],
            occurrences=int(record["occurrences"]),
            weighted_occurrence=int(record["weighted_occurrence"]),
        )
        for record in csv.DictReader(stream)
    ]


def read_variance_csv(stream) -> list[dict]:
    return [
        {
            "component": int(record["component"]),
            "ratio": float(record["ratio"]),
            "cumulative": float(record["cumulative"]),
        }
        for record in csv.DictReader(stream)
    ]


def read_trades_csv(stream) -> list[Trade]:
    return [
        Trade(
            open_date=dt.date.fromisoformat(record["open_date"]),
            close_date=dt.date.fromisoformat(record["close_date"]),
            side=record["side"],
            entry_price=Decimal(record["entry_price"]),
            exit_price=Decimal(record["exit_price"]),
            exit_reason=record["exit_reason"],
            pnl=Decimal(record["pnl"]),
        )
        for record in csv.DictReader(stream)
    ]
