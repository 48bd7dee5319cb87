"""Feature assembly into a columnar Dataset: indicators, labels, split, scaling.

The canonical feature vector has 28 entries: the 23 raw columns from
ingest.RAW_COLUMNS followed by buy_percent, hold_percent, sell_percent,
std_5day, std_10day, in that order for every row: a ticker's assembled X is
its cleaned (n, 23) value matrix with the five derived columns appended.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import IO, Iterable, Mapping, Sequence, Sized

import numpy as np

from stocksignals import ingest
from stocksignals.errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptySeries,
    InvalidFraction,
    TooFewRows,
    UsageError,
    WindowTooSmall,
)
from stocksignals.ingest import TickerSeries
from stocksignals.labels import Label
from stocksignals.rng import SplitMix64

DERIVED_COLUMNS: tuple[str, ...] = (
    "buy_percent",
    "hold_percent",
    "sell_percent",
    "std_5day",
    "std_10day",
)
FEATURE_COLUMNS: tuple[str, ...] = ingest.RAW_COLUMNS + DERIVED_COLUMNS
DEFAULT_HORIZONS: tuple[int, ...] = tuple(range(1, 11))

CLOSE_INDEX = FEATURE_COLUMNS.index("PX_OFFICIAL_CLOSE")
# the analyst total, then the counts behind buy_percent, hold_percent, sell_percent
_TOTAL_INDEX = FEATURE_COLUMNS.index("TOT_ANALYST_REC")
_SHARE_COUNT_INDEX = [FEATURE_COLUMNS.index(c) for c in ("TOT_BUY_REC", "TOT_HOLD_REC", "TOT_SELL_REC")]
# closes behind std_5day and std_10day; days before the longer window fills are dropped
_STD_DAYS = (5, 10)
# rows formatted at a time when writing dataset.csv
_CSV_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class LabelConfig:
    """Horizons and the up/down move thresholds that define labels."""

    horizons: tuple[int, ...] = DEFAULT_HORIZONS
    up_threshold: float = 1.01
    down_threshold: float = 0.99

    def __post_init__(self):
        if not self.horizons:
            raise UsageError("at least one horizon is required")
        if any(h <= 0 for h in self.horizons):
            raise UsageError("horizons must be positive")
        if len(set(self.horizons)) != len(self.horizons):
            raise UsageError("horizons must be distinct")
        for name in ("up_threshold", "down_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite")
        if not self.down_threshold < 1.0 < self.up_threshold:
            raise UsageError("need down_threshold < 1 < up_threshold")


@dataclass(frozen=True)
class SplitConfig:
    """Seeded train/test split parameters."""

    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidFraction(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )


@dataclass(frozen=True, eq=False)
class Scaler:
    """Per-feature mean and sample standard deviation from training rows."""

    means: np.ndarray
    stds: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.means)

    def to_dict(self) -> dict:
        return {"means": self.means.tolist(), "stds": self.stds.tolist()}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scaler":
        """The scaler to_dict saved; ValueError unless every mean is a finite
        JSON number and every std a finite one >= 0 (0 marks a constant feature)."""
        means, stds = data["means"], data["stds"]
        if all(type(v) in (int, float) for v in (*means, *stds)):
            scaler = cls(means=np.array(means, dtype=float), stds=np.array(stds, dtype=float))
            finite = np.isfinite(scaler.means).all() and np.isfinite(scaler.stds).all()
            if finite and (scaler.stds >= 0.0).all():
                return scaler
        raise ValueError("a scaler needs finite numbers as means and finite numbers >= 0 as stds")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Assembled rows as columns, grouped by ticker and ascending by date.

    X holds one float64 row of `feature_names` per ticker-day (C-order); Y
    holds one label per horizon as int8 Label values, -1 where the horizon
    runs past the ticker's series. Selecting rows or columns is indexing.
    """

    tickers: np.ndarray
    dates: np.ndarray  # datetime64[D]
    X: np.ndarray
    Y: np.ndarray
    feature_names: tuple[str, ...] = FEATURE_COLUMNS
    horizons: tuple[int, ...] = DEFAULT_HORIZONS

    def __len__(self) -> int:
        return len(self.X)

    @classmethod
    def concat(cls, parts: Sequence["Dataset"]) -> "Dataset":
        """Rows of every part in order; the parts share columns and horizons."""
        return cls(
            tickers=np.concatenate([p.tickers for p in parts]),
            dates=np.concatenate([p.dates for p in parts]),
            X=np.concatenate([p.X for p in parts]),
            Y=np.concatenate([p.Y for p in parts]),
            feature_names=parts[0].feature_names,
            horizons=parts[0].horizons,
        )

    def take(self, rows) -> "Dataset":
        """The rows picked by an index array, boolean mask or slice, in that order."""
        return replace(
            self,
            tickers=self.tickers[rows],
            dates=self.dates[rows],
            X=self.X[rows],
            Y=self.Y[rows],
        )

    def select(self, names: Sequence[str]) -> "Dataset":
        """The named feature columns, in the given order."""
        return replace(self, X=self.X[:, self.columns(names)], feature_names=tuple(names))

    def columns(self, names: Sequence[str]) -> list[int]:
        """Positions of the named features in X."""
        index = {name: i for i, name in enumerate(self.feature_names)}
        try:
            return [index[name] for name in names]
        except KeyError as exc:
            raise UsageError(f"unknown feature {exc.args[0]!r}") from None

    def labels(self, horizon: int) -> np.ndarray:
        """Label column of one horizon (-1 = unlabeled)."""
        try:
            return self.Y[:, self.horizons.index(horizon)]
        except ValueError:
            raise UsageError(f"horizon {horizon} not in {list(self.horizons)}") from None


@dataclass(frozen=True, eq=False)
class TrainTestSplit:
    """Both sides of one split plus the scaler fitted on the training side.

    Every horizon's classifier and the backtest share this one scaler.
    """

    train: Dataset
    test: Dataset
    scaler: Scaler

    def select(self, names: Sequence[str]) -> "TrainTestSplit":
        """The same split restricted to the named feature columns."""
        keep = self.train.columns(names)
        return TrainTestSplit(
            train=self.train.select(names),
            test=self.test.select(names),
            scaler=Scaler(means=self.scaler.means[keep], stds=self.scaler.stds[keep]),
        )


def rolling_std(closes, window: int) -> np.ndarray:
    """Sample standard deviation of the trailing window ending on each day.

    Days with fewer than `window` observations so far are NaN. Uses prefix
    sums of x and x^2, added in sequence (np.cumsum from 0.0); the n-1
    denominator matches the Scaler so that standardized covariance
    diagonals come out at exactly 1. A window whose sums overflow gives NaN.
    """
    if window < 2:
        raise WindowTooSmall(f"window must be >= 2, got {window}")
    closes = np.asarray(closes, dtype=float)
    out = np.full(len(closes), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.cumsum(np.concatenate(([0.0], closes)))
        squares = np.cumsum(np.concatenate(([0.0], closes * closes)))
        s = sums[window:] - sums[:-window]
        q = squares[window:] - squares[:-window]
        var = (q - s * s / window) / (window - 1)
    out[window - 1 :] = np.sqrt(np.where(var < 0.0, 0.0, var))  # clamp rounding residue
    return out


def label_closes(closes: Sequence[float], cfg: LabelConfig = LabelConfig()) -> np.ndarray:
    """Per-day labels over the configured horizons, as an int8 days x horizons matrix.

    Day i, horizon n: Buy when close[i+n] >= up_threshold * close[i], Sell
    when close[i+n] <= down_threshold * close[i], Hold in between, -1 when
    day i+n runs past the series. Horizons count trading rows, not calendar
    days. Both thresholds are inclusive.
    """
    closes = np.asarray(closes, dtype=float)
    n = len(closes)
    out = np.full((n, len(cfg.horizons)), -1, dtype=np.int8)
    for slot, horizon in enumerate(cfg.horizons):
        if horizon >= n:
            continue
        base, future = closes[:-horizon], closes[horizon:]
        out[: n - horizon, slot] = np.where(
            future >= cfg.up_threshold * base,
            Label.BUY,
            np.where(future <= cfg.down_threshold * base, Label.SELL, Label.HOLD),
        )
    return out


def assemble_features(series: TickerSeries, cfg: LabelConfig = LabelConfig()) -> Dataset:
    """Combine raw columns, derived indicators, and horizon labels per day.

    Dropped are the first nine days (std_10day needs ten closes; a std that
    overflowed to NaN later on is kept), days whose analyst total is zero
    or below one of its counts, and days with no computable label at all.
    """
    values = series.values
    if not len(values):
        raise EmptySeries(series.ticker)
    closes = values[:, CLOSE_INDEX]
    total = values[:, _TOTAL_INDEX]
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = values[:, _SHARE_COUNT_INDEX] / total[:, None]
    labels = label_closes(closes, cfg)
    keep = (
        (np.arange(len(values)) >= _STD_DAYS[-1] - 1)
        & (total != 0)
        & ((shares >= 0.0) & (shares <= 1.0)).all(axis=1)
        & (labels >= 0).any(axis=1)
    )
    X = np.column_stack((values, shares, *(rolling_std(closes, days) for days in _STD_DAYS)))
    return Dataset(
        tickers=np.full(np.count_nonzero(keep), series.ticker),
        dates=series.dates[keep],
        X=X[keep],
        Y=labels[keep],
        horizons=cfg.horizons,
    )


def shuffle_split(rows: Sized, cfg: SplitConfig) -> tuple[list[int], list[int]]:
    """Seeded Fisher-Yates permutation split into train/test index lists.

    The first floor(n * train_fraction) permuted indices form the training
    set; the remainder is the test set. Identical seed, identical split.
    """
    n = len(rows)
    if n == 0:
        raise EmptyDataset("cannot split zero rows")
    order = list(range(n))
    SplitMix64(cfg.seed).shuffle(order)
    cut = int(n * cfg.train_fraction)
    return order[:cut], order[cut:]


def split_dataset(data: Dataset, train_rows, test_rows) -> TrainTestSplit:
    """Both sides of a split, with the scaler fitted once on the training side."""
    train = data.take(train_rows)
    return TrainTestSplit(train=train, test=data.take(test_rows), scaler=standardize_fit(train.X))


def standardize_fit(X) -> Scaler:
    """Fit per-feature mean and sample (n-1) standard deviation.

    Each column is summed in row order (a cumulative sum: numpy's own sum
    goes pairwise over a single contiguous column), so the result does not
    depend on the matrix width or memory order. Constant features keep
    their value as the mean and record std 0; standardize_apply maps them
    to 0.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    if n < 2:
        raise TooFewRows(f"need at least 2 rows to fit a scaler, got {n}")
    if X.ndim != 2:
        raise DimensionMismatch("scaler input must be a 2-D matrix")
    means = np.cumsum(X, axis=0)[-1] / n
    deviations = X - means
    stds = np.sqrt(np.cumsum(deviations * deviations, axis=0)[-1] / (n - 1))
    constant = (X == X[0]).all(axis=0)
    return Scaler(means=np.where(constant, X[0], means), stds=np.where(constant, 0.0, stds))


def standardize_apply(scaler: Scaler, X) -> np.ndarray:
    """Map each value to (x - mean) / std; zero-std features map to 0."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != scaler.dimension:
        raise DimensionMismatch(
            f"rows have shape {X.shape}, scaler expects {scaler.dimension} features"
        )
    out = np.zeros_like(X)
    np.divide(X - scaler.means, scaler.stds, out=out, where=scaler.stds != 0.0)
    return out


def _csv_cells(cells: list[str]) -> list[str]:
    """Each text as csv.writer writes it as one cell of a row of several."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerows([cell, ""] for cell in cells)  # one write per row: "<cell>,\n"
    return [line[:-2] for line in lines]


def _label_cells(labels: list[int]) -> Iterable[str]:
    """Each label as 0/1/2, an empty cell when unlabeled."""
    cell = {label: "" if label < 0 else str(label) for label in set(labels)}
    return map(cell.__getitem__, labels)


def _float_cells(column: np.ndarray) -> list[str]:
    """repr of each float, formatted once per distinct bit pattern, so that
    -0.0 and 0.0 differ."""
    distinct, at = np.unique(column.view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), dtype=object)
    return texts[at].tolist()


def write_dataset_csv(data: Dataset, stream: IO[str]) -> None:
    """Persist assembled rows as csv.writer writes them: the ticker, the ISO
    date, repr of every feature (a missing feature reads `nan`) and each
    label as 0/1/2, an empty cell where the horizon is unlabeled.

    Rows go _CSV_CHUNK_ROWS at a time and a chunk is formatted a column at a
    time, a feature column once per distinct value, so each row is one join
    of its cells' texts.
    """
    csv.writer(stream, lineterminator="\n").writerow(
        ["ticker", "date", *data.feature_names, *(f"label_day{h}" for h in data.horizons)]
    )
    for start in range(0, len(data), _CSV_CHUNK_ROWS):
        rows = slice(start, start + _CSV_CHUNK_ROWS)
        columns = [
            _csv_cells(data.tickers[rows].tolist()),
            data.dates[rows].astype(str).tolist(),
            *map(_float_cells, np.ascontiguousarray(data.X[rows].T)),
            *(_label_cells(column) for column in data.Y[rows].T.tolist()),
        ]
        stream.write("\n".join(map(",".join, zip(*columns))) + "\n")
