"""Command-line front end for the signal pipeline.

Commands: transform, evaluate, rank, backtest, pipeline. Flags override a
JSON config file (--config), which overrides documented defaults. Exit
codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from stocksignals import ingest, reports
from stocksignals.backtest import BacktestConfig, run_backtest
from stocksignals.classifiers import (
    ClassifierSpec,
    ModelBundle,
    bundle_json,
    fit_bundle,
    load_bundle,
)
from stocksignals.errors import (
    DataError,
    EmptyDataset,
    EmptyTraining,
    KTooLarge,
    NoEvaluableHorizon,
    NumericError,
    PipelineError,
    TooFewRows,
    UsageError,
)
from stocksignals.evaluation import EvaluationReport, evaluate_per_horizon
from stocksignals.pca import DEFAULT_WEIGHTS, PcaRanking, RankConfig, rank_features
from stocksignals.transform import (
    CLOSE_INDEX,
    DEFAULT_HORIZONS,
    FEATURE_COLUMNS,
    Dataset,
    LabelConfig,
    SplitConfig,
    TrainTestSplit,
    assemble_features,
    shuffle_split,
    split_dataset,
    write_dataset_csv,
)

logger = logging.getLogger(__name__)

OUTPUT_DIR_ENV = "STOCKSIGNALS_OUTPUT_DIR"

_KIND_BY_FLAG = {
    "decision-tree": "decision_tree",
    "random-forest": "random_forest",
    "knn": "knn",
    "gaussian-nb": "gaussian_nb",
}

# One row per configurable value: (argparse dest, or None when no flag sets
# it; config section, or None for a top-level key; config key; default).
# Per value, a flag beats the config file, which beats the default.
_SETTINGS = (
    ("data", None, "data", None),
    ("out", None, "out", None),  # then $STOCKSIGNALS_OUTPUT_DIR, then "."
    ("seed", None, "seed", 0),
    ("sector", None, "sector", None),
    ("features", None, "features", None),
    ("by_sector", None, "by_sector", False),
    ("model_file", None, "model_file", None),
    (None, "label", "horizons", DEFAULT_HORIZONS),
    ("up_threshold", "label", "up_threshold", 1.01),
    ("down_threshold", "label", "down_threshold", 0.99),
    ("train_fraction", "split", "train_fraction", 0.7),
    ("seed", "split", "seed", None),  # then the top-level seed
    ("model", "classifier", "kind", "random_forest"),
    ("criterion", "classifier", "criterion", "gini"),
    ("trees", "classifier", "n_trees", 10),
    ("k", "classifier", "k", 5),
    ("max_depth", "classifier", "max_depth", None),
    ("min_samples_split", "classifier", "min_samples_split", 2),
    ("seed", "classifier", "seed", None),  # then the top-level seed
    (None, "classifier", "mtry", None),
    (None, "classifier", "bootstrap", True),
    (None, "rank", "n_components", 6),
    (None, "rank", "contribution_threshold", 0.1),
    (None, "rank", "weights", DEFAULT_WEIGHTS),
    ("select_top", "rank", "top_k", 6),
    ("fee", "backtest", "fee_per_transaction", 0.01),
    ("take_profit", "backtest", "take_profit_fraction", 0.01),
    ("stop_loss", "backtest", "stop_loss_fraction", 0.01),
    ("signal_horizon", "backtest", "signal_horizon", 10),
    ("no_liquidate", "backtest", "liquidate_at_end", True),
)

_SECTION_KEYS = {
    section: {key for _, s, key, _ in _SETTINGS if s == section}
    for section in dict.fromkeys(s for _, s, _, _ in _SETTINGS if s is not None)
}
_CONFIG_KEYS = {key for _, section, key, _ in _SETTINGS if section is None} | set(_SECTION_KEYS)


@dataclass
class RunConfig:
    data: Path
    out: Path
    label: LabelConfig
    split: SplitConfig
    classifier: ClassifierSpec
    rank: RankConfig
    backtest: BacktestConfig
    seed: int
    sector: str | None = None
    features_file: Path | None = None
    by_sector: bool = False
    model_file: Path | None = None

    def to_manifest(self, command: str) -> dict:
        # the output directory is deliberately absent: the manifest lives in
        # it, and recording it would break byte-identical reruns elsewhere
        return {
            "command": command,
            "data": str(self.data),
            "seed": self.seed,
            "sector": self.sector,
            "features_file": str(self.features_file) if self.features_file else None,
            "by_sector": self.by_sector,
            "model_file": str(self.model_file) if self.model_file else None,
            "label": asdict(self.label),
            "split": asdict(self.split),
            "classifier": asdict(self.classifier),
            "rank": asdict(self.rank),
            "backtest": asdict(self.backtest),
        }


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as UsageError (exit code 1)."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stocksignals", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text in (
        ("transform", "ingest a market CSV and write the labeled dataset"),
        ("evaluate", "train per-horizon classifiers and report signal metrics"),
        ("rank", "rank features by weighted PCA occurrence"),
        ("backtest", "replay per-ticker test windows through the trade rules"),
        ("pipeline", "run transform, evaluate, rank, and backtest in order"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--data", help="input market CSV path")
        cmd.add_argument("--out", help="output directory (default: $%s or .)" % OUTPUT_DIR_ENV)
        cmd.add_argument("--config", help="JSON config file; flags override it")
        cmd.add_argument("--seed", type=int, help="seed for the split and the classifier")
        cmd.add_argument("--train-fraction", type=float, dest="train_fraction")
        cmd.add_argument("--sector", help="restrict to one sector")
        cmd.add_argument(
            "--features",
            help="file with one feature name per line; train on that subset",
        )
        cmd.add_argument("--up-threshold", type=float, dest="up_threshold")
        cmd.add_argument("--down-threshold", type=float, dest="down_threshold")
        if name in ("evaluate", "backtest", "pipeline"):
            cmd.add_argument(
                "--model",
                choices=sorted(_KIND_BY_FLAG),
                help="classifier kind (default random-forest)",
            )
            cmd.add_argument("--criterion", choices=("gini", "entropy"))
            cmd.add_argument("--trees", type=int, help="forest size")
            cmd.add_argument("--k", type=int, help="neighbour count for knn")
            cmd.add_argument("--max-depth", type=int, dest="max_depth")
            cmd.add_argument(
                "--min-samples-split", type=int, dest="min_samples_split"
            )
        if name == "evaluate":
            cmd.add_argument(
                "--by-sector",
                action="store_true",
                default=None,
                dest="by_sector",
                help="evaluate each sector separately",
            )
        if name in ("rank", "pipeline"):
            cmd.add_argument("--select-top", type=int, dest="select_top")
        if name in ("backtest", "pipeline"):
            cmd.add_argument("--signal-horizon", type=int, dest="signal_horizon")
            cmd.add_argument("--fee", type=float, help="fee per transaction in USD")
            cmd.add_argument("--take-profit", type=float, dest="take_profit")
            cmd.add_argument("--stop-loss", type=float, dest="stop_loss")
            cmd.add_argument(
                "--no-liquidate",
                action="store_true",
                default=None,
                dest="no_liquidate",
                help="leave the final position open",
            )
        if name == "backtest":
            cmd.add_argument(
                "--model-file", dest="model_file", help="reuse a saved model.json"
            )
    return parser


def _section(config: Mapping, name: str) -> Mapping:
    section = config.get(name) or {}
    if not isinstance(section, Mapping):
        raise UsageError(f"config section {name!r} must be an object")
    return section


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config key {sorted(unknown)[0]!r}")
    for name, keys in _SECTION_KEYS.items():
        unknown = set(_section(data, name)) - keys
        if unknown:
            raise UsageError(f"unknown config key {name + '.' + sorted(unknown)[0]!r}")
    return data


def _resolve_settings(args: argparse.Namespace, config: Mapping) -> dict:
    """Resolved value of every _SETTINGS row, keyed by section, then key."""
    flags = dict(vars(args))
    flags["model"] = _KIND_BY_FLAG.get(flags.get("model"))
    # --no-liquidate is store_true with default None; given, it turns liquidation off
    flags["no_liquidate"] = False if flags.get("no_liquidate") else None
    values: dict = {}
    for dest, section, key, default in _SETTINGS:
        source = config if section is None else _section(config, section)
        value = flags.get(dest) if dest else None
        if value is None:
            value = source.get(key)
        if value is None:
            value = default
        values.setdefault(section, {})[key] = tuple(value) if isinstance(value, list) else value
    return values


def parse_cli(argv: Sequence[str]) -> tuple[str, RunConfig]:
    """Parse argv into (command, resolved RunConfig).

    Precedence per value: command-line flag, then config file, then the
    documented default.
    """
    args = build_parser().parse_args(argv)
    values = _resolve_settings(args, _load_config_file(args.config))
    top = values.pop(None)
    if top["data"] is None:
        raise UsageError("missing required --data (or config key 'data')")
    for section in ("split", "classifier"):
        if values[section]["seed"] is None:
            values[section]["seed"] = top["seed"]
    label = LabelConfig(**values["label"])
    split = SplitConfig(**values["split"])
    classifier = ClassifierSpec(**values["classifier"])
    rank = RankConfig(**values["rank"])
    backtest = BacktestConfig(**values["backtest"])
    if backtest.signal_horizon not in label.horizons:
        raise UsageError(
            f"signal horizon {backtest.signal_horizon} is not a labeled horizon"
        )
    out = top["out"] if top["out"] is not None else os.environ.get(OUTPUT_DIR_ENV) or "."
    run = RunConfig(
        data=Path(top["data"]),
        out=Path(out),
        label=label,
        split=split,
        classifier=classifier,
        rank=rank,
        backtest=backtest,
        seed=split.seed,
        sector=top["sector"],
        features_file=Path(top["features"]) if top["features"] else None,
        by_sector=bool(top["by_sector"]),
        model_file=Path(top["model_file"]) if top["model_file"] else None,
    )
    return args.command, run


# --- pipeline state -----------------------------------------------------------

@dataclass
class _State:
    data: Dataset  # every assembled row, tickers in sorted order
    sectors: dict[str, str]
    ticker_rows: dict[str, range]  # each ticker's rows in data
    subset: tuple[str, ...] | None
    pooled: TrainTestSplit | None = None
    # the signal horizon's model, when evaluate fitted it on the pooled split
    signal_bundle: ModelBundle | None = None


def _load_feature_subset(path: Path) -> tuple[str, ...]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise DataError(f"feature subset file not found: {path}") from None
    names = tuple(line.strip() for line in lines if line.strip())
    if not names:
        raise DataError(f"feature subset file {path} lists no features")
    unknown = [n for n in names if n not in FEATURE_COLUMNS]
    if unknown:
        raise UsageError(f"unknown feature {unknown[0]!r} in {path}")
    return names


def _load_state(cfg: RunConfig) -> _State:
    try:
        with open(cfg.data, "rb") as stream:
            table = ingest.parse_market_csv(stream)
    except FileNotFoundError:
        raise DataError(f"input file not found: {cfg.data}") from None
    if table.parse_warnings:
        logger.warning(
            "unparseable cells demoted to missing: %s", dict(sorted(table.parse_warnings.items()))
        )
    clean = ingest.validate_and_clean(table)
    if clean.rec_count_violations:
        logger.warning(
            "%d rows where buy+sell+hold exceeds the analyst total",
            clean.rec_count_violations,
        )
    series_by_ticker = ingest.partition_by_ticker(clean)
    parts: list[Dataset] = []
    ticker_rows: dict[str, range] = {}
    sectors: dict[str, str] = {}
    n_rows = 0
    for ticker, series in series_by_ticker.items():
        if cfg.sector is not None and series.sector != cfg.sector:
            continue
        assembled = assemble_features(series, cfg.label)
        if not len(assembled):
            logger.warning("ticker %s has no usable rows after assembly", ticker)
            continue
        sectors[ticker] = series.sector
        ticker_rows[ticker] = range(n_rows, n_rows + len(assembled))
        n_rows += len(assembled)
        parts.append(assembled)
    if not parts:
        raise DataError(
            "no feature rows assembled"
            + (f" for sector {cfg.sector!r}" if cfg.sector else "")
        )
    subset = _load_feature_subset(cfg.features_file) if cfg.features_file else None
    return _State(
        data=Dataset.concat(parts), sectors=sectors, ticker_rows=ticker_rows, subset=subset
    )


def _split(cfg: RunConfig, data: Dataset) -> TrainTestSplit:
    train_rows, test_rows = shuffle_split(data, cfg.split)
    return split_dataset(data, train_rows, test_rows)


def _pooled_split(cfg: RunConfig, state: _State) -> TrainTestSplit:
    """The split of all rows, made once per run and shared by every stage."""
    if state.pooled is None:
        state.pooled = _split(cfg, state.data)
    return state.pooled


def _model_space(state: _State, split: TrainTestSplit) -> TrainTestSplit:
    """The split restricted to the --features subset, when one is set."""
    return split if state.subset is None else split.select(state.subset)


# --- stages --------------------------------------------------------------------

def _stage_transform(cfg: RunConfig, state: _State) -> None:
    path = cfg.out / "dataset.csv"
    reports.atomic_write_text(path, functools.partial(write_dataset_csv, state.data))
    print(
        f"transform: {len(state.data)} rows across "
        f"{len(state.ticker_rows)} tickers -> {path}"
    )


def _stage_evaluate(cfg: RunConfig, state: _State) -> None:
    blocks: list[EvaluationReport] = []
    skipped: dict[str, PipelineError] = {}
    if cfg.by_sector:
        for sector in sorted(set(state.sectors.values())):
            tickers = [t for t, s in state.sectors.items() if s == sector]
            try:
                split = _split(cfg, state.data.take(np.isin(state.data.tickers, tickers)))
                blocks.append(
                    evaluate_per_horizon(cfg.classifier, _model_space(state, split), sector)
                )
            except (TooFewRows, EmptyDataset, EmptyTraining, NoEvaluableHorizon, KTooLarge) as exc:
                logger.warning("sector %s skipped: %s", sector, exc)
                skipped[sector] = exc
        if not blocks:
            raise next(iter(skipped.values()))
    else:
        split = _model_space(state, _pooled_split(cfg, state))
        fitted: dict[int, ModelBundle] = {}
        blocks.append(evaluate_per_horizon(cfg.classifier, split, fitted=fitted))
        state.signal_bundle = fitted.get(cfg.backtest.signal_horizon)
    reports.atomic_write_text(
        cfg.out / "metrics.csv", reports.metrics_csv_text(blocks)
    )
    reports.atomic_write_text(
        cfg.out / "metrics.json",
        reports.metrics_json_text(blocks, cfg.seed, {s: str(e) for s, e in skipped.items()}),
    )
    scope = f"{len(blocks)} sectors" if cfg.by_sector else "pooled"
    print(
        f"evaluate: {cfg.classifier.kind} ({scope}), "
        f"{sum(len(b.horizons) for b in blocks)} horizon reports -> "
        f"{cfg.out / 'metrics.csv'}"
    )


def _stage_rank(cfg: RunConfig, state: _State) -> PcaRanking:
    split = _pooled_split(cfg, state)
    ranking = rank_features(
        split.train.X, split.scaler, split.train.feature_names, cfg.rank
    )
    reports.atomic_write_text(
        cfg.out / "ranking.csv", reports.ranking_csv_text(ranking)
    )
    reports.atomic_write_text(
        cfg.out / "variance.csv", reports.variance_csv_text(ranking)
    )
    print(
        f"rank: top-{cfg.rank.top_k} features {list(ranking.selected)} -> "
        f"{cfg.out / 'ranking.csv'}"
    )
    return ranking


def _stage_backtest(cfg: RunConfig, state: _State) -> None:
    if cfg.model_file is not None:
        bundle = load_bundle(cfg.model_file)
        if bundle.horizon != cfg.backtest.signal_horizon:
            logger.warning(
                "model horizon %d overrides configured signal horizon %d",
                bundle.horizon,
                cfg.backtest.signal_horizon,
            )
    elif state.signal_bundle is not None:
        # pipeline: evaluate fitted this model on the same split
        bundle = state.signal_bundle
    else:
        split = _model_space(state, _pooled_split(cfg, state))
        bundle = fit_bundle(cfg.classifier, split, cfg.backtest.signal_horizon)
    reports.atomic_write_text(cfg.out / "model.json", bundle_json(bundle))

    # each ticker replays its last (1 - train_fraction) share of rows; all
    # windows are predicted as one matrix
    windows: dict[str, range] = {}
    for ticker in sorted(state.ticker_rows):
        rows = state.ticker_rows[ticker]
        window = rows[int(len(rows) * cfg.split.train_fraction):]
        if window:
            windows[ticker] = window
        else:
            logger.warning("ticker %s has no test window; skipped", ticker)
    if not windows:
        raise DataError("no ticker had a test window to backtest")
    bars = state.data.take(np.concatenate([np.arange(w.start, w.stop) for w in windows.values()]))
    dates = bars.dates.tolist()
    closes = bars.X[:, CLOSE_INDEX].tolist()
    signals = bundle.predict(bars)
    total_profit = 0.0
    start = 0
    for ticker, window in windows.items():
        bar = slice(start, start + len(window))
        start = bar.stop
        report = run_backtest(
            list(zip(dates[bar], closes[bar])), list(zip(dates[bar], signals[bar])), cfg.backtest
        )
        name = reports.safe_name(ticker)
        reports.atomic_write_text(
            cfg.out / f"trades_{name}.csv", reports.trades_csv_text(report.trades)
        )
        reports.atomic_write_text(
            cfg.out / f"backtest_{name}.json",
            reports.backtest_json_text(ticker, report, cfg.seed, bundle.horizon),
        )
        total_profit += float(report.total_profit)
    print(
        f"backtest: {len(windows)} tickers, day-{bundle.horizon} signals, "
        f"total pnl ${total_profit:.4f} -> {cfg.out / 'backtest_*.json'}"
    )


def run_command(command: str, cfg: RunConfig) -> int:
    """Execute one command (or the whole pipeline) and write its artifacts."""
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {cfg.out}: {exc}") from None
    state = _load_state(cfg)
    if command in ("transform", "pipeline"):
        _stage_transform(cfg, state)
    if command in ("evaluate", "pipeline"):
        _stage_evaluate(cfg, state)
    ranking = None
    if command in ("rank", "pipeline"):
        ranking = _stage_rank(cfg, state)
    if command in ("backtest", "pipeline"):
        _stage_backtest(cfg, state)
    manifest = cfg.to_manifest(command)
    if ranking is not None:
        manifest["selected_features"] = list(ranking.selected)
        manifest["selection_padded"] = ranking.padded
    reports.atomic_write_text(
        cfg.out / "run.json", reports.manifest_json_text(manifest)
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        command, cfg = parse_cli(sys.argv[1:] if argv is None else list(argv))
        return run_command(command, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:  # fallback for any unmapped module error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
