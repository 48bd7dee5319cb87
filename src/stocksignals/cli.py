"""Command-line front end for the signal pipeline.

Commands: transform, evaluate, rank, backtest, pipeline. Flags override a
JSON config file (--config), which overrides documented defaults. Exit
codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.

Each setting is declared once. The config sections are the fields of
LabelConfig, SplitConfig, ClassifierSpec, RankConfig and BacktestConfig:
a section's keys, defaults and value types are its dataclass's fields,
and a key that is absent or null takes the field's default. The top-level
keys are the fields of _TopLevel in the same way, and _FLAGS holds every
flag with the commands that take it and the key it sets. A top-level key
applies only to the commands that take its flag. _STAGES is the table of
stages: a command runs its own stage, and pipeline runs all four in table
order.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import logging
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from stocksignals import ingest, reports
from stocksignals.backtest import BacktestConfig, run_backtest
from stocksignals.classifiers.base import (
    CRITERIA,
    KINDS,
    ClassifierSpec,
    ModelBundle,
    fit_bundles,
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
from stocksignals.pca import RankConfig, rank_features
from stocksignals.transform import (
    CLOSE_INDEX,
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

_SECTIONS = {
    "label": LabelConfig, "split": SplitConfig, "classifier": ClassifierSpec,
    "rank": RankConfig, "backtest": BacktestConfig,
}


@dataclass(frozen=True)
class _TopLevel:
    """The top-level config keys. out falls back to $STOCKSIGNALS_OUTPUT_DIR,
    then "."; the split and classifier seeds fall back to seed."""

    data: str | None = None
    out: str | None = None
    seed: int = 0
    sector: str | None = None
    features: str | None = None
    by_sector: bool = False
    model_file: str | None = None


_COMMANDS = {
    "transform": "ingest a market CSV and write the labeled dataset",
    "evaluate": "train per-horizon classifiers and report signal metrics",
    "rank": "rank features by weighted PCA occurrence",
    "backtest": "replay per-ticker test windows through the trade rules",
    "pipeline": "run transform, evaluate, rank, and backtest in order",
}
_ALL = tuple(_COMMANDS)
_FIT = ("evaluate", "backtest", "pipeline")
_TRADE = ("backtest", "pipeline")

# One row per flag, in --help order: (flag, commands that take it, config
# section or None for a top-level key, config key it sets, argparse
# keywords). Per key, a flag beats the config file, which beats the default.
_FLAGS = (
    ("--data", _ALL, None, "data", {"help": "input market CSV path"}),
    ("--out", _ALL, None, "out", {"help": f"output directory (default: ${OUTPUT_DIR_ENV} or .)"}),
    ("--config", _ALL, None, None, {"help": "JSON config file; flags override it"}),
    ("--seed", _ALL, None, "seed", {"type": int, "help": "seed for the split and the classifier"}),
    ("--train-fraction", _ALL, "split", "train_fraction", {"type": float}),
    ("--sector", _ALL, None, "sector", {"help": "restrict to one sector"}),
    ("--features", _ALL, None, "features",
     {"help": "file with one feature name per line; train on that subset"}),
    ("--up-threshold", _ALL, "label", "up_threshold", {"type": float}),
    ("--down-threshold", _ALL, "label", "down_threshold", {"type": float}),
    ("--model", _FIT, "classifier", "kind",
     {"choices": sorted(kind.replace("_", "-") for kind in KINDS),
      "help": "classifier kind (default random-forest)"}),
    ("--criterion", _FIT, "classifier", "criterion", {"choices": CRITERIA}),
    ("--trees", _FIT, "classifier", "n_trees", {"type": int, "help": "forest size"}),
    ("--k", _FIT, "classifier", "k", {"type": int, "help": "neighbour count for knn"}),
    ("--max-depth", _FIT, "classifier", "max_depth", {"type": int}),
    ("--min-samples-split", _FIT, "classifier", "min_samples_split", {"type": int}),
    ("--by-sector", ("evaluate",), None, "by_sector",
     {"action": "store_true", "default": None, "help": "evaluate each sector separately"}),
    ("--select-top", ("rank", "pipeline"), "rank", "top_k", {"type": int}),
    ("--signal-horizon", _TRADE, "backtest", "signal_horizon", {"type": int}),
    ("--fee", _TRADE, "backtest", "fee_per_transaction",
     {"type": float, "help": "fee per transaction in USD"}),
    ("--take-profit", _TRADE, "backtest", "take_profit_fraction", {"type": float}),
    ("--stop-loss", _TRADE, "backtest", "stop_loss_fraction", {"type": float}),
    ("--no-liquidate", _TRADE, "backtest", "liquidate_at_end",
     {"action": "store_const", "const": False, "help": "leave the final position open"}),
    ("--model-file", ("backtest",), None, "model_file", {"help": "reuse a saved model.json"}),
)


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
        manifest = {"command": command, **asdict(self)}
        del manifest["out"]
        return {key: str(v) if isinstance(v, Path) else v for key, v in manifest.items()}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as UsageError (exit code 1)."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    # --help leaves out the module docstring's last paragraph, which is for
    # readers of the code (python -OO strips the docstring)
    description = __doc__ and __doc__.rsplit("\n\n", 1)[0]
    parser = _Parser(prog="stocksignals", description=description)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag, commands, _, _, keywords in _FLAGS:
            if name in commands:
                cmd.add_argument(flag, **keywords)
    return parser


def _has_type(value, hint) -> bool:
    """Whether a JSON value has a section field's type: an int passes as a
    float, a bool as nothing but a bool, a list as a tuple of its items' type."""
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return type(value) is list and all(_has_type(v, item) for v in value)
    allowed = typing.get_args(hint) or (hint,)  # int | None -> (int, NoneType)
    return type(value) in allowed or (float in allowed and type(value) is int)


def _type_name(hint) -> str:
    if typing.get_origin(hint) is tuple:
        return f"a list of {typing.get_args(hint)[0].__name__}"
    types = typing.get_args(hint) or (hint,)
    return " or ".join("null" if t is type(None) else t.__name__ for t in types)


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not valid UTF-8: {exc}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return data


def parse_cli(argv: Sequence[str]) -> tuple[str, RunConfig]:
    """Parse argv into (command, resolved RunConfig).

    Precedence per value: command-line flag, then config file, then the
    default (the field default of _TopLevel or of the section's dataclass).
    """
    args = build_parser().parse_args(argv)
    config = _read_config(args.config)
    # every section must be an object before any key of any level is checked
    levels = [(None, config, _TopLevel)]
    for name, schema in _SECTIONS.items():
        values = config.get(name) or {}
        if not isinstance(values, Mapping):
            raise UsageError(f"config section {name!r} must be an object")
        levels.append((name, values, schema))
    # each flag's value under argparse's automatic dest (None when not
    # given), and whether a config value of its key applies to this command
    flags = {
        (section, key): (getattr(args, flag[2:].replace("-", "_"), None),
                         section is not None or args.command in commands)
        for flag, commands, section, key, _ in _FLAGS
        if key is not None
    }
    if flags["classifier", "kind"][0] is not None:  # only the flag is hyphenated
        flags["classifier", "kind"] = (flags["classifier", "kind"][0].replace("-", "_"), True)
    settings: dict[str | None, dict] = {}
    for name, values, schema in levels:
        prefix = "" if name is None else name + "."
        known = {f.name for f in fields(schema)} | (set(_SECTIONS) if name is None else set())
        unknown = sorted(set(values) - known)
        if unknown:
            raise UsageError(f"unknown config key {prefix + unknown[0]!r}")
        settings[name] = {}
        for key, hint in typing.get_type_hints(schema).items():
            value = values.get(key)
            if value is not None and not _has_type(value, hint):
                raise UsageError(
                    f"config key {prefix + key!r} must be {_type_name(hint)}, "
                    f"not {json.dumps(value)}"
                )
            flag, applies = flags.get((name, key), (None, True))
            value = flag if flag is not None else value if applies else None
            if value is not None:
                settings[name][key] = tuple(value) if isinstance(value, list) else value
    top = _TopLevel(**settings[None])
    # --seed beats a section's seed, which beats the top-level seed
    for name in ("split", "classifier"):
        if flags[None, "seed"][0] is not None or "seed" not in settings[name]:
            settings[name]["seed"] = top.seed
    if top.data is None:
        raise UsageError("missing required --data (or config key 'data')")
    sections = {name: schema(**settings[name]) for name, schema in _SECTIONS.items()}
    horizon = sections["backtest"].signal_horizon
    if horizon not in sections["label"].horizons:
        raise UsageError(f"signal horizon {horizon} is not a labeled horizon")
    out = top.out if top.out is not None else os.environ.get(OUTPUT_DIR_ENV) or "."
    return args.command, RunConfig(
        data=Path(top.data),
        out=Path(out),
        **sections,
        seed=sections["split"].seed,
        sector=top.sector,
        features_file=Path(top.features) if top.features else None,
        by_sector=top.by_sector,
        model_file=Path(top.model_file) if top.model_file else None,
    )


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
    except UnicodeDecodeError as exc:
        raise DataError(f"feature subset file {path} is not valid UTF-8: {exc}") from None
    names = tuple(line.strip() for line in lines if line.strip())
    if not names:
        raise DataError(f"feature subset file {path} lists no features")
    for i, name in enumerate(names):
        if name not in FEATURE_COLUMNS:
            raise UsageError(f"unknown feature {name!r} in {path}")
        if name in names[:i]:
            raise UsageError(f"feature {name!r} is listed twice in {path}")
    return names


def _load_state(cfg: RunConfig) -> _State:
    """The run's inputs, read and checked: the --features file first, then
    the market."""
    subset = _load_feature_subset(cfg.features_file) if cfg.features_file else None
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

def _stage_transform(cfg: RunConfig, state: _State) -> tuple[dict, dict]:
    print(
        f"transform: {len(state.data)} rows across "
        f"{len(state.ticker_rows)} tickers -> {cfg.out / 'dataset.csv'}"
    )
    return {"dataset.csv": functools.partial(write_dataset_csv, state.data)}, {}


def _stage_evaluate(cfg: RunConfig, state: _State) -> tuple[dict, dict]:
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
    scope = f"{len(blocks)} sectors" if cfg.by_sector else "pooled"
    print(
        f"evaluate: {cfg.classifier.kind} ({scope}), "
        f"{sum(len(b.horizons) for b in blocks)} horizon reports -> "
        f"{cfg.out / 'metrics.csv'}"
    )
    reasons = {sector: str(exc) for sector, exc in skipped.items()}
    return {
        "metrics.csv": reports.metrics_csv(blocks),
        "metrics.json": reports.metrics_json(blocks, cfg.seed, reasons),
    }, {}


def _stage_rank(cfg: RunConfig, state: _State) -> tuple[dict, dict]:
    split = _pooled_split(cfg, state)
    ranking = rank_features(
        split.train.X, split.scaler, split.train.feature_names, cfg.rank
    )
    print(
        f"rank: top-{cfg.rank.top_k} features {list(ranking.selected)} -> "
        f"{cfg.out / 'ranking.csv'}"
    )
    files = {
        "ranking.csv": reports.ranking_csv(ranking), "variance.csv": reports.variance_csv(ranking)
    }
    return files, {"selected_features": list(ranking.selected), "selection_padded": ranking.padded}


def _stage_backtest(cfg: RunConfig, state: _State) -> tuple[dict, dict]:
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
        bundle = fit_bundles(cfg.classifier, split, (cfg.backtest.signal_horizon,))[0]

    # each ticker replays its last (1 - train_fraction) share of rows, all predicted as one matrix;
    # a ticker has at least one row and int(n * f) < n for 0 < f < 1, so no window is empty
    windows = {
        ticker: rows[int(len(rows) * cfg.split.train_fraction):]
        for ticker, rows in sorted(state.ticker_rows.items())
    }
    bars = state.data.take(np.concatenate([np.arange(w.start, w.stop) for w in windows.values()]))
    dates = bars.dates.tolist()
    closes = bars.X[:, CLOSE_INDEX].tolist()
    signals = bundle.predict(bars).tolist()
    # the model's payload first: a scaler that overflowed fails before any replay
    files = {"model.json": reports.json_writer(bundle.to_dict())}
    total_profit = 0.0
    start = 0
    for ticker, window in windows.items():
        bar = slice(start, start + len(window))
        start = bar.stop
        report = run_backtest(dates[bar], closes[bar], signals[bar], cfg.backtest)
        name = reports.safe_name(ticker)
        files[f"trades_{name}.csv"] = reports.trades_csv(report.trades)
        files[f"backtest_{name}.json"] = reports.backtest_json(
            ticker, report, cfg.seed, bundle.horizon
        )
        total_profit += float(report.total_profit)
    print(
        f"backtest: {len(windows)} tickers, day-{bundle.horizon} signals, "
        f"total pnl ${total_profit:.4f} -> {cfg.out / 'backtest_*.json'}"
    )
    return files, {}


# each command's stage, in pipeline order. A stage returns its files, each
# artifact name mapped to its writer (see reports) in write order, and its
# run.json fields; only run_command knows the staging directory, and it
# streams each file into it through reports.atomic_write_text, which keeps
# that name because bench/tracing.py hooks it
_STAGES = {
    "transform": _stage_transform,
    "evaluate": _stage_evaluate,
    "rank": _stage_rank,
    "backtest": _stage_backtest,
}


def run_command(command: str, cfg: RunConfig) -> int:
    """Execute one command (or the whole pipeline) and commit its artifacts at once.

    The inputs are read and checked first, ticker file names included. Each
    stage's files are streamed into out/.stocksignals-<pid>/ as soon as it
    returns, and after the last one each file is renamed into out, run.json
    last, once no destination is a directory, which would fail its rename
    midway. A failure or interrupt removes that directory, and out if this
    run made it, so out is left as it was. A killed run can leave the
    directory behind; later runs ignore it.
    """
    state = _load_state(cfg)
    if command in _TRADE:  # the commands that write one file set per ticker
        names: dict[str, str] = {}  # artifact name fragment -> its ticker
        for ticker in sorted(state.ticker_rows):
            other = names.setdefault(reports.safe_name(ticker), ticker)
            if other != ticker:
                raise DataError(
                    f"tickers {other!r} and {ticker!r} would both write "
                    f"backtest_{reports.safe_name(ticker)}.json"
                )
    made = [path for path in (cfg.out, *cfg.out.parents) if not path.exists()]
    staging = cfg.out / f".stocksignals-{os.getpid()}"
    try:
        staging.mkdir(parents=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {cfg.out}: {exc}") from None
    try:
        manifest = cfg.to_manifest(command)
        for stage in _STAGES.values() if command == "pipeline" else (_STAGES[command],):
            files, run_fields = stage(cfg, state)
            for name, write in files.items():
                reports.atomic_write_text(staging / name, write)
            manifest.update(run_fields)
        reports.atomic_write_text(staging / "run.json", reports.json_writer(manifest))
        names = sorted(os.listdir(staging), key=lambda name: name == "run.json")
        for target in (cfg.out / name for name in names):
            if target.is_dir() and not target.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for name in names:
            os.replace(staging / name, cfg.out / name)
        made = []  # committed: the directories stay
    finally:
        for path in staging.iterdir():
            path.unlink()
        staging.rmdir()
        for path in made:
            path.rmdir()
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


if __name__ == "__main__":
    sys.exit(main())
