import argparse
import ast
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from conftest import (
    read_dataset_csv,
    read_metrics_csv,
    read_ranking_csv,
    read_trades_csv,
    read_variance_csv,
    synthetic_market_bytes,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stocksignals import cli, errors
from stocksignals.classifiers import base, forest
from stocksignals.classifiers.base import KINDS, fit_classifier, load_bundle
from stocksignals.classifiers.tree import grow_trees
from stocksignals.errors import UsageError
from stocksignals.transform import FEATURE_COLUMNS

ARTIFACTS = ("metrics.csv", "metrics.json", "ranking.csv", "variance.csv", "model.json")


@pytest.fixture()
def market_csv(tmp_path):
    path = tmp_path / "market.csv"
    path.write_bytes(synthetic_market_bytes(n_tickers=3, n_days=70, seed=21))
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


def contents(directory: Path) -> dict[str, bytes]:
    """Each entry of a directory of files, by name, with its bytes."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def previous_run(tmp_path, market_csv) -> tuple[Path, dict[str, bytes]]:
    """An output directory holding a successful pipeline's artifacts and a
    sentinel file, and its contents."""
    out = tmp_path / "out"
    assert run("pipeline", "--data", market_csv, "--out", out, "--trees", "2") == 0
    (out / "sentinel.txt").write_bytes(b"not an artifact\n")
    return out, contents(out)


# --- parse_cli -----------------------------------------------------------------

def test_parse_evaluate_flags():
    command, cfg = cli.parse_cli(
        ["evaluate", "--data", "d.csv", "--model", "random-forest", "--seed", "42"]
    )
    assert command == "evaluate"
    assert cfg.classifier.kind == "random_forest"
    assert cfg.classifier.seed == 42
    assert cfg.split.seed == 42
    assert cfg.seed == 42


def test_parse_rank_select_top():
    _, cfg = cli.parse_cli(["rank", "--data", "d.csv", "--select-top", "6"])
    assert cfg.rank.top_k == 6


def test_parse_unknown_command():
    with pytest.raises(UsageError):
        cli.parse_cli(["frobnicate"])
    assert run("frobnicate") == 1


def test_parse_bad_flag_names_it(capsys):
    assert run("rank", "--data", "d.csv", "--bogus-flag", "3") == 1
    assert "--bogus-flag" in capsys.readouterr().err


def test_parse_missing_data_is_usage_error():
    with pytest.raises(UsageError, match="--data"):
        cli.parse_cli(["transform"])


def test_flag_beats_config_beats_default(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "data": "from_config.csv",
                "seed": 7,
                "split": {"train_fraction": 0.6},
                "classifier": {"kind": "knn", "k": 9},
                "rank": {"top_k": 4},
                "backtest": {"fee_per_transaction": 0.05, "signal_horizon": 3},
            }
        )
    )
    _, cfg = cli.parse_cli(["pipeline", "--config", str(config), "--seed", "42"])
    assert str(cfg.data) == "from_config.csv"  # config fills the gap
    assert cfg.seed == 42                      # flag beats config
    assert cfg.split.train_fraction == 0.6     # config beats default
    assert cfg.classifier.kind == "knn" and cfg.classifier.k == 9
    assert cfg.rank.top_k == 4
    assert cfg.backtest.fee_per_transaction == 0.05
    assert cfg.backtest.signal_horizon == 3
    _, defaults = cli.parse_cli(["pipeline", "--data", "d.csv"])
    assert defaults.split.train_fraction == 0.7
    assert defaults.classifier.kind == "random_forest"
    assert defaults.rank.top_k == 6
    assert defaults.backtest.fee_per_transaction == 0.01
    _, flagged = cli.parse_cli(
        ["pipeline", "--config", str(config), "--train-fraction", "0.8", "--fee", "0.02"]
    )
    assert flagged.split.train_fraction == 0.8
    assert flagged.backtest.fee_per_transaction == 0.02


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"clasifier": {}}))
    with pytest.raises(UsageError, match="clasifier"):
        cli.parse_cli(["rank", "--data", "d.csv", "--config", str(config)])


def test_unknown_section_key_rejected(tmp_path, market_csv):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"classifier": {"n_tree": 3}}))
    with pytest.raises(UsageError, match="classifier.n_tree"):
        cli.parse_cli(["evaluate", "--data", "d.csv", "--config", str(config)])
    assert run("evaluate", "--data", market_csv, "--out", tmp_path / "out", "--config", config) == 1


def test_config_seed_fallbacks(tmp_path):
    config = tmp_path / "seeds.json"
    config.write_text(json.dumps({"seed": 7, "split": {"seed": 3}}))
    _, cfg = cli.parse_cli(["evaluate", "--data", "d.csv", "--config", str(config)])
    assert (cfg.split.seed, cfg.classifier.seed, cfg.seed) == (3, 7, 3)
    _, cfg = cli.parse_cli(["evaluate", "--data", "d.csv", "--config", str(config), "--seed", "42"])
    assert (cfg.split.seed, cfg.classifier.seed, cfg.seed) == (42, 42, 42)


def test_no_liquidate_flag_inverts_config_value(tmp_path):
    config = tmp_path / "keep.json"
    config.write_text(json.dumps({"backtest": {"liquidate_at_end": True}}))
    argv = ["backtest", "--data", "d.csv", "--config", str(config)]
    assert cli.parse_cli(argv)[1].backtest.liquidate_at_end is True
    assert cli.parse_cli(argv + ["--no-liquidate"])[1].backtest.liquidate_at_end is False
    config.write_text(json.dumps({"backtest": {"liquidate_at_end": False}}))
    assert cli.parse_cli(argv)[1].backtest.liquidate_at_end is False


def test_env_var_supplies_output_dir(tmp_path, monkeypatch, market_csv):
    out = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out))
    assert run("transform", "--data", market_csv) == 0
    assert (out / "dataset.csv").exists()


# --- the settings contract ------------------------------------------------------
# These pin what a refactor of the settings layer must keep: every command's
# options as argparse sees them, and the resolution of a config file that sets
# every key, with and without every flag. The formatted --help is not pinned,
# since it changes with the Python version and the terminal width.

# option -> (option strings, dest, type, choices, default, const, action, help)
OPTIONS = {
    "--help": (("-h", "--help"), "help", None, None, "==SUPPRESS==", None, "_HelpAction", "show this help message and exit"),
    "--data": (("--data",), "data", None, None, None, None, "_StoreAction", "input market CSV path"),
    "--out": (("--out",), "out", None, None, None, None, "_StoreAction", "output directory (default: $STOCKSIGNALS_OUTPUT_DIR or .)"),
    "--config": (("--config",), "config", None, None, None, None, "_StoreAction", "JSON config file; flags override it"),
    "--seed": (("--seed",), "seed", "int", None, None, None, "_StoreAction", "seed for the split and the classifier"),
    "--train-fraction": (("--train-fraction",), "train_fraction", "float", None, None, None, "_StoreAction", None),
    "--sector": (("--sector",), "sector", None, None, None, None, "_StoreAction", "restrict to one sector"),
    "--features": (("--features",), "features", None, None, None, None, "_StoreAction", "file with one feature name per line; train on that subset"),
    "--up-threshold": (("--up-threshold",), "up_threshold", "float", None, None, None, "_StoreAction", None),
    "--down-threshold": (("--down-threshold",), "down_threshold", "float", None, None, None, "_StoreAction", None),
    "--model": (("--model",), "model", None, ("decision-tree", "gaussian-nb", "knn", "random-forest"), None, None, "_StoreAction", "classifier kind (default random-forest)"),
    "--criterion": (("--criterion",), "criterion", None, ("gini", "entropy"), None, None, "_StoreAction", None),
    "--trees": (("--trees",), "trees", "int", None, None, None, "_StoreAction", "forest size"),
    "--k": (("--k",), "k", "int", None, None, None, "_StoreAction", "neighbour count for knn"),
    "--max-depth": (("--max-depth",), "max_depth", "int", None, None, None, "_StoreAction", None),
    "--min-samples-split": (("--min-samples-split",), "min_samples_split", "int", None, None, None, "_StoreAction", None),
    "--by-sector": (("--by-sector",), "by_sector", None, None, None, True, "_StoreTrueAction", "evaluate each sector separately"),
    "--select-top": (("--select-top",), "select_top", "int", None, None, None, "_StoreAction", None),
    "--signal-horizon": (("--signal-horizon",), "signal_horizon", "int", None, None, None, "_StoreAction", None),
    "--fee": (("--fee",), "fee", "float", None, None, None, "_StoreAction", "fee per transaction in USD"),
    "--take-profit": (("--take-profit",), "take_profit", "float", None, None, None, "_StoreAction", None),
    "--stop-loss": (("--stop-loss",), "stop_loss", "float", None, None, None, "_StoreAction", None),
    "--no-liquidate": (("--no-liquidate",), "no_liquidate", None, None, None, False, "_StoreConstAction", "leave the final position open"),
    "--model-file": (("--model-file",), "model_file", None, None, None, None, "_StoreAction", "reuse a saved model.json"),
}
COMMON = ("--help", "--data", "--out", "--config", "--seed", "--train-fraction", "--sector",
          "--features", "--up-threshold", "--down-threshold")
MODEL = ("--model", "--criterion", "--trees", "--k", "--max-depth", "--min-samples-split")
TRADE = ("--signal-horizon", "--fee", "--take-profit", "--stop-loss", "--no-liquidate")
COMMAND_OPTIONS = {
    "transform": COMMON,
    "evaluate": COMMON + MODEL + ("--by-sector",),
    "rank": COMMON + ("--select-top",),
    "backtest": COMMON + MODEL + TRADE + ("--model-file",),
    "pipeline": COMMON + MODEL + ("--select-top",) + TRADE,
}


def _option_table(command):
    actions = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices[command]._actions
    return [
        (
            tuple(a.option_strings),
            a.dest,
            getattr(a.type, "__name__", a.type),
            None if a.choices is None else tuple(a.choices),
            a.default,
            a.const,
            type(a).__name__,
            a.help,
        )
        for a in actions
    ]


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_each_command_option_table_is_pinned(command):
    assert _option_table(command) == [OPTIONS[flag] for flag in COMMAND_OPTIONS[command]]


# a config file setting every top-level key and every key of every section,
# each away from its default where the flags can still show that they win
EVERY_KEY = {
    "data": "config.csv",
    "out": "config_out",
    "seed": 7,
    "sector": "Energy",
    "features": "config_features.txt",
    "by_sector": False,
    "model_file": "config_model.json",
    "label": {"horizons": [1, 3, 5], "up_threshold": 1.02, "down_threshold": 0.98},
    "split": {"train_fraction": 0.6, "seed": 3},
    "classifier": {
        "kind": "knn", "criterion": "entropy", "n_trees": 4, "k": 7, "max_depth": 5,
        "min_samples_split": 3, "seed": 5, "mtry": 2, "bootstrap": False,
    },
    "rank": {"n_components": 3, "contribution_threshold": 0.2, "weights": [3, 2, 1], "top_k": 4},
    "backtest": {
        "fee_per_transaction": 0.05, "take_profit_fraction": 0.02, "stop_loss_fraction": 0.03,
        "signal_horizon": 3, "liquidate_at_end": True,
    },
}
EVERY_PIPELINE_FLAG = [
    "--data", "flag.csv", "--out", "flag_out", "--seed", "42", "--train-fraction", "0.8",
    "--sector", "Tech", "--features", "flag_features.txt", "--up-threshold", "1.03",
    "--down-threshold", "0.97", "--model", "decision-tree", "--criterion", "gini",
    "--trees", "6", "--k", "9", "--max-depth", "8", "--min-samples-split", "4",
    "--select-top", "5", "--signal-horizon", "5", "--fee", "0.02", "--take-profit", "0.04",
    "--stop-loss", "0.05", "--no-liquidate",
]
CONFIG_MANIFEST = {
    "command": "pipeline",
    "data": "config.csv",
    "seed": 3,
    "sector": "Energy",
    "features_file": "config_features.txt",
    "by_sector": False,
    "model_file": None,  # only backtest takes --model-file
    "label": {"horizons": (1, 3, 5), "up_threshold": 1.02, "down_threshold": 0.98},
    "split": {"train_fraction": 0.6, "seed": 3},
    "classifier": {
        "kind": "knn", "criterion": "entropy", "n_trees": 4, "k": 7, "max_depth": 5,
        "min_samples_split": 3, "seed": 5, "mtry": 2, "bootstrap": False,
    },
    "rank": {"n_components": 3, "contribution_threshold": 0.2, "weights": (3, 2, 1), "top_k": 4},
    "backtest": {
        "fee_per_transaction": 0.05, "take_profit_fraction": 0.02, "stop_loss_fraction": 0.03,
        "signal_horizon": 3, "liquidate_at_end": True,
    },
}
FLAG_MANIFEST = {
    "command": "pipeline",
    "data": "flag.csv",
    "seed": 42,
    "sector": "Tech",
    "features_file": "flag_features.txt",
    "by_sector": False,
    "model_file": None,
    "label": {"horizons": (1, 3, 5), "up_threshold": 1.03, "down_threshold": 0.97},
    "split": {"train_fraction": 0.8, "seed": 42},
    "classifier": {
        "kind": "decision_tree", "criterion": "gini", "n_trees": 6, "k": 9, "max_depth": 8,
        "min_samples_split": 4, "seed": 42, "mtry": 2, "bootstrap": False,
    },
    "rank": {"n_components": 3, "contribution_threshold": 0.2, "weights": (3, 2, 1), "top_k": 5},
    "backtest": {
        "fee_per_transaction": 0.02, "take_profit_fraction": 0.04, "stop_loss_fraction": 0.05,
        "signal_horizon": 5, "liquidate_at_end": False,
    },
}
DEFAULT_MANIFEST = {
    "command": "pipeline",
    "data": "d.csv",
    "seed": 0,
    "sector": None,
    "features_file": None,
    "by_sector": False,
    "model_file": None,
    "label": {
        "horizons": (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "up_threshold": 1.01, "down_threshold": 0.99,
    },
    "split": {"train_fraction": 0.7, "seed": 0},
    "classifier": {
        "kind": "random_forest", "criterion": "gini", "n_trees": 10, "k": 5, "max_depth": None,
        "min_samples_split": 2, "seed": 0, "mtry": None, "bootstrap": True,
    },
    "rank": {
        "n_components": 6, "contribution_threshold": 0.1, "weights": (6, 5, 4, 3, 2, 1), "top_k": 6,
    },
    "backtest": {
        "fee_per_transaction": 0.01, "take_profit_fraction": 0.01, "stop_loss_fraction": 0.01,
        "signal_horizon": 10, "liquidate_at_end": True,
    },
}


def _write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def test_every_config_key_resolves_with_and_without_every_flag(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "from_env"))
    config = _write_config(tmp_path, EVERY_KEY)
    command, cfg = cli.parse_cli(["pipeline", "--config", config])
    assert command == "pipeline" and cfg.out == Path("config_out")
    assert cfg.to_manifest("pipeline") == CONFIG_MANIFEST
    _, cfg = cli.parse_cli(["pipeline", "--config", config] + EVERY_PIPELINE_FLAG)
    assert cfg.out == Path("flag_out")
    assert cfg.to_manifest("pipeline") == FLAG_MANIFEST
    # the two flags pipeline does not take
    _, cfg = cli.parse_cli(["evaluate", "--config", config, "--by-sector"])
    assert cfg.to_manifest("pipeline") == {**CONFIG_MANIFEST, "by_sector": True}
    _, cfg = cli.parse_cli(["backtest", "--config", config, "--model-file", "flag_model.json"])
    assert cfg.to_manifest("pipeline") == {**CONFIG_MANIFEST, "model_file": "flag_model.json"}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_top_level_keys_apply_only_to_commands_taking_their_flag(tmp_path, command):
    config = _write_config(
        tmp_path, {"data": "d.csv", "by_sector": True, "model_file": "m.json"}
    )
    _, cfg = cli.parse_cli([command, "--config", config])
    assert cfg.by_sector == (command == "evaluate")
    assert cfg.model_file == (Path("m.json") if command == "backtest" else None)


def test_no_config_resolves_to_the_defaults(monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    _, cfg = cli.parse_cli(["pipeline", "--data", "d.csv"])
    assert cfg.out == Path(".")
    assert cfg.to_manifest("pipeline") == DEFAULT_MANIFEST


def test_null_config_values_take_the_defaults(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    nulls = {
        key: {k: None for k in value} if isinstance(value, dict) else None
        for key, value in EVERY_KEY.items()
    }
    _, cfg = cli.parse_cli(["pipeline", "--data", "d.csv", "--config", _write_config(tmp_path, nulls)])
    assert cfg.out == Path(".")
    assert cfg.to_manifest("pipeline") == DEFAULT_MANIFEST


def test_config_kind_takes_no_hyphenated_spelling(tmp_path):
    config = _write_config(tmp_path, {"classifier": {"kind": "random-forest"}})
    with pytest.raises(UsageError, match="unknown classifier kind 'random-forest'"):
        cli.parse_cli(["evaluate", "--data", "d.csv", "--config", config])


@pytest.mark.parametrize("section", ["label", "split", "classifier", "rank", "backtest"])
def test_unknown_key_in_each_section_is_named(tmp_path, section):
    config = _write_config(tmp_path, {section: {"bogus": 1}})
    with pytest.raises(UsageError, match=f"^unknown config key '{section}.bogus'$"):
        cli.parse_cli(["pipeline", "--data", "d.csv", "--config", config])


# one value of each JSON type, and which field types take it (null means unset)
JSON_VALUES = {
    "string": ("x", {"str", "str | None"}),
    "integer": (3, {"int", "float", "int | None"}),
    "fraction": (2.5, {"float"}),
    "boolean": (True, {"bool"}),
    "integer list": ([3], {"tuple[int, ...]"}),
    "string list": (["x"], set()),
    "object": ({"x": 1}, set()),
}


@pytest.mark.parametrize(
    "section", [*sorted(cli._SECTIONS), pytest.param(None, id="top-level")]
)
def test_config_value_of_a_wrong_type_is_named(tmp_path, capsys, section):
    """Every field of the section (or every top-level key), given a value of
    each JSON type its type does not take, exits 1 with one error line
    naming the key."""
    schema = cli._TopLevel if section is None else cli._SECTIONS[section]
    cases = 0
    for field in dataclasses.fields(schema):
        for value, takes in JSON_VALUES.values():
            if field.type in takes:
                continue
            key = field.name if section is None else f"{section}.{field.name}"
            config = {field.name: value} if section is None else {section: {field.name: value}}
            assert run("rank", "--data", "d.csv", "--config", _write_config(tmp_path, config)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: config key '{key}' must be ")
            assert err.count("\n") == 1
            cases += 1
    assert cases >= 4 * len(dataclasses.fields(schema))


@pytest.mark.parametrize(
    "config, error",
    [
        ({"bogus": 1, "label": 5}, "config section 'label' must be an object"),
        ({"seed": "x", "bogus": 1}, "unknown config key 'bogus'"),
        ({"label": {"up_threshold": "x", "bogus": 1}}, "unknown config key 'label.bogus'"),
        ({"label": {"bogus": 1}, "seed": "x"}, "config key 'seed' must be int, not \"x\""),
        ({"backtest": {"bogus": 1}, "label": {"up_threshold": "x"}},
         "config key 'label.up_threshold' must be float, not \"x\""),
    ],
    ids=["section-object-first", "unknown-before-type", "unknown-before-type-in-section",
         "top-level-first", "earlier-section-first"],
)
def test_config_error_precedence(tmp_path, config, error):
    """A config with two faults reports the one checked first."""
    with pytest.raises(UsageError, match=f"^{re.escape(error)}$"):
        cli.parse_cli(["pipeline", "--data", "d.csv", "--config", _write_config(tmp_path, config)])


# --- commands -------------------------------------------------------------------

def test_transform_writes_dataset(tmp_path, market_csv, capsys):
    out = tmp_path / "out"
    assert run("transform", "--data", market_csv, "--out", out) == 0
    assert "transform:" in capsys.readouterr().out
    data = read_dataset_csv(io.StringIO((out / "dataset.csv").read_text()))
    assert data.horizons == tuple(range(1, 11))
    assert len(data) and data.X.shape[1] == 28
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["command"] == "transform"
    assert manifest["seed"] == 0


def test_evaluate_writes_metrics(tmp_path, market_csv):
    out = tmp_path / "out"
    assert (
        run(
            "evaluate", "--data", market_csv, "--out", out,
            "--model", "decision-tree", "--seed", "5",
        )
        == 0
    )
    rows = read_metrics_csv(io.StringIO((out / "metrics.csv").read_text()))
    assert [r["horizon"] for r in rows] == list(range(1, 11))
    assert all(r["model"] == "decision_tree" and r["sector"] == "" for r in rows)
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["seed"] == 5
    assert len(payload["blocks"]) == 1
    assert len(payload["blocks"][0]["horizons"]) == 10


def test_evaluate_by_sector_blocks(tmp_path, market_csv):
    out = tmp_path / "out"
    assert (
        run(
            "evaluate", "--data", market_csv, "--out", out,
            "--model", "gaussian-nb", "--by-sector",
        )
        == 0
    )
    rows = read_metrics_csv(io.StringIO((out / "metrics.csv").read_text()))
    sectors = {r["sector"] for r in rows}
    assert sectors == {"Tech", "Energy", "Health"}
    for sector in sectors:
        assert sum(1 for r in rows if r["sector"] == sector) == 10


@pytest.mark.parametrize(
    "model,days,reason",
    [
        ("gaussian-nb", 12, "need at least 2 rows to fit a scaler, got 1"),
        ("knn", 16, "k=5 but only 4 training rows"),
    ],
)
def test_evaluate_by_sector_skips_a_degenerate_sector(tmp_path, caplog, model, days, reason):
    from conftest import csv_bytes, make_row, trading_date

    plain = synthetic_market_bytes(n_tickers=3, n_days=70, seed=21)
    tiny = csv_bytes(
        [make_row("TINY", "Tiny", trading_date(i), PX_OFFICIAL_CLOSE=50.0 + i) for i in range(days)]
    )
    for name, data in (("plain", plain), ("tiny", plain + tiny.split(b"\n", 1)[1])):
        (tmp_path / f"{name}.csv").write_bytes(data)
        argv = ("evaluate", "--by-sector", "--model", model, "--seed", "4")
        assert run(*argv, "--data", tmp_path / f"{name}.csv", "--out", tmp_path / name) == 0
    whole = json.loads((tmp_path / "plain" / "metrics.json").read_text())
    skipped = json.loads((tmp_path / "tiny" / "metrics.json").read_text())
    assert [b["sector"] for b in skipped["blocks"]] == ["Energy", "Health", "Tech"]
    assert skipped.pop("skipped_sectors") == [{"sector": "Tiny", "reason": reason}]
    assert skipped == whole
    assert (tmp_path / "tiny" / "metrics.csv").read_bytes() == (
        tmp_path / "plain" / "metrics.csv"
    ).read_bytes()
    assert f"sector Tiny skipped: {reason}" in caplog.text

    # with every sector skipped the run fails on the first sector's error
    (tmp_path / "only.csv").write_bytes(tiny)
    assert run("evaluate", "--by-sector", "--model", model, "--data", tmp_path / "only.csv",
               "--out", tmp_path / "only") == (1 if model == "knn" else 2)
    assert not (tmp_path / "only" / "metrics.json").exists()


def test_sector_filter(tmp_path, market_csv):
    out = tmp_path / "out"
    assert run("transform", "--data", market_csv, "--out", out, "--sector", "Tech") == 0
    data = read_dataset_csv(io.StringIO((out / "dataset.csv").read_text()))
    assert set(data.tickers.tolist()) == {"TK00"}
    assert run("transform", "--data", market_csv, "--out", out, "--sector", "Nope") == 2


def test_rank_artifacts_parse_back(tmp_path, market_csv):
    out = tmp_path / "out"
    assert run("rank", "--data", market_csv, "--out", out, "--select-top", "6") == 0
    scores = read_ranking_csv(io.StringIO((out / "ranking.csv").read_text()))
    assert len(scores) == 28
    assert [s.feature for s in scores[:6]] == json.loads(
        (out / "run.json").read_text()
    )["selected_features"]
    variance = read_variance_csv(io.StringIO((out / "variance.csv").read_text()))
    assert variance[0]["component"] == 1
    assert variance[-1]["cumulative"] == pytest.approx(1.0, abs=1e-9)


def test_backtest_writes_trades_and_model(tmp_path, market_csv):
    out = tmp_path / "out"
    assert (
        run(
            "backtest", "--data", market_csv, "--out", out,
            "--model", "decision-tree", "--seed", "3", "--signal-horizon", "10",
        )
        == 0
    )
    for ticker in ("TK00", "TK01", "TK02"):
        trades = read_trades_csv(
            io.StringIO((out / f"trades_{ticker}.csv").read_text())
        )
        payload = json.loads((out / f"backtest_{ticker}.json").read_text())
        assert payload["ticker"] == ticker
        assert payload["n_trades"] == len(trades)
        assert payload["signal_horizon"] == 10
    bundle = load_bundle(out / "model.json")
    assert bundle.horizon == 10
    assert bundle.feature_names == FEATURE_COLUMNS


@pytest.mark.parametrize("command", ["backtest", "pipeline"])
def test_backtest_tickers_sharing_an_artifact_name_exit_2_writing_nothing(
    tmp_path, market_csv, capsys, monkeypatch, command
):
    """The names are checked once the market is read, before any stage runs."""
    # safe_name maps both "A/B" and "A_B" to "A_B"
    market_csv.write_text(market_csv.read_text().replace("TK01", "A/B").replace("TK02", "A_B"))
    monkeypatch.setattr(cli, "_STAGES", {})  # a stage that ran would raise KeyError
    out = tmp_path / "out"
    assert run(command, "--data", market_csv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err == "data error: tickers 'A/B' and 'A_B' would both write backtest_A_B.json\n"
    assert not out.exists()


def test_transform_of_tickers_sharing_an_artifact_name_exits_0(tmp_path, market_csv):
    market_csv.write_text(market_csv.read_text().replace("TK01", "A/B").replace("TK02", "A_B"))
    out = tmp_path / "out"
    assert run("transform", "--data", market_csv, "--out", out) == 0
    assert sorted(contents(out)) == ["dataset.csv", "run.json"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_take_their_mode_from_the_umask(tmp_path, market_csv, umask, mode):
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        assert run("transform", "--data", market_csv, "--out", out) == 0
    finally:
        os.umask(previous)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.iterdir()}
    assert modes == {"dataset.csv": mode, "run.json": mode}


def test_backtest_with_saved_model_file(tmp_path, market_csv):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run("backtest", "--data", market_csv, "--out", first, "--seed", "3") == 0
    assert (
        run(
            "backtest", "--data", market_csv, "--out", second,
            "--seed", "3", "--model-file", first / "model.json",
        )
        == 0
    )
    assert (second / "model.json").read_bytes() == (first / "model.json").read_bytes()
    for ticker in ("TK00", "TK01", "TK02"):
        assert (second / f"backtest_{ticker}.json").read_bytes() == (
            first / f"backtest_{ticker}.json"
        ).read_bytes()


def test_transform_and_pipeline_ignore_top_level_keys_of_other_commands(tmp_path, market_csv):
    saved = tmp_path / "nb"
    assert run("backtest", "--data", market_csv, "--out", saved, "--model", "gaussian-nb") == 0
    config = _write_config(
        tmp_path, {"by_sector": True, "model_file": str(saved / "model.json")}
    )
    out = tmp_path / "transform"
    assert run("transform", "--data", market_csv, "--out", out, "--config", config) == 0
    assert json.loads((out / "run.json").read_text())["by_sector"] is False
    out = tmp_path / "pipeline"
    args = ["--data", market_csv, "--out", out, "--trees", "2"]
    assert run("pipeline", *args, "--config", config) == 0
    manifest = json.loads((out / "run.json").read_text())
    assert (manifest["by_sector"], manifest["model_file"]) == (False, None)
    assert json.loads((out / "model.json").read_text())["kind"] == "random_forest"
    assert json.loads((out / "metrics.json").read_text())["blocks"][0]["model"] == "random_forest"


@pytest.mark.parametrize("command", ["backtest", "pipeline"])
@pytest.mark.parametrize("bad_ticker", ["TK00", "TK01"])
def test_backtest_unpriceable_close_exits_2(tmp_path, market_csv, capsys, bad_ticker, command):
    # the ticker's closes times 1e24 need more than Decimal's 28 digits at
    # $0.0001; a later ticker failing leaves no file of an earlier one, and
    # a previous run's files keep their bytes
    out, before = previous_run(tmp_path, market_csv)
    capsys.readouterr()
    lines = market_csv.read_text().splitlines()
    header = lines[0].split(",")
    ticker, close = header.index("ticker"), header.index("PX_OFFICIAL_CLOSE")
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if cells[ticker] == bad_ticker:
            cells[close] = repr(float(cells[close]) * 1e24)
            lines[i] = ",".join(cells)
    market_csv.write_text("\n".join(lines) + "\n")
    assert run(command, "--data", market_csv, "--out", out, "--trees", "2") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot price ") and err.endswith(" to $0.0001\n")
    assert err.count("\n") == 1
    assert contents(out) == before


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=1, max_value=2**31),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
@example(1, 0.7)
@example(2**31, math.nextafter(1.0, 0.0))
def test_a_ticker_test_window_is_never_empty(n, fraction):
    """_stage_backtest replays rows[int(n * train_fraction):] of each ticker's
    n >= 1 rows, and train_fraction lies strictly between 0 and 1."""
    assert int(n * fraction) < n


def test_backtest_at_the_largest_train_fraction_replays_each_last_bar(tmp_path, monkeypatch):
    market = tmp_path / "market.csv"
    market.write_bytes(synthetic_market_bytes(2, 40, seed=3))
    bars = []
    run_backtest = cli.run_backtest

    def counted(dates, *args):
        bars.append(len(dates))
        return run_backtest(dates, *args)

    monkeypatch.setattr(cli, "run_backtest", counted)
    out = tmp_path / "out"
    args = ["--data", market, "--out", out, "--train-fraction", "0.9999999999999999"]
    assert run("backtest", *args) == 0
    assert bars == [1, 1]
    for ticker in ("TK00", "TK01"):
        trades = read_trades_csv(io.StringIO((out / f"trades_{ticker}.csv").read_text()))
        assert [trade.exit_reason for trade in trades] == ["end_of_data"]


def test_non_finite_backtest_setting_exits_1_writing_nothing(tmp_path, market_csv, capsys):
    config = tmp_path / "nan.json"
    config.write_text('{"backtest": {"fee_per_transaction": NaN}}', encoding="utf-8")
    cases = [
        ("--fee", "nan", "fee_per_transaction"),
        ("--fee", "inf", "fee_per_transaction"),
        ("--take-profit", "nan", "take_profit_fraction"),
        ("--stop-loss", "inf", "stop_loss_fraction"),
        ("--config", config, "fee_per_transaction"),
    ]
    for i, (flag, value, name) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert run("backtest", "--data", market_csv, "--out", out, flag, value) == 1
        assert capsys.readouterr().err == f"error: {name} must be finite\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "option, name",
    [
        (("--up-threshold", "inf"), "up_threshold"),
        (("--up-threshold", "nan"), "up_threshold"),
        (("--down-threshold=-inf",), "down_threshold"),
    ],
)
def test_non_finite_label_threshold_flag_exits_1_writing_nothing(
    tmp_path, market_csv, capsys, option, name
):
    out = tmp_path / "out"
    assert run("transform", "--data", market_csv, "--out", out, *option) == 1
    assert capsys.readouterr().err == f"error: {name} must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "literal, name",
    [("Infinity", "up_threshold"), ("-Infinity", "down_threshold"), ("NaN", "down_threshold")],
)
def test_non_finite_label_threshold_in_config_exits_1_writing_nothing(
    tmp_path, market_csv, capsys, literal, name
):
    config = tmp_path / "label.json"
    config.write_text(f'{{"label": {{"{name}": {literal}}}}}', encoding="utf-8")
    out = tmp_path / "out"
    assert run("transform", "--data", market_csv, "--out", out, "--config", config) == 1
    assert capsys.readouterr().err == f"error: {name} must be finite\n"
    assert not out.exists()


def _drop_params(model):
    del model["params"]


def _first_row(model, key, value):
    model["params"][key][0] = value


def _first_scaler(model, key, value):
    model["scaler"][key][0] = value


def _first_variance(model, value):
    model["params"]["variances"][0][0] = value


# case -> (the --model kind that saves the file, the edit that breaks it)
MALFORMED_MODELS = {
    "cycle": ("decision-tree", lambda model: model["params"]["tree"]["nodes"][0].update(left=0)),
    "short-scaler": (
        "decision-tree",
        lambda model: model["scaler"].update(means=model["scaler"]["means"][:3]),
    ),
    "child-out-of-range": (
        "decision-tree",
        lambda model: model["params"]["tree"]["nodes"][0].update(left=10**6),
    ),
    "no-params": ("decision-tree", _drop_params),
    "not-json": ("decision-tree", None),
    "knn-label-5": ("knn", lambda model: _first_row(model, "train_y", 5)),
    "knn-label-unlabeled": ("knn", lambda model: _first_row(model, "train_y", -1)),
    "knn-k-0": ("knn", lambda model: model["params"].update(k=0)),
    "knn-row-short": ("knn", lambda model: model["params"]["train_x"].pop()),
    "nb-variance-0": ("gaussian-nb", lambda model: _first_variance(model, 0.0)),
    "nb-variance-negative": ("gaussian-nb", lambda model: _first_variance(model, -1.0)),
    "version-99": ("random-forest", lambda model: model.update(version=99)),
    "kind-not-spec": ("random-forest", lambda model: model.update(kind="knn")),
    "scaler-std-negative": ("decision-tree", lambda model: _first_scaler(model, "stds", -1.0)),
    "scaler-std-nan": ("decision-tree", lambda model: _first_scaler(model, "stds", float("nan"))),
    "scaler-mean-string": ("decision-tree", lambda model: _first_scaler(model, "means", "0.5")),
    "scaler-mean-inf": ("decision-tree", lambda model: _first_scaler(model, "means", float("inf"))),
}


@pytest.mark.parametrize("case", MALFORMED_MODELS)
def test_backtest_rejects_malformed_model_file(tmp_path, market_csv, case):
    """Exit 1 with a one-line message naming the file and nothing written,
    in a fresh process so a walk that never ends shows as a timeout."""
    kind, edit = MALFORMED_MODELS[case]
    saved = tmp_path / "saved"
    assert run("backtest", "--data", market_csv, "--out", saved, "--model", kind) == 0
    path = tmp_path / "model.json"
    if edit is None:
        path.write_text("not json\n", encoding="utf-8")
    else:
        model = json.loads((saved / "model.json").read_text(encoding="utf-8"))
        edit(model)
        path.write_text(json.dumps(model), encoding="utf-8")
    src = Path(cli.__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "stocksignals", "backtest", "--data", str(market_csv),
         "--out", str(tmp_path / "out"), "--model-file", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: not a model file: {path}: ")
    assert result.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_pipeline_backtests_with_the_forest_evaluate_grew(tmp_path, market_csv, monkeypatch):
    """pipeline grows each (horizon, tree) once, 10 x 10 trees, and its
    model.json is byte for byte that of a standalone backtest."""
    grown = []

    def counting(X, Y, columns, *rest):
        grown.append(len(columns))
        return grow_trees(X, Y, columns, *rest)

    monkeypatch.setattr(forest, "grow_trees", counting)
    assert run("pipeline", "--data", market_csv, "--out", tmp_path / "pipeline", "--seed", "5") == 0
    assert grown == [100]
    assert run("backtest", "--data", market_csv, "--out", tmp_path / "alone", "--seed", "5") == 0
    assert grown == [100, 10]
    model = (tmp_path / "pipeline" / "model.json").read_bytes()
    assert model == (tmp_path / "alone" / "model.json").read_bytes()


def test_pipeline_backtests_with_the_knn_models_evaluate_fitted(tmp_path, market_csv, monkeypatch):
    """pipeline --model knn fits once, in evaluate, and its model.json is
    byte for byte that of a standalone backtest."""
    fits = []

    def counting(spec, X, Y):
        fits.append(Y.shape[1])
        return fit_classifier(spec, X, Y)

    monkeypatch.setattr(base, "fit_classifier", counting)
    args = ("--data", market_csv, "--seed", "5", "--model", "knn")
    assert run("pipeline", "--out", tmp_path / "pipeline", *args) == 0
    assert fits == [10]
    assert run("backtest", "--out", tmp_path / "alone", *args) == 0
    assert fits == [10, 1]
    model = (tmp_path / "pipeline" / "model.json").read_bytes()
    assert model == (tmp_path / "alone" / "model.json").read_bytes()


def test_feature_subset_file(tmp_path, market_csv):
    out = tmp_path / "out"
    subset = tmp_path / "subset.txt"
    subset.write_text("PX_OFFICIAL_CLOSE\nstd_5day\nbuy_percent\n")
    assert (
        run(
            "evaluate", "--data", market_csv, "--out", out,
            "--features", subset, "--model", "knn", "--k", "3",
        )
        == 0
    )
    bad = tmp_path / "bad.txt"
    bad.write_text("NOT_A_FEATURE\n")
    assert run("evaluate", "--data", market_csv, "--out", out, "--features", bad) == 1


def test_feature_listed_twice_exits_1_naming_it(tmp_path, market_csv, capsys):
    subset = tmp_path / "subset.txt"
    subset.write_text("PE_RATIO\nPX_VOLUME\nPE_RATIO\n")
    out = tmp_path / "out"
    assert run("evaluate", "--data", market_csv, "--out", out, "--features", subset) == 1
    assert capsys.readouterr().err == f"error: feature 'PE_RATIO' is listed twice in {subset}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "subset_text, message",
    [
        ("PE_RATIO\nPE_RATIO\n", "error: feature 'PE_RATIO' is listed twice in {subset}\n"),
        ("PE_RATIO\nNOT_A_FEATURE\n", "error: unknown feature 'NOT_A_FEATURE' in {subset}\n"),
    ],
    ids=["repeated", "unknown"],
)
def test_bad_features_file_is_reported_before_a_missing_market(
    tmp_path, capsys, subset_text, message
):
    """The --features file is checked before the market is read, and a run
    that fails on its inputs makes no output directory."""
    subset = tmp_path / "subset.txt"
    subset.write_text(subset_text)
    out = tmp_path / "out"
    missing = tmp_path / "missing.csv"
    assert run("evaluate", "--data", missing, "--out", out, "--features", subset) == 1
    assert capsys.readouterr().err == message.format(subset=subset)
    assert not out.exists()
    assert run("transform", "--data", missing, "--out", out) == 2
    assert capsys.readouterr().err == f"data error: input file not found: {missing}\n"
    assert not out.exists()


def test_non_utf8_features_file_exits_2(tmp_path, market_csv, capsys):
    subset = tmp_path / "subset.txt"
    subset.write_bytes(b"\xffPE_RATIO\n")
    assert run("transform", "--data", market_csv, "--out", tmp_path / "out", "--features", subset) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: feature subset file {subset} is not valid UTF-8: ")
    assert err.count("\n") == 1


def test_non_utf8_config_file_exits_1(tmp_path, market_csv, capsys):
    config = tmp_path / "run.json"
    config.write_bytes(b"\xff{}")
    assert run("transform", "--data", market_csv, "--out", tmp_path / "out", "--config", config) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config} is not valid UTF-8: ")
    assert err.count("\n") == 1


def _config_guard(config, message):
    return ["--config", "{tmp}/run.json"], {"run.json": json.dumps(config)}, 1, f"error: {message}"


def _short_means(model):
    model["scaler"]["means"].pop()


# case -> (backtest arguments after --data and --out, files to write in tmp
# by name: text, or an edit of a saved decision-tree model.json; exit code;
# the one stderr line). "{tmp}" stands for the test's directory.
USER_GUARDS = {
    "config-missing": (["--config", "{tmp}/absent.json"], {}, 1,
                       "error: config file not found: {tmp}/absent.json"),
    "config-not-json": (["--config", "{tmp}/run.json"], {"run.json": "not json"}, 1,
                        "error: config file {tmp}/run.json is not valid JSON: "
                        "Expecting value: line 1 column 1 (char 0)"),
    "config-list": (["--config", "{tmp}/run.json"], {"run.json": "[]"}, 1,
                    "error: config file {tmp}/run.json must hold a JSON object"),
    "features-missing": (["--features", "{tmp}/absent.txt"], {}, 2,
                         "data error: feature subset file not found: {tmp}/absent.txt"),
    "features-blank": (["--features", "{tmp}/subset.txt"], {"subset.txt": "\n  \n"}, 2,
                       "data error: feature subset file {tmp}/subset.txt lists no features"),
    "horizons-empty": _config_guard({"label": {"horizons": []}}, "at least one horizon is required"),
    "horizons-zero": _config_guard({"label": {"horizons": [0]}}, "horizons must be positive"),
    "horizons-repeated": _config_guard({"label": {"horizons": [1, 1]}}, "horizons must be distinct"),
    "max-depth": _config_guard({"classifier": {"max_depth": -1}}, "max_depth must be >= 0"),
    "min-samples-split": _config_guard(
        {"classifier": {"min_samples_split": 0}}, "min_samples_split must be >= 1"
    ),
    "mtry": _config_guard({"classifier": {"mtry": 0}}, "mtry must be >= 1"),
    "n-components": _config_guard({"rank": {"n_components": 0}}, "n_components must be >= 1"),
    "zero-weight": _config_guard({"rank": {"weights": [6, 5, 4, 3, 2, 0]}}, "weights must be positive"),
    "top-k": _config_guard({"rank": {"top_k": 0}}, "top_k must be >= 1"),
    "short-scaler-means": (["--model-file", "{tmp}/model.json"], {"model.json": _short_means}, 1,
                           "error: not a model file: {tmp}/model.json: the scaler's means and "
                           "stds and the model need one entry per feature (28)"),
    "model-horizon-overrides": (
        ["--model-file", "{tmp}/model.json", "--signal-horizon", "5"],
        {"model.json": lambda model: None}, 0,
        "WARNING stocksignals.cli: model horizon 10 overrides configured signal horizon 5",
    ),
}


@pytest.mark.parametrize("case", USER_GUARDS)
def test_each_user_facing_guard_prints_its_exact_line(tmp_path, market_csv, case):
    """Run as a fresh process, so stderr holds what a user sees, log lines included."""
    args, files, code, line = USER_GUARDS[case]
    for name, content in files.items():
        if callable(content):
            saved = tmp_path / "saved"
            assert run("backtest", "--data", market_csv, "--out", saved, "--model", "decision-tree") == 0
            model = json.loads((saved / "model.json").read_text(encoding="utf-8"))
            content(model)
            content = json.dumps(model)
        (tmp_path / name).write_text(content, encoding="utf-8")
    src = Path(cli.__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "stocksignals", "backtest", "--data", str(market_csv),
         "--out", str(tmp_path / "out"), *(arg.format(tmp=tmp_path) for arg in args)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (result.returncode, result.stderr) == (code, line.format(tmp=tmp_path) + "\n")


def test_knn_k_between_horizon_row_counts_exits_1_naming_the_first_short_horizon(
    tmp_path, market_csv, capsys
):
    # training rows labeled per horizon on this market: 125, 123, 120, 118, 115, ...
    out = tmp_path / "out"
    assert run("evaluate", "--data", market_csv, "--out", out, "--model", "knn", "--k", "117") == 1
    assert capsys.readouterr().err == "error: k=117 but only 115 training rows\n"
    assert not out.exists()


def test_pipeline_failing_after_transform_leaves_a_previous_run_as_it_was(
    tmp_path, market_csv, capsys
):
    """transform has staged a dataset.csv of other labels when evaluate
    fails, and none of it reaches the output directory."""
    out, before = previous_run(tmp_path, market_csv)
    capsys.readouterr()
    args = ["--data", market_csv, "--out", out, "--up-threshold", "1.02"]
    assert run("pipeline", *args, "--model", "knn", "--k", "100000") == 1
    assert capsys.readouterr().err == "error: k=100000 but only 125 training rows\n"
    assert contents(out) == before


@pytest.mark.parametrize("name", ["metrics.json", "run.json"])
def test_a_directory_in_the_way_of_an_artifact_fails_before_any_rename(
    tmp_path, market_csv, capsys, name
):
    """A directory in out under an artifact's name would fail that file's
    rename. Every destination is checked before the first rename, so the
    files renamed before it (all others, for run.json) keep the previous
    run's bytes."""
    out, _ = previous_run(tmp_path, market_csv)
    (out / name).unlink()
    (out / name).mkdir()
    before = {path.name: path.is_dir() or path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert run("evaluate", "--data", market_csv, "--out", out, "--model", "gaussian-nb") == 2
    assert capsys.readouterr().err == f"io error: [Errno 21] Is a directory: '{out / name}'\n"
    assert {path.name: path.is_dir() or path.read_bytes() for path in out.iterdir()} == before
    assert not any((out / name).iterdir())


def test_knn_non_finite_scaled_training_rows_exit_2(tmp_path, market_csv, capsys):
    # three BEST_CAPEX values near the float64 maximum overflow the scaler's
    # mean, so the scaled training matrix holds non-finite values
    lines = market_csv.read_text().splitlines()
    column = lines[0].split(",").index("BEST_CAPEX")
    for i in (5, 90, 150):
        cells = lines[i].split(",")
        cells[column] = "1.7e308"
        lines[i] = ",".join(cells)
    market_csv.write_text("\n".join(lines) + "\n")
    assert run("evaluate", "--data", market_csv, "--out", tmp_path / "out", "--model", "knn") == 2
    assert capsys.readouterr().err == "data error: features must be finite\n"


def test_backtest_of_a_feature_whose_spread_overflows_the_scaler_exits_2(
    tmp_path, market_csv, capsys
):
    """A volume of 1e308 on a training row leaves the scaler's mean finite
    but its std infinite. evaluate still runs; no model.json can hold the
    scaler, so backtest fails before it commits a file."""
    lines = market_csv.read_text().splitlines()
    column = lines[0].split(",").index("PX_VOLUME")
    cells = lines[40].split(",")
    cells[column] = "1e308"
    lines[40] = ",".join(cells)
    market_csv.write_text("\n".join(lines) + "\n")
    args = ["--data", market_csv, "--model", "gaussian-nb"]
    assert run("evaluate", "--out", tmp_path / "evaluate", *args) == 0
    out = tmp_path / "out"
    assert run("backtest", "--out", out, *args) == 2
    assert capsys.readouterr().err == (
        "data error: feature PX_VOLUME overflows the scaler, so no model file can hold it\n"
    )
    assert not out.exists()


def test_an_overflowing_volume_prints_only_the_error_line(tmp_path):
    """Run as a fresh process, away from pytest's warning filter: a volume of
    1e308 on a test row leaves kNN probes that overflow, and on a training
    row a scaler whose std overflows; analyst counts of 1e308 overflow their
    float sum. None prints a numpy warning."""
    src = Path(cli.__file__).parents[1]
    counts = ["TOT_ANALYST_REC", "TOT_BUY_REC", "TOT_SELL_REC", "TOT_HOLD_REC"]
    cases = (
        (20, ["PX_VOLUME"], ["evaluate", "--model", "knn"], 0, ""),
        (30, ["PX_VOLUME"], ["backtest", "--model", "gaussian-nb"], 2,
         "data error: feature PX_VOLUME overflows the scaler, so no model file can hold it\n"),
        (20, counts, ["transform"], 0,
         "WARNING stocksignals.cli: 1 rows where buy+sell+hold exceeds the analyst total\n"),
    )
    for case, (line, columns, (command, *args), code, err) in enumerate(cases):
        lines = synthetic_market_bytes(3, 70, seed=1).decode().splitlines()
        header = lines[0].split(",")
        cells = lines[line].split(",")
        for column in columns:
            cells[header.index(column)] = "1e308"
        lines[line] = ",".join(cells)
        market = tmp_path / f"market_{case}.csv"
        market.write_text("\n".join(lines) + "\n")
        result = subprocess.run(
            [sys.executable, "-W", "default", "-m", "stocksignals", command,
             "--data", str(market), "--out", str(tmp_path / f"out_{case}"), *args],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (result.returncode, result.stderr) == (code, err)


def test_pipeline_produces_full_artifact_set(tmp_path, market_csv, capsys):
    out = tmp_path / "out"
    assert (
        run("pipeline", "--data", market_csv, "--out", out, "--seed", "11", "--trees", "4")
        == 0
    )
    captured = capsys.readouterr().out
    for stage in ("transform:", "evaluate:", "rank:", "backtest:"):
        assert stage in captured
    expected = {"dataset.csv", "run.json", *ARTIFACTS}
    expected |= {f"trades_TK{i:02d}.csv" for i in range(3)}
    expected |= {f"backtest_TK{i:02d}.json" for i in range(3)}
    assert {p.name for p in out.iterdir()} == expected
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["classifier"]["seed"] == 11
    assert len(manifest["selected_features"]) == 6


def test_pipeline_matches_individual_commands(tmp_path, market_csv):
    whole = tmp_path / "whole"
    parts = tmp_path / "parts"
    args = ["--data", market_csv, "--seed", "4", "--trees", "3"]
    assert run("pipeline", "--out", whole, *args) == 0
    assert run("transform", "--out", parts, "--data", market_csv, "--seed", "4") == 0
    assert run("evaluate", "--out", parts, *args) == 0
    assert run("rank", "--out", parts, "--data", market_csv, "--seed", "4") == 0
    assert run("backtest", "--out", parts, *args) == 0
    for name in sorted(p.name for p in whole.iterdir()):
        if name == "run.json":  # differs by command name only
            continue
        assert (parts / name).read_bytes() == (whole / name).read_bytes(), name


def test_missing_input_file_exit_2(tmp_path, capsys):
    assert run("transform", "--data", tmp_path / "missing.csv", "--out", tmp_path) == 2
    assert "missing.csv" in capsys.readouterr().err


def test_schema_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert run("transform", "--data", bad, "--out", tmp_path) == 2


@pytest.mark.parametrize(
    "line, cell, message",
    [
        (1, "x" * 131_073, "field larger than field limit (131072)"),
        (6, "x" * 131_073, "field larger than field limit (131072)"),
        (6, "ab\rcd", "carriage return inside an unquoted cell\n"),
        (6, "ab\r", "carriage return inside an unquoted cell\n"),
    ],
    ids=["long-header-cell", "long-cell", "carriage-return-in-cell", "carriage-return-ending-cell"],
)
def test_unreadable_csv_row_exits_2_naming_its_line(tmp_path, market_csv, capsys, line, cell, message):
    lines = market_csv.read_text().split("\n")
    cells = lines[line - 1].split(",")
    cells[2] = cell
    lines[line - 1] = ",".join(cells)
    market_csv.write_text("\n".join(lines), newline="")
    assert run("transform", "--data", market_csv, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: line {line}: {message}")
    assert err.count("\n") == 1


def test_every_error_class_maps_to_one_exit_code():
    """main turns UsageError, DataError and NumericError into exit codes 1, 2
    and 3; every other error class derives from exactly one of them, and
    exists because some code under src/stocksignals catches it by name."""
    branches = (errors.UsageError, errors.DataError, errors.NumericError)
    classes = [
        value
        for value in vars(errors).values()
        if isinstance(value, type)
        and issubclass(value, Exception)
        and value.__module__ == errors.__name__
        and value is not errors.PipelineError
    ]
    assert len(classes) > len(branches)
    for error in classes:
        assert [issubclass(error, branch) for branch in branches].count(True) == 1, error
    caught = set()
    for path in Path(errors.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                caught |= {n.attr for n in ast.walk(node.type) if isinstance(n, ast.Attribute)}
    assert sorted({error.__name__ for error in classes if error not in branches} - caught) == []


def _bound_names(tree: ast.Module) -> set[str]:
    """The names a module binds itself at top level with def, class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def test_every_import_names_the_module_that_defines_it():
    """Each `from stocksignals.<m> import x` under src/ and tests/ names a
    submodule of <m> or a name <m> binds itself: no name has a second home."""
    package = Path(errors.__file__).parent
    sources = [*package.rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    bound: dict[str, set[str]] = {}
    indirect = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.module and node.level == 0):
                continue
            parts = node.module.split(".")
            if parts[0] != package.name:
                continue
            base = package.parent.joinpath(*parts)
            if node.module not in bound:
                source = base / "__init__.py" if base.is_dir() else base.with_suffix(".py")
                bound[node.module] = _bound_names(ast.parse(source.read_text(encoding="utf-8")))
            for alias in node.names:
                submodule = (base / f"{alias.name}.py").is_file() or (base / alias.name).is_dir()
                if not submodule and alias.name not in bound[node.module]:
                    indirect.append(f"{path.name}: {node.module}.{alias.name}")
    assert indirect == []


def test_unwritable_output_dir_exit_2(tmp_path, market_csv):
    blocker = tmp_path / "blocker.txt"
    blocker.write_text("not a directory")
    assert run("transform", "--data", market_csv, "--out", blocker / "sub") == 2


def test_degenerate_features_exit_3(tmp_path):
    # identical rows every day: every feature is constant, so the PCA
    # covariance carries no variance at all
    from conftest import csv_bytes, make_row, trading_date

    rows = [make_row(date=trading_date(i)) for i in range(40)]
    flat = tmp_path / "flat.csv"
    flat.write_bytes(csv_bytes(rows))
    assert run("rank", "--data", flat, "--out", tmp_path / "out") == 3


def test_invalid_fraction_exit_1(tmp_path, market_csv):
    assert (
        run("evaluate", "--data", market_csv, "--out", tmp_path, "--train-fraction", "1.5")
        == 1
    )


# --- the failure contract -------------------------------------------------------

_FAILURE_LINE = re.compile(r"(error|data error|numeric error|io error): .*")
_CELLS = ("", "nan", "inf", "-1", "1e308", "x", "2018-W01-2")
# values of each JSON type, then non-finite and huge numbers
_VALUES = ("x", [1], {}, True, math.nan, math.inf, -math.inf, 10**30)


@functools.lru_cache(maxsize=None)
def _small_market(seed: int) -> bytes:
    return synthetic_market_bytes(2, 40, seed)


@functools.lru_cache(maxsize=None)
def _previous_artifacts() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as scratch:
        market = Path(scratch) / "market.csv"
        market.write_bytes(_small_market(0))
        with contextlib.redirect_stdout(io.StringIO()):
            return previous_run(Path(scratch), market)[1]


# one mutation of a market's bytes: (kind, position, byte value)
_BYTE_MUTATIONS = st.tuples(
    st.sampled_from(["flip", "insert", "delete", "carriage return", "truncate"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(1, 255),
)
# one mutation of a market's cells: a cell's new text, or two tickers renamed to collide
_CELL_MUTATIONS = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 80), st.integers(0, 25), st.sampled_from(_CELLS)),
    st.just(("collide",)),
)


def _mutate(data: bytes, mutation: tuple) -> bytes:
    kind, *args = mutation
    if kind == "cell":
        row, column, text = args
        lines = data.split(b"\n")
        cells = lines[row].split(b",")
        cells[column] = text.encode()
        lines[row] = b",".join(cells)
        return b"\n".join(lines)
    if kind == "collide":  # safe_name maps both tickers to T_K
        return data.replace(b",TK00,", b",T/K,").replace(b",TK01,", b",T_K,")
    where, value = args
    at = int(where * len(data))
    return {
        "flip": data[:at] + bytes([data[at] ^ value]) + data[at + 1:],
        "insert": data[:at] + bytes([value]) + data[at:],
        "delete": data[:at] + data[at + 1:],
        "carriage return": data[:at] + b"\r" + data[at:],
        "truncate": data[:at],
    }[kind]


@st.composite
def _config_mutations(draw) -> tuple:
    """(section, key, value, list index or None): one section value replaced,
    or one item of a list value."""
    name = draw(st.sampled_from(sorted(cli._SECTIONS)))
    field = draw(st.sampled_from(dataclasses.fields(cli._SECTIONS[name])))
    value = draw(st.sampled_from(_VALUES))
    at = None
    if isinstance(field.default, tuple) and draw(st.booleans()):
        at = draw(st.integers(0, len(field.default) - 1))
    return name, field.name, value, at


def _config(kind: str, mutation: tuple | None) -> dict:
    """The config of a classifier kind and 3 trees, with one mutation."""
    config = {"classifier": {"kind": kind, "n_trees": 3}}
    if mutation is not None:
        name, key, value, at = mutation
        if at is not None:
            items = list(getattr(cli._SECTIONS[name](), key))
            items[at] = value
            value = items
        config.setdefault(name, {})[key] = value
    return config


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=1000, deadline=None)
@given(
    command=st.sampled_from(sorted(cli._COMMANDS)),
    seed=st.integers(0, 3),
    market_mutation=st.none() | _BYTE_MUTATIONS | _CELL_MUTATIONS,
    kind=st.sampled_from(sorted(KINDS)),
    config_mutation=st.none() | _config_mutations(),
)
def test_a_failed_command_leaves_the_output_directory_as_it_was(
    command, seed, market_mutation, kind, config_mutation
):
    """Every command exits 0-3 without a traceback on a mutated market and
    config. A failure prints one error line and leaves a previous run's
    files, and a file of its own, with their bytes and nothing added. A
    success leaves no staging directory and writes strict JSON."""
    market = _small_market(seed)
    if market_mutation is not None:
        market = _mutate(market, market_mutation)
    before = _previous_artifacts()
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "market.csv").write_bytes(market)
        config = json.dumps(_config(kind, config_mutation))
        (root / "config.json").write_text(config, encoding="utf-8")
        out = root / "out"
        out.mkdir()
        for name, data in before.items():
            (out / name).write_bytes(data)
        err = io.StringIO()
        argv = ["--data", root / "market.csv", "--out", out, "--config", root / "config.json"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(command, *argv)
        after = contents(out)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert [bool(_FAILURE_LINE.fullmatch(line)) for line in err.getvalue().splitlines()] == [True]
        assert after == before
    else:
        assert not [name for name in after if name.startswith(".stocksignals-")]
        for name in after:
            if name.endswith(".json"):
                _strict_json(after[name].decode("utf-8"))
