"""Whole CLI runs against `reference_run`, the stage oracles composed.

Each stage has its own oracle test; this one checks that the stages are
wired together as the oracles are: which rows fit the scaler, which rows a
ticker replays and which horizon's model trades. Small planted markets with
dirty cells go through the CLI, and every artifact value whose format is
exact must equal the reference run's: the dataset labels, the confusion
counts and n_test of each block, the model's horizon and scaler, and the
Decimal trade rows and totals.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import astuple
from decimal import Decimal
from pathlib import Path

import pytest
from conftest import planted_market_bytes, read_dataset_csv, read_trades_csv
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_run

from stocksignals import cli
from stocksignals.classifiers.base import KINDS
from stocksignals.errors import DataError
from stocksignals.ingest import CSV_COLUMNS, RAW_COLUMNS
from stocksignals.transform import DEFAULT_HORIZONS, FEATURE_COLUMNS

SECTORS = ("Tech", "Energy", "Health")
# the texts a dirty cell takes: empty, unparseable, non-finite, a negative
# count and a zero close are all demoted to missing, so the row is dropped
DIRTY_CELLS = ("", "n/a", "inf", "-1", "0")
RAW_POSITIONS = [CSV_COLUMNS.index(name) for name in RAW_COLUMNS]


@st.composite
def markets(draw) -> bytes:
    """A planted market of 2-4 tickers over 30-80 days in 1-3 sectors, its
    counts persisting or redrawn daily, with up to six dirty cells."""
    n_tickers, n_days = draw(st.integers(2, 4)), draw(st.integers(30, 80))
    raw = planted_market_bytes(
        n_tickers,
        n_days,
        seed=draw(st.integers(0, 2**16)),
        strength=draw(st.sampled_from([0.0, 0.02])),
        block=draw(st.sampled_from([1, 5, 20])),
        sectors=SECTORS[: draw(st.integers(1, 3))],
    )
    lines = raw.decode().split("\n")
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.integers(1, n_tickers * n_days))
        cells = lines[row].split(",")
        cells[draw(st.sampled_from(RAW_POSITIONS))] = draw(st.sampled_from(DIRTY_CELLS))
        lines[row] = ",".join(cells)
    return "\n".join(lines).encode()


@st.composite
def run_settings(draw, command):
    return {
        "model": draw(st.sampled_from(sorted(KINDS))),
        "seed": draw(st.integers(0, 2**20)),
        "trees": 2,
        "features": draw(
            st.none() | st.lists(st.sampled_from(FEATURE_COLUMNS), min_size=1, max_size=6, unique=True)
        ),
        "by_sector": command == "evaluate" and draw(st.booleans()),
        "signal_horizon": draw(st.sampled_from(DEFAULT_HORIZONS)),
        "up_threshold": draw(st.floats(1.001, 1.03)),
        "down_threshold": draw(st.floats(0.97, 0.999)),
    }


def cli_argv(command, settings, root: Path) -> list[str]:
    argv = [
        command, "--data", root / "market.csv", "--out", root / "out",
        "--seed", settings["seed"], "--model", settings["model"].replace("_", "-"),
        "--trees", settings["trees"],
        "--up-threshold", repr(settings["up_threshold"]),
        "--down-threshold", repr(settings["down_threshold"]),
    ]
    if settings["features"]:
        (root / "features.txt").write_text("\n".join(settings["features"]) + "\n")
        argv += ["--features", root / "features.txt"]
    if settings["by_sector"]:
        argv.append("--by-sector")
    if command in ("backtest", "pipeline"):
        argv += ["--signal-horizon", settings["signal_horizon"]]
    return [str(arg) for arg in argv]


def parsed(out: Path, name: str):
    """An artifact's values in reference_run's form."""
    text = (out / name).read_text(encoding="utf-8")
    if name == "dataset.csv":
        data = read_dataset_csv(io.StringIO(text))
        return [
            (str(ticker), str(date), tuple(None if label < 0 else int(label) for label in labels))
            for ticker, date, labels in zip(data.tickers, data.dates, data.Y)
        ]
    if name == "metrics.json":
        payload = json.loads(text)
        blocks = {
            block["sector"]: (
                {
                    report["horizon"]: (tuple(map(tuple, report["confusion"])), report["n_test"])
                    for report in block["horizons"]
                },
                block["omitted_horizons"],
            )
            for block in payload["blocks"]
        }
        return blocks, [skip["sector"] for skip in payload.get("skipped_sectors", [])]
    if name == "model.json":
        payload = json.loads(text)
        return payload["horizon"], payload["scaler"]["means"], payload["scaler"]["stds"]
    if name.startswith("backtest_"):
        payload = json.loads(text)
        return (
            payload["signal_horizon"], payload["n_trades"],
            Decimal(payload["total_profit"]), Decimal(payload["initial_price"]),
        )
    return [astuple(trade) for trade in read_trades_csv(io.StringIO(text))]


def check_against_reference(command, market: bytes, settings) -> None:
    """Run the CLI on the market and compare its artifacts with reference_run's;
    a run the reference fails must exit 2."""
    try:
        expected = reference_run(command, market, settings)
    except DataError:
        expected = None
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "market.csv").write_bytes(market)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(cli_argv(command, settings, root))
        assert code == (2 if expected is None else 0)
        if expected is None:
            return
        out = root / "out"
        per_ticker = ("trades_", "backtest_")
        written = {path.name for path in out.iterdir() if path.name.startswith(per_ticker)}
        assert written == {name for name in expected if name.startswith(per_ticker)}
        for name, values in expected.items():
            assert parsed(out, name) == values, name


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["evaluate", "backtest", "pipeline"]),
    market=markets(),
    data=st.data(),
)
def test_cli_artifacts_match_the_composed_stage_oracles(command, market, data):
    check_against_reference(command, market, data.draw(run_settings(command), label="settings"))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_pipeline_matches_the_reference_run_for_every_kind(kind):
    """One fixed market per kind, so every kind is checked on every run."""
    market = planted_market_bytes(3, 60, seed=7, strength=0.02, block=5, sectors=SECTORS[:2])
    settings = {
        "model": kind, "seed": 42, "trees": 2, "features": None, "by_sector": False,
        "signal_horizon": 5, "up_threshold": 1.01, "down_threshold": 0.99,
    }
    check_against_reference("pipeline", market, settings)
