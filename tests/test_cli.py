import io
import json

import pytest
from conftest import (
    read_dataset_csv,
    read_metrics_csv,
    read_ranking_csv,
    read_trades_csv,
    read_variance_csv,
    synthetic_market_bytes,
)

from stocksignals import cli
from stocksignals.classifiers import load_bundle
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


def test_knn_k_between_horizon_row_counts_exits_1_naming_the_first_short_horizon(
    tmp_path, market_csv, capsys
):
    # training rows labeled per horizon on this market: 125, 123, 120, 118, 115, ...
    out = tmp_path / "out"
    assert run("evaluate", "--data", market_csv, "--out", out, "--model", "knn", "--k", "117") == 1
    assert capsys.readouterr().err == "error: k=117 but only 115 training rows\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
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


def test_unwritable_output_dir_exit_2(tmp_path, market_csv):
    blocker = tmp_path / "blocker.txt"
    blocker.write_text("not a directory")
    assert run("transform", "--data", market_csv, "--out", blocker / "sub") == 2


def test_degenerate_features_exit_3(tmp_path):
    # identical rows every day: every feature is constant, so the PCA
    # covariance carries no variance at all
    from conftest import csv_bytes, make_record, trading_date

    rows = [make_record(date=trading_date(i)) for i in range(40)]
    flat = tmp_path / "flat.csv"
    flat.write_bytes(csv_bytes(rows))
    assert run("rank", "--data", flat, "--out", tmp_path / "out") == 3


def test_invalid_fraction_exit_1(tmp_path, market_csv):
    assert (
        run("evaluate", "--data", market_csv, "--out", tmp_path, "--train-fraction", "1.5")
        == 1
    )
