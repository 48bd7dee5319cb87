"""Tiny-size self-check of the benchmark harness: generator, artifact check, metric names, tracing."""

import contextlib
import datetime as dt
import io
import json
import sys

import pytest

import artifacts
import markets
import run
import tracing

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from stocksignals import cli, ingest  # noqa: E402
from stocksignals.classifiers import tree  # noqa: E402

PIPELINE_OUTPUTS = run.WORKLOADS["pipeline-forest"].outputs


def run_tiny(tmp_path, monkeypatch, tracer=None):
    """One in-process pipeline call on 2 tickers x 40 days; returns the output dir."""
    (tmp_path / "market.csv").write_bytes(markets.market_csv_bytes(2, 40, seed=3))
    monkeypatch.chdir(tmp_path)
    argv = ["pipeline", "--data", "market.csv", "--out", "out", "--seed", "42"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = tracer.run_main(argv)[0] if tracer else cli.main(argv)
    assert code == 0
    return tmp_path / "out"


def test_generator_same_seed_same_bytes():
    a = markets.market_csv_bytes(3, 30, seed=5, dirty_share=0.05)
    assert a == markets.market_csv_bytes(3, 30, seed=5, dirty_share=0.05)
    assert a != markets.market_csv_bytes(3, 30, seed=6, dirty_share=0.05)
    assert len(a.splitlines()) == 1 + 3 * 30


def test_generator_dirty_rows_are_demoted_and_dropped():
    data = markets.market_csv_bytes(4, 50, seed=2, dirty_share=0.05)
    table = ingest.parse_market_csv(data)
    clean = ingest.validate_and_clean(table)
    assert clean.rows_dropped == int(4 * 50 * 0.05)
    assert sum(table.parse_warnings.values()) > 0
    assert ingest.validate_and_clean(
        ingest.parse_market_csv(markets.market_csv_bytes(4, 50, seed=2))
    ).rows_dropped == 0


def test_trading_dates_are_ascending_weekdays():
    dates = markets.trading_dates(12)
    assert dates == sorted(set(dates))
    assert all(dt.date.fromisoformat(d).weekday() < 5 for d in dates)


def test_artifact_check_passes_and_digest_repeats(tmp_path, monkeypatch):
    out = run_tiny(tmp_path, monkeypatch)
    tickers = ["TK000", "TK001"]
    rows = len(artifacts._csv_rows(out / "dataset.csv")) - 1
    assert artifacts.problems(out, PIPELINE_OUTPUTS, tickers, rows) == []
    first = artifacts.digest(out)
    assert artifacts.digest(run_tiny(tmp_path, monkeypatch)) == first

    (out / "ranking.csv").write_text("changed\n")
    assert artifacts.digest(out) != first
    (out / "backtest_TK001.json").unlink()
    assert "missing backtest_TK001.json" in artifacts.problems(out, PIPELINE_OUTPUTS, tickers, rows)
    assert artifacts.problems(out, PIPELINE_OUTPUTS, tickers, rows + 1)


def test_artifact_check_flags_out_of_range_micro_f1(tmp_path, monkeypatch):
    out = run_tiny(tmp_path, monkeypatch)
    path = out / "metrics.json"
    payload = json.loads(path.read_text())
    payload["blocks"][0]["horizons"][3]["micro_f1"] = 1.5
    path.write_text(json.dumps(payload))
    issues = artifacts.problems(out, frozenset({"metrics"}), [], 0)
    assert any("micro_f1 outside" in issue for issue in issues)
    assert "unexpected model.json" in issues


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracing.unit(name) for name in tracing.PER_LAYER_METRICS
    }
    pinned = json.loads(run.PINNED.read_text())
    assert pinned["seed"] == run.DEFAULT_SEED
    assert set(pinned["digests"]) == set(run.WORKLOADS)


def test_tracer_records_layers_and_restores_names(tmp_path, monkeypatch):
    original = tree.best_split
    tracer = tracing.Tracer()
    out = run_tiny(tmp_path, monkeypatch, tracer)
    assert tree.best_split is original
    assert tracer.absent == []
    metrics = tracer.layer_metrics()
    assert set(metrics) | set(tracing.OTHER_METRICS) == set(tracing.PER_LAYER_METRICS)
    assert metrics["classifiers.best_split_calls"] > 0
    assert metrics["transform.rows_assembled"] == len(artifacts._csv_rows(out / "dataset.csv")) - 1
    assert metrics["reports.files_written"] == len(list(out.iterdir()))
    assert metrics["reports.bytes_written"] == sum(p.stat().st_size for p in out.iterdir())
    assert tracing.tree_nodes(out / "model.json") > 0
    # self times partition the root span: they sum to its duration
    root = tracer.spans[0]
    assert root[0] == tracing.ROOT_SPAN
    assert sum(tracer.self_times().values()) == pytest.approx(root[2] - root[1])


def test_tracer_reports_missing_hook_and_broken_counter_as_absent(tmp_path, monkeypatch):
    # jacobi_eigen's result has no .rows, so this counter raises AttributeError
    hooks = tuple(
        (*hook[:3], tracing._rows_parsed) if hook[0] == "pca.jacobi" else hook
        for hook in tracing.HOOKS
    ) + (("pca.gone", "stocksignals.pca", "no_such_function", None),)
    tracer = tracing.Tracer(hooks)
    run_tiny(tmp_path, monkeypatch, tracer)
    assert tracer.absent == ["pca.gone (stocksignals.pca.no_such_function)", "pca.jacobi counts"]
    assert tracer.layer_metrics()["pca.rank_s"] > 0
