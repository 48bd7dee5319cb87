"""Report serialization: metrics, ranking, variance, trade logs.

All writers are deterministic (repr floats, sorted JSON keys, "\n" line
endings) so identical inputs produce byte-identical files. Each function
here returns an artifact's writer: a function of the open text stream that
encodes the artifact into it, so that no file is held as one string. A
stage of cli returns its files as such writers plus its run.json fields;
cli.run_command streams each file into the run's staging directory through
atomic_write_text and renames them into the output directory only after the
last stage succeeds. atomic_write_text keeps its name, and its one call per
file, because bench/tracing.py hooks it to count the files and bytes written.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from stocksignals.backtest import BacktestReport, Trade

if TYPE_CHECKING:
    from stocksignals.evaluation import EvaluationReport, HorizonReport
    from stocksignals.pca import PcaRanking

# an artifact's writer: it encodes the artifact into the stream it is given;
# the CSV writers consume their rows, so each writer is called once
Writer = Callable[[IO[str]], object]

# a horizon's headline values, in metrics.csv's column order and under these
# keys in metrics.json
HEADLINE_FIELDS = ("buy_precision", "sell_recall", "hold_f1", "micro_f1", "n_test")
METRICS_FIELDS = ("sector", "model", "horizon", *HEADLINE_FIELDS)
TRADE_FIELDS = tuple(field.name for field in fields(Trade))


def atomic_write_text(path: Path | str, write: Writer) -> None:
    """Write one artifact to `path` in the run's staging directory as `write`
    encodes it into the open stream."""
    with open(path, "w", encoding="utf-8", newline="") as stream:
        write(stream)


def _csv_writer(header: Sequence[str], rows: Iterable[Sequence]) -> Writer:
    """A header and rows as CSV with "\n" line endings; csv writes each
    cell as str(), so floats appear as their repr and dates in ISO form."""

    def write(stream: IO[str]) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    return write


def json_writer(payload) -> Writer:
    """Every JSON artifact: sorted keys, two-space indent, final newline."""

    def write(stream: IO[str]) -> None:
        json.dump(payload, stream, sort_keys=True, indent=2)
        stream.write("\n")

    return write


def _headline(report: HorizonReport) -> dict:
    return {name: getattr(report, name) for name in HEADLINE_FIELDS}


def metrics_csv(blocks: Sequence[EvaluationReport]) -> Writer:
    return _csv_writer(
        METRICS_FIELDS,
        (
            [block.sector or "", block.spec.kind, report.horizon, *_headline(report).values()]
            for block in blocks
            for report in block.horizons
        ),
    )


def metrics_json(
    blocks: Sequence[EvaluationReport], seed: int, skipped: Mapping[str, str]
) -> Writer:
    """The blocks' reports; `skipped` (sector -> reason) is listed under
    `skipped_sectors` only when some sector was skipped."""
    payload: dict = {
        "seed": seed,
        "blocks": [
            {
                "sector": block.sector,
                "model": block.spec.kind,
                "seed": block.spec.seed,
                "omitted_horizons": list(block.omitted_horizons),
                "horizons": [
                    {
                        "horizon": r.horizon,
                        **_headline(r),
                        "confusion": r.confusion,
                        "sell": asdict(r.sell),
                        "hold": asdict(r.hold),
                        "buy": asdict(r.buy),
                    }
                    for r in block.horizons
                ],
            }
            for block in blocks
        ],
    }
    if skipped:
        payload["skipped_sectors"] = [
            {"sector": sector, "reason": reason} for sector, reason in skipped.items()
        ]
    return json_writer(payload)


def ranking_csv(ranking: PcaRanking) -> Writer:
    return _csv_writer(
        ("feature", "occurrences", "weighted_occurrence"), map(astuple, ranking.scores)
    )


def variance_csv(ranking: PcaRanking) -> Writer:
    ratios = ranking.explained_ratios
    return _csv_writer(
        ("component", "ratio", "cumulative"),
        zip(range(1, len(ratios) + 1), ratios, ranking.cumulative_ratios),
    )


def trades_csv(trades: Iterable[Trade]) -> Writer:
    return _csv_writer(TRADE_FIELDS, map(astuple, trades))


def backtest_json(ticker: str, report: BacktestReport, seed: int, horizon: int) -> Writer:
    return json_writer(
        {
            "ticker": ticker,
            "seed": seed,
            "signal_horizon": horizon,
            "n_trades": len(report.trades),
            "total_profit": str(report.total_profit),
            "initial_price": str(report.initial_price),
            "return_percentage": report.return_percentage,
        }
    )


def safe_name(ticker: str) -> str:
    """Ticker as a filesystem-safe fragment for per-ticker artifact names."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in ticker)
