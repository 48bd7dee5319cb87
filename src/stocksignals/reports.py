"""Report serialization: metrics, ranking, variance, trade logs.

All writers are deterministic (repr floats, sorted JSON keys, "\n" line
endings) so identical inputs produce byte-identical files. Every file of a
run is written into the run's staging directory; cli.run_command renames
them into the output directory only after the last stage succeeds.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from stocksignals.backtest import BacktestReport, Trade

if TYPE_CHECKING:
    from stocksignals.evaluation import EvaluationReport, HorizonReport
    from stocksignals.pca import PcaRanking

# a horizon's headline values, in metrics.csv's column order and under these
# keys in metrics.json
HEADLINE_FIELDS = ("buy_precision", "sell_recall", "hold_f1", "micro_f1", "n_test")
METRICS_FIELDS = ("sector", "model", "horizon", *HEADLINE_FIELDS)
TRADE_FIELDS = tuple(field.name for field in fields(Trade))


def atomic_write_text(path: Path | str, text: str | Callable[[IO[str]], object]) -> None:
    """Write one artifact's text to `path` in the run's staging directory. `text`
    may instead be a function that writes the text to the stream it is given,
    so that a large file is written as it is formatted."""
    with open(path, "w", encoding="utf-8", newline="") as stream:
        if isinstance(text, str):
            stream.write(text)
        else:
            text(stream)


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header and rows as CSV with "\n" line endings; csv writes each
    cell as str(), so floats appear as their repr and dates in ISO form."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def json_text(payload) -> str:
    """Every JSON artifact's text: sorted keys, two-space indent, final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _headline(report: HorizonReport) -> dict:
    return {name: getattr(report, name) for name in HEADLINE_FIELDS}


def metrics_csv_text(blocks: Sequence[EvaluationReport]) -> str:
    return _csv_text(
        METRICS_FIELDS,
        (
            [block.sector or "", block.spec.kind, report.horizon, *_headline(report).values()]
            for block in blocks
            for report in block.horizons
        ),
    )


def metrics_json_text(
    blocks: Sequence[EvaluationReport], seed: int, skipped: Mapping[str, str]
) -> str:
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
    return json_text(payload)


def ranking_csv_text(ranking: PcaRanking) -> str:
    return _csv_text(
        ("feature", "occurrences", "weighted_occurrence"), map(astuple, ranking.scores)
    )


def variance_csv_text(ranking: PcaRanking) -> str:
    ratios = ranking.explained_ratios
    return _csv_text(
        ("component", "ratio", "cumulative"),
        zip(range(1, len(ratios) + 1), ratios, ranking.cumulative_ratios),
    )


def trades_csv_text(trades: Iterable[Trade]) -> str:
    return _csv_text(TRADE_FIELDS, map(astuple, trades))


def backtest_json_text(
    ticker: str, report: BacktestReport, seed: int, horizon: int
) -> str:
    return json_text(
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
