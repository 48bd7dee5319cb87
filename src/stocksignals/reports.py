"""Report serialization: metrics, ranking, variance, trade logs.

All writers are deterministic (repr floats, sorted JSON keys, "\n" line
endings) so identical inputs produce byte-identical files, and all files
are written atomically via a temp file plus rename.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping, Sequence

from stocksignals.backtest import BacktestReport, Trade
from stocksignals.evaluation import EvaluationReport
from stocksignals.pca import PcaRanking

METRICS_FIELDS = (
    "sector",
    "model",
    "horizon",
    "buy_precision",
    "sell_recall",
    "hold_f1",
    "micro_f1",
    "n_test",
)


def atomic_write_text(path: Path | str, text: str | Callable[[IO[str]], object]) -> None:
    """Write via a sibling temp file and rename, so readers never see a partial file.

    `text` may be a function that writes the text to the stream it is given
    instead, so that a large file is written as it is formatted.
    """
    target = Path(path)
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        newline="",
        dir=target.parent,
        prefix=f".{target.name}.",
        delete=False,
    )
    try:
        with handle as stream:
            if isinstance(text, str):
                stream.write(text)
            else:
                text(stream)
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def _fmt(value: float) -> str:
    return repr(float(value))


# --- metrics ---------------------------------------------------------------

def metrics_csv_text(blocks: Sequence[EvaluationReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(METRICS_FIELDS)
    for block in blocks:
        for report in block.horizons:
            writer.writerow(
                [
                    block.sector or "",
                    block.spec.kind,
                    report.horizon,
                    _fmt(report.buy_precision),
                    _fmt(report.sell_recall),
                    _fmt(report.hold_f1),
                    _fmt(report.micro_f1),
                    report.n_test,
                ]
            )
    return out.getvalue()


def _class_metrics_dict(metrics) -> dict:
    return {
        "precision": metrics.precision,
        "recall": metrics.recall,
        "f1": metrics.f1,
        "no_predictions": metrics.no_predictions,
        "no_instances": metrics.no_instances,
    }


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
                "seed": block.seed,
                "omitted_horizons": list(block.omitted_horizons),
                "horizons": [
                    {
                        "horizon": r.horizon,
                        "buy_precision": r.buy_precision,
                        "sell_recall": r.sell_recall,
                        "hold_f1": r.hold_f1,
                        "micro_f1": r.micro_f1,
                        "n_test": r.n_test,
                        "confusion": [list(row) for row in r.confusion.counts],
                        "sell": _class_metrics_dict(r.sell),
                        "hold": _class_metrics_dict(r.hold),
                        "buy": _class_metrics_dict(r.buy),
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
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --- ranking ----------------------------------------------------------------

def ranking_csv_text(ranking: PcaRanking) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["feature", "occurrences", "weighted_occurrence"])
    for score in ranking.scores:
        writer.writerow([score.feature, score.occurrences, score.weighted_occurrence])
    return out.getvalue()


def variance_csv_text(ranking: PcaRanking) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["component", "ratio", "cumulative"])
    for i, (ratio, cum) in enumerate(
        zip(ranking.explained_ratios, ranking.cumulative_ratios), start=1
    ):
        writer.writerow([i, _fmt(ratio), _fmt(cum)])
    return out.getvalue()


# --- backtest ----------------------------------------------------------------

TRADE_FIELDS = (
    "open_date",
    "close_date",
    "side",
    "entry_price",
    "exit_price",
    "exit_reason",
    "pnl",
)


def trades_csv_text(trades: Iterable[Trade]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TRADE_FIELDS)
    for trade in trades:
        writer.writerow(
            [
                trade.open_date.isoformat(),
                trade.close_date.isoformat(),
                trade.side,
                str(trade.entry_price),
                str(trade.exit_price),
                trade.exit_reason,
                str(trade.pnl),
            ]
        )
    return out.getvalue()


def backtest_json_text(
    ticker: str, report: BacktestReport, seed: int, horizon: int
) -> str:
    payload = {
        "ticker": ticker,
        "seed": seed,
        "signal_horizon": horizon,
        "n_trades": len(report.trades),
        "total_profit": str(report.total_profit),
        "initial_price": str(report.initial_price),
        "return_percentage": report.return_percentage,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def manifest_json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def safe_name(ticker: str) -> str:
    """Ticker as a filesystem-safe fragment for per-ticker artifact names."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in ticker)
