"""Artifact checks for one CLI run: a digest of the whole output set plus structure.

The digest is the sha256 over the sorted (file name, file sha256) pairs of
the output directory, so it changes when any artifact's bytes, name or
presence changes. It is the byte-identity gate: on the default seed it must
equal the digest pinned in `digests.json`, on any seed every run of one
invocation must give the same digest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

N_HORIZONS = 10
DATASET_WIDTH = 2 + 28 + N_HORIZONS  # ticker, date, features, labels


def expected_files(outputs: frozenset[str], tickers: list[str]) -> set[str]:
    """File names a command writes, given the stages it runs."""
    names = {"run.json"}
    if "dataset" in outputs:
        names.add("dataset.csv")
    if "metrics" in outputs:
        names |= {"metrics.csv", "metrics.json"}
    if "ranking" in outputs:
        names |= {"ranking.csv", "variance.csv"}
    if "backtest" in outputs:
        names.add("model.json")
        for ticker in tickers:
            names |= {f"backtest_{ticker}.json", f"trades_{ticker}.csv"}
    return names


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(f"{path.name}\0{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return h.hexdigest()


def _csv_rows(path: Path) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged or empty CSV")
    return rows


def problems(out_dir: Path, outputs: frozenset[str], tickers: list[str], dataset_rows: int) -> list[str]:
    """Everything wrong with one run's artifacts; an empty list means they pass."""
    if not out_dir.is_dir():
        return ["output directory missing"]
    found = {p.name for p in out_dir.iterdir()}
    wanted = expected_files(outputs, tickers)
    issues = [f"missing {name}" for name in sorted(wanted - found)]
    issues += [f"unexpected {name}" for name in sorted(found - wanted)]
    for name in sorted(wanted & found):
        try:
            issues += _file_problems(out_dir / name, dataset_rows)
        except (ValueError, UnicodeDecodeError, KeyError, IndexError, TypeError) as exc:
            issues.append(f"{name} unparsable: {exc!r}")
    return issues


def _file_problems(path: Path, dataset_rows: int) -> list[str]:
    name = path.name
    if name.endswith(".json"):
        payload = json.loads(path.read_text(encoding="utf-8"))
    else:
        rows = _csv_rows(path)
    if name == "metrics.json":
        horizons = payload["blocks"][0]["horizons"]
        issues = []
        if len(payload["blocks"]) != 1 or len(horizons) != N_HORIZONS:
            issues.append(f"metrics.json: expected 1 block of {N_HORIZONS} horizons")
        bad = [h["horizon"] for h in horizons if not 0.0 <= h["micro_f1"] <= 1.0]
        if bad:
            issues.append(f"metrics.json: micro_f1 outside [0, 1] at horizons {bad}")
        return issues
    if name.startswith("backtest_") and payload["ticker"] != name[len("backtest_"):-len(".json")]:
        return [f"{name}: wrong ticker {payload['ticker']!r}"]
    if name == "dataset.csv" and (len(rows[0]) != DATASET_WIDTH or len(rows) - 1 != dataset_rows):
        return [
            f"dataset.csv: {len(rows) - 1} rows x {len(rows[0])} columns, "
            f"expected {dataset_rows} x {DATASET_WIDTH}"
        ]
    return []
