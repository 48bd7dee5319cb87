"""In-process span tracing of one CLI call, from outside the program.

`Tracer` wraps the public functions of each stocksignals module where the
caller looks them up (a name imported into `stocksignals.cli` is patched
there, a module-level call such as `ingest.parse_market_csv` is patched on
its module). Each call becomes a span with a name, start, end and parent;
spans stay in memory until the run ends. A layer whose function is gone
is reported as absent instead of failing the trace.

Per-layer figures are self times (a span's duration minus the time its
child spans cover), summed per span name, plus counts taken at the same
call boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import time
from collections import Counter
from pathlib import Path


def _rows_parsed(counts, args, kwargs, result):
    counts["ingest.rows_parsed"] += len(result.rows)


def _rows_dropped(counts, args, kwargs, result):
    counts["ingest.rows_dropped"] += result.rows_dropped


def _rows_assembled(counts, args, kwargs, result):
    counts["transform.rows_assembled"] += len(result)


def _horizons_scored(counts, args, kwargs, result):
    counts["evaluation.horizons_scored"] += len(result.horizons)


def _backtest(counts, args, kwargs, result):
    counts["backtest.bars"] += len(args[0])
    counts["backtest.trades"] += len(result.trades)


def _bytes_written(counts, args, kwargs, result):
    counts["reports.bytes_written"] += os.path.getsize(args[0])


# (span name, module, attribute patched there, counter or None). The span
# name's prefix is the layer; `_calls` metrics count the spans of one name.
HOOKS = (
    ("ingest.parse", "stocksignals.ingest", "parse_market_csv", _rows_parsed),
    ("ingest.clean", "stocksignals.ingest", "validate_and_clean", _rows_dropped),
    ("ingest.partition", "stocksignals.ingest", "partition_by_ticker", None),
    ("transform.assemble", "stocksignals.cli", "assemble_features", _rows_assembled),
    ("transform.dataset_write", "stocksignals.cli", "write_dataset_csv", None),
    ("transform.split", "stocksignals.cli", "shuffle_split", None),
    ("transform.scaler_fit", "stocksignals.transform", "standardize_fit", None),
    ("transform.scaler_fit", "stocksignals.pca", "standardize_fit", None),
    ("transform.scaler_apply", "stocksignals.classifiers.base", "standardize_apply", None),
    ("transform.scaler_apply", "stocksignals.evaluation", "standardize_apply", None),
    ("transform.scaler_apply", "stocksignals.pca", "standardize_apply", None),
    ("classifiers.fit", "stocksignals.classifiers.base", "fit_classifier", None),
    ("classifiers.best_split", "stocksignals.classifiers.tree", "best_split", None),
    ("classifiers.predict", "stocksignals.classifiers.base", "predict_one", None),
    ("evaluation.self", "stocksignals.cli", "evaluate_per_horizon", _horizons_scored),
    ("pca.rank", "stocksignals.cli", "rank_features", None),
    ("pca.jacobi", "stocksignals.pca", "jacobi_eigen", None),
    ("backtest.replay", "stocksignals.cli", "run_backtest", _backtest),
    ("reports.write", "stocksignals.reports", "atomic_write_text", _bytes_written),
)
ROOT_SPAN = "cli.self"

# metric name -> span name whose summed self time it reports
SELF_TIME_METRICS = {
    "ingest.parse_s": "ingest.parse",
    "ingest.clean_s": "ingest.clean",
    "ingest.partition_s": "ingest.partition",
    "transform.assemble_s": "transform.assemble",
    "transform.dataset_write_s": "transform.dataset_write",
    "transform.split_s": "transform.split",
    "transform.scaler_fit_s": "transform.scaler_fit",
    "transform.scaler_apply_s": "transform.scaler_apply",
    "classifiers.fit_s": "classifiers.fit",
    "classifiers.best_split_s": "classifiers.best_split",
    "classifiers.predict_s": "classifiers.predict",
    "evaluation.self_s": "evaluation.self",
    "pca.rank_s": "pca.rank",
    "pca.jacobi_s": "pca.jacobi",
    "backtest.replay_s": "backtest.replay",
    "reports.write_s": "reports.write",
    "cli.self_s": ROOT_SPAN,
}
# metric name -> span name whose calls it counts
CALL_METRICS = {
    "transform.split_calls": "transform.split",
    "transform.scaler_fit_calls": "transform.scaler_fit",
    "transform.scaler_apply_calls": "transform.scaler_apply",
    "classifiers.fit_calls": "classifiers.fit",
    "classifiers.best_split_calls": "classifiers.best_split",
    "classifiers.predictions": "classifiers.predict",
    "reports.files_written": "reports.write",
}
COUNTER_METRICS = (
    "ingest.rows_parsed",
    "ingest.rows_dropped",
    "transform.rows_assembled",
    "evaluation.horizons_scored",
    "backtest.bars",
    "backtest.trades",
    "reports.bytes_written",
)
# read from the run's artifacts and the process, not from spans
OTHER_METRICS = ("classifiers.tree_nodes", "cli.cpu_s", "trace.overhead_s")

PER_LAYER_METRICS = (
    tuple(SELF_TIME_METRICS) + tuple(CALL_METRICS) + COUNTER_METRICS + OTHER_METRICS
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("bytes_written") else "count"


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Tracer:
    """Records spans and counts for calls made while its patches are installed."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts = {name: 0 for name in COUNTER_METRICS}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    # the function's arguments or result changed shape
                    if f"{name} counts" not in self.absent:
                        self.absent.append(f"{name} counts")
            return result

        return wrapper

    def install(self) -> None:
        for name, module_name, attr, counter in self.hooks:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{name} ({module_name}.{attr})")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def run_main(self, argv) -> tuple[int, float, float]:
        """Call stocksignals.cli.main(argv) as the root span; (exit code, wall s, cpu s)."""
        from stocksignals import cli

        main = self._wrap(cli.main, ROOT_SPAN, None)
        self.install()
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            code = main(argv)
        finally:
            wall = time.perf_counter() - start
            cpu = _cpu_seconds() - cpu0
            self.uninstall()
        return code, wall, cpu

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        own = [end - start for _, start, end, _ in self.spans]
        for (_, start, end, parent) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), value in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + value
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Self-time, call and counter metrics of the recorded run."""
        own = self.self_times()
        calls = Counter(name for name, *_ in self.spans)
        metrics = {m: own.get(span, 0.0) for m, span in SELF_TIME_METRICS.items()}
        metrics.update({m: calls.get(span, 0) for m, span in CALL_METRICS.items()})
        metrics.update(self.counts)
        return metrics

    def write_spans(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "absent": self.absent,
            "spans": [
                {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
                for name, start, end, parent in self.spans
            ],
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def tree_nodes(model_path: Path) -> int:
    """Node count over every tree in a saved model.json (0 when absent or not a tree model)."""
    if not model_path.exists():
        return 0
    params = json.loads(model_path.read_text(encoding="utf-8"))["params"]
    trees = params.get("trees") or ([params["tree"]] if "tree" in params else [])
    return sum(len(tree["nodes"]) for tree in trees)
