"""Benchmark of the stocksignals CLI on seeded synthetic markets.

    python3 bench/run.py --workload pipeline-forest --seed 1 --seconds 35 --trace 0

Run from the repository root; the program is imported from ./src and not
installed. `--trace 0` runs the workload's CLI command as a fresh
`python -m stocksignals` process, one at a time (a closed loop with one
client), for about `--seconds` seconds, and reports the end-to-end metrics.
`--trace 1` calls `stocksignals.cli.main` in this process instead,
alternating untraced and traced calls, and reports the per-layer metrics.
Every run's artifacts are checked (see artifacts.py); a run that exits
non-zero or fails the check counts as failed.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Scratch
files go to .bench_work/<workload>/ under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import markets
import artifacts

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINNED = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 1
PROGRAM_SEED = "42"  # the CLI's own --seed; the benchmark seed only shapes the market
MIN_SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    n_tickers: int
    n_days: int
    dirty_share: float
    command: tuple[str, ...]
    outputs: frozenset[str]


# Why these three: pipeline-forest is fit-bound (random-forest split search)
# and runs every module once; evaluate-knn is prediction-bound and never
# calls the tree split search; transform-wide is parse-, assemble- and
# write-bound with no classifier, and its dirty cells exercise the ingest
# demote-and-drop path. Days are scaled so that one CLI call takes a few
# seconds and a 35 s run holds several samples.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline-forest", 10, 100, 0.0, ("pipeline",),
            frozenset({"dataset", "metrics", "ranking", "backtest"}),
        ),
        Workload(
            "evaluate-knn", 20, 150, 0.0, ("evaluate", "--model", "knn"),
            frozenset({"metrics"}),
        ),
        Workload(
            "transform-wide", 50, 800, 0.005, ("transform",),
            frozenset({"dataset"}),
        ),
    )
}

END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def machine_facts() -> dict:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_at_start": os.getloadavg(),
    }


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Bench:
    """One benchmark invocation: the generated market and the check of every run."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.workdir = WORK / workload.name
        self.out = self.workdir / "out"
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()
        pinned = json.loads(PINNED.read_text(encoding="utf-8"))
        # only the default seed has a pinned digest; a workload missing from the file fails
        self.pinned = pinned["digests"].get(workload.name, "none") if seed == pinned["seed"] else None

    def prepare(self) -> None:
        """Write market.csv and count the tickers and rows the program should produce."""
        from stocksignals import ingest
        from stocksignals.transform import assemble_features

        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        w = self.workload
        data = markets.market_csv_bytes(w.n_tickers, w.n_days, self.seed, w.dirty_share)
        (self.workdir / "market.csv").write_bytes(data)
        series = ingest.partition_by_ticker(ingest.validate_and_clean(ingest.parse_market_csv(data)))
        self.tickers = sorted(series)
        self.rows = sum(len(assemble_features(s)) for s in series.values())

    def argv(self) -> list[str]:
        return [*self.workload.command, "--data", "market.csv", "--out", "out", "--seed", PROGRAM_SEED]

    def check(self, exit_code: int, stderr: str = "") -> None:
        """Count one attempted run and record why it failed, if it did."""
        self.attempted += 1
        if exit_code != 0:
            self.failures.append(f"run {self.attempted}: exit code {exit_code} {stderr[-500:]!r}")
            return
        issues = artifacts.problems(self.out, self.workload.outputs, self.tickers, self.rows)
        found = artifacts.digest(self.out)
        if self.digests and found not in self.digests:
            issues.append(f"digest {found} differs from an earlier run")
        if self.pinned is not None and found != self.pinned:
            issues.append(f"digest {found} differs from the pinned {self.pinned}")
        self.digests.add(found)
        if issues:
            self.failures.append(f"run {self.attempted}: " + "; ".join(issues))

    def clear_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


def spawn(argv: list[str], cwd: Path, stderr_path: Path) -> tuple[int, float, float]:
    """Run one child process to completion; (exit code, wall s, peak RSS MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        # wait4 gives this child's own rusage, the per-child form of
        # getrusage(RUSAGE_CHILDREN); ru_maxrss is in KiB on Linux
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, list[float]]:
    """Alternate a set-up sample and a CLI run until the next pair would overrun."""
    import_argv = [sys.executable, "-c", "import stocksignals.cli"]
    cli_argv = [sys.executable, "-m", "stocksignals", *bench.argv()]
    stderr_path = bench.workdir / "stderr.txt"
    spawn(import_argv, bench.workdir, stderr_path)  # fill the bytecode cache once, untimed
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    deadline = time.perf_counter() + seconds
    while True:
        code, wall, _ = spawn(import_argv, bench.workdir, stderr_path)
        if code != 0:
            raise RuntimeError(f"importing stocksignals.cli failed: {stderr_path.read_text()}")
        samples["setup_s"].append(wall)
        bench.clear_out()
        code, wall, rss = spawn(cli_argv, bench.workdir, stderr_path)
        bench.check(code, stderr_path.read_text(errors="replace") if code else "")
        samples["wall_s"].append(wall)
        samples["rows_per_s"].append(bench.rows / wall)
        samples["peak_rss_mb"].append(rss)
        next_pair = statistics.median(samples["wall_s"]) + statistics.median(samples["setup_s"])
        if time.perf_counter() + next_pair > deadline:
            break
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        samples["setup_s"].append(spawn(import_argv, bench.workdir, stderr_path)[1])
    return samples


def measure_layers(bench: Bench, seconds: float) -> dict[str, list[float]]:
    """Alternate untraced and traced in-process calls of cli.main until the next pair would overrun."""
    import tracing
    from stocksignals import cli

    samples: dict[str, list[float]] = {name: [] for name in tracing.PER_LAYER_METRICS}
    untraced: list[float] = []
    traced: list[float] = []
    argv = bench.argv()
    os.chdir(bench.workdir)  # the same relative paths as the CLI runs, so run.json matches

    def untraced_call():
        bench.clear_out()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        untraced.append(time.perf_counter() - start)
        bench.check(code)

    deadline = time.perf_counter() + seconds
    while True:
        if len(traced) % 2:  # alternate which call goes first, so drift cancels in the overhead
            untraced_call()
        bench.clear_out()
        tracer = tracing.Tracer()
        with contextlib.redirect_stdout(io.StringIO()):
            code, wall, cpu = tracer.run_main(argv)
        bench.check(code)
        traced.append(wall)
        layer = tracer.layer_metrics()
        layer["classifiers.tree_nodes"] = tracing.tree_nodes(bench.out / "model.json")
        layer["cli.cpu_s"] = cpu
        for name, value in layer.items():
            samples[name].append(value)
        if len(traced) % 2:
            untraced_call()
        if time.perf_counter() + statistics.median(untraced) + statistics.median(traced) > deadline:
            break
    samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(untraced)]
    tracer.write_spans(bench.workdir / "spans.json")
    if tracer.absent:
        print("absent layers (hook not found): " + ", ".join(tracer.absent))
    total = statistics.median(traced)
    print(f"traced wall {total:.4f} s, untraced wall {statistics.median(untraced):.4f} s, "
          f"trace.overhead_s {samples['trace.overhead_s'][0]:.4f}")
    print(f"{'self time':<28}{'s':>10}{'share':>8}")
    self_times = {n: statistics.median(samples[n]) for n in tracing.SELF_TIME_METRICS}
    for name, value in sorted(self_times.items(), key=lambda kv: -kv[1]):
        print(f"{name:<28}{value:>10.4f}{value / total:>8.1%}")
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stocksignals" / "cli.py").is_file():
        print(f"error: no stocksignals source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    facts = machine_facts()
    print("machine: " + json.dumps(facts))
    bench = Bench(WORKLOADS[args.workload], args.seed)
    bench.prepare()
    print(f"workload {args.workload}: seed {args.seed}, {bench.workload.n_tickers} tickers x "
          f"{bench.workload.n_days} days, {bench.rows} assembled rows")
    if args.trace:
        import tracing

        samples = measure_layers(bench, args.seconds)
        units = {name: tracing.unit(name) for name in samples}
    else:
        samples = measure_end_to_end(bench, args.seconds)
        units = END_TO_END_UNITS

    stats = {name: summary(values) for name, values in samples.items()}
    for name, s in stats.items():
        print(f"{name:<28} median {s['median']:.6g} {units[name]}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    failed = len(bench.failures)
    print(f"failure_rate {failed / bench.attempted:.6g} ({failed}/{bench.attempted} runs failed)")
    for failure in bench.failures:
        print("failed " + failure)
    print("artifact digests: " + ", ".join(sorted(bench.digests)))
    correct = failed == 0
    (bench.workdir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": facts,
        "stats": stats, "units": units, "digests": sorted(bench.digests),
        "attempted": bench.attempted, "failures": bench.failures,
    }, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": units[name]} for name, s in stats.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
