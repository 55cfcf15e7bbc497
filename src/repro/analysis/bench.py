"""The committed benchmark summary, ``BENCH_hotpath.json``, and its CI check.

The repository benchmark is ``perfbench/`` (``BENCHMARK.json`` names
its command, workloads and metrics). This module runs nothing; it reads
perfbench's output::

    # the summary, from a ten-seed set per workload
    python -m repro.analysis.bench summarize \\
        .perfbench/results/*-seed*-trace0.json > BENCH_hotpath.json
    # one short run, checked against the committed summary
    python3 perfbench/run.py --workload modes --seed 1 --seconds 1 \\
        --trace 0 > perfbench.log
    python -m repro.analysis.bench check BENCH_hotpath.json perfbench.log

``summarize`` reads full result files (``.perfbench/results/``). Per
workload it records the seeds, the run length, the operation totals,
the engine fingerprint, the median host reference time and, for every
end-to-end metric, its median, quartiles and spread ``(q3 - q1) /
median``, with the quartiles of ``statistics.quantiles(values, n=4)``
that ``perfbench/spread.py`` prints. It refuses traced runs, mixed run
lengths or engines, and runs with failed operations.

``check`` reads the result line (the last line) of one run's standard
output. Host speed differs between machines, so only ratios within the
run are gated: the run must be correct, its warm sweep pass at least
:data:`SWEEP_FLOOR` times faster than its cold one, and each mode's
cycles/s relative to baseline at least :data:`MODE_FLOOR` times the
summary's. Every failure names its check. A summary that lacks a
workload, or any metric the run reports, is rejected.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

SCHEMA = "perfbench-summary/1"
WORKLOADS = ("modes", "sweep", "serve")
#: Modes whose cycles/s is gated relative to the baseline mode.
GATED_MODES = ("flags", "redefine", "shrink")
#: Lowest cold/warm sweep ratio: a warm pass only reads the cache, so a
#: broken cache (warm ~= cold) fails; a healthy one reads about 20x.
SWEEP_FLOOR = 3.0
#: Share of the summary's per-mode ratio to baseline a run must keep:
#: a 30% slower issue path in one mode fails, a uniformly slower
#: machine does not.
MODE_FLOOR = 0.70


def summarize(records: list[dict], commit: str | None = None) -> dict:
    """The summary of perfbench result files (see the module doc)."""
    runs: dict[str, list[dict]] = {}
    for record in records:
        where = f"{record['workload']} seed {record['seed']}"
        if record["trace"]:
            raise ValueError(f"{where}: traced run (use --trace 0)")
        if record["failed"]:
            raise ValueError(f"{where}: {record['failed']} failed operations")
        runs.setdefault(record["workload"], []).append(record)
    for field in ("seconds", "engine_fingerprint"):
        values = {json.dumps(record[field]) for record in records}
        if len(values) > 1:
            raise ValueError(f"mixed {field}: {', '.join(sorted(values))}")
    workloads = {}
    for name, group in sorted(runs.items()):
        metrics = {}
        for metric, first in group[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in group]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[metric] = {"unit": first["unit"], "median": median,
                               "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median}
        workloads[name] = {
            "seeds": sorted(run["seed"] for run in group),
            "seconds": group[0]["seconds"],
            "attempted": sum(run["attempted"] for run in group),
            "failed": 0,
            "engine_fingerprint": group[0]["engine_fingerprint"],
            "reference_ms": statistics.median(
                run["report"]["reference_ms"][name] for run in group),
            "metrics": metrics,
        }
    return {"schema": SCHEMA, "commit": commit, "workloads": workloads}


def _median(summary: dict, workload: str, metric: str) -> float:
    entry = summary["workloads"].get(workload)
    if not isinstance(entry, dict):
        raise ValueError(f"summary: missing workload {workload!r}")
    median = entry.get("metrics", {}).get(metric, {}).get("median")
    if type(median) not in (int, float):
        raise ValueError(f"summary: {workload} lacks metric {metric!r}")
    return median


def check(summary: object, run: dict) -> list[str]:
    """Failed checks of one run against the summary (empty = pass)."""
    if (not isinstance(summary, dict) or summary.get("schema") != SCHEMA
            or not isinstance(summary.get("workloads"), dict)):
        return [f"summary: not a {SCHEMA} file"]
    metrics = {name: entry["value"] for name, entry in run["metrics"].items()}
    try:
        medians = {(workload, metric): _median(summary, workload, metric)
                   for workload in WORKLOADS for metric in metrics}
    except ValueError as exc:
        return [str(exc)]
    errors = []
    if run["correct"] is not True or run["failed"] != 0:
        errors.append(f"correct: {run['failed']} of {run['attempted']} "
                      "operations failed")
    ratio = metrics["sweep_cold_s"] / metrics["sweep_warm_s"]
    if ratio < SWEEP_FLOOR:
        errors.append(f"sweep: cold/warm {ratio:.2f}x, below the "
                      f"{SWEEP_FLOOR:.1f}x floor")
    base = "sim_cycles_per_s.baseline"
    for mode in GATED_MODES:
        name = f"sim_cycles_per_s.{mode}"
        got = metrics[name] / metrics[base]
        want = medians["modes", name] / medians["modes", base]
        if got < MODE_FLOOR * want:
            errors.append(f"modes.{mode}: {got:.3f}x baseline cycles/s, "
                          f"below {MODE_FLOOR:.2f} of the summary's "
                          f"{want:.3f}x")
    return errors


def _result_line(path: str) -> dict:
    """The JSON result line that ends one perfbench run's output."""
    lines = pathlib.Path(path).read_text().strip().splitlines()
    try:
        run = json.loads(lines[-1])
    except (IndexError, ValueError):
        run = None
    if not isinstance(run, dict) or not isinstance(run.get("metrics"), dict):
        raise ValueError(f"{path}: no perfbench result line at the end")
    return run


def _commit(directory: pathlib.Path) -> str | None:
    """The commit checked out where results were written (``-dirty``
    when tracked files differ from it)."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--exclude=*"],
            cwd=directory, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    command = args[0] if args else None
    if not (command == "summarize" and len(args) > 1
            or command == "check" and len(args) == 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        if command == "summarize":
            records = [json.loads(pathlib.Path(path).read_text())
                       for path in args[1:]]
            commit = _commit(pathlib.Path(args[1]).resolve().parent)
            print(json.dumps(summarize(records, commit), indent=2))
            return 0
        summary = json.loads(pathlib.Path(args[1]).read_text())
        errors = check(summary, _result_line(args[2]))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"bench {command}: {exc}", file=sys.stderr)
        return 1
    for error in errors:
        print(f"bench check: {error}", file=sys.stderr)
    if not errors:
        print(f"bench check: pass against {args[1]}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
