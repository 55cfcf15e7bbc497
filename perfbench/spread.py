"""Median and quartile spread of each metric over several runs.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py .perfbench/results/modes-seed*-trace0.json

Each argument is a result file written by ``perfbench/run.py``. The
spread is ``(Q3 - Q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``, the figure each metric's bound
in ``BENCHMARK.json`` is compared against.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from harness.stats import median, quartile_spread  # noqa: E402


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        for name, metric in record["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"{'metric':<38} {'median':>14} {'spread':>8}  runs")
    for name, series in values.items():
        print(f"{name:<38} {median(series):>14.6g} "
              f"{quartile_spread(series):>8.3f}  {len(series)} "
              f"({units[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
