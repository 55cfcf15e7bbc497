"""Command-line experiment runner.

Usage::

    python -m repro.experiments.runner                 # run everything
    python -m repro.experiments.runner fig10 fig11a    # a subset
    python -m repro.experiments.runner --quick fig12   # reduced scale
    python -m repro.experiments.runner --jobs 4        # process fan-out

``--quick`` shortens workload loops and simulates a single CTA wave,
for smoke-testing the harness; published comparisons should use the
default settings. ``--profile`` wraps the (serial) run in
:mod:`cProfile`, prints the top 20 functions by cumulative time, and
saves ``profile.pstats`` for ``pstats``/``snakeviz``-style tools.

Results are memoized in a content-addressed cache (on disk at
``.repro-cache/`` by default; see :mod:`repro.cache`): a rerun with
unchanged inputs replays from the cache. ``--cache-dir DIR`` relocates
it, ``--no-cache`` disables it, and the ``REPRO_RESULT_CACHE``
environment variable does both without CLI flags. When the cache is
enabled, experiments first *declare* their simulation flows to the
sweep planner, which runs each unique simulation exactly once per
invocation regardless of how many figures share it. ``--jobs N`` runs
that plan on N worker processes (``--jobs 0`` means one per CPU), so
it needs the cache; the experiments then replay in request order from
the warm cache.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import sys
import time

from repro.cache import (
    configure_cache,
    get_cache,
    parse_size,
    reset_cache,
    resolve_jobs,
)
from repro.errors import ConfigError
from repro.experiments.planner import collect_plan, execute_plan
from repro.experiments.registry import EXPERIMENTS, get_experiment

#: Default on-disk cache location when neither ``--cache-dir`` nor
#: ``REPRO_RESULT_CACHE`` says otherwise.
DEFAULT_CACHE_DIR = ".repro-cache"


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def _export_csv(result, directory: pathlib.Path) -> list[pathlib.Path]:
    """Write the experiment's tables as CSV files; returns the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    tables = [result.table] + list(result.extra_tables)
    for index, table in enumerate(tables):
        suffix = "" if index == 0 else f"_{_slug(table.title)[:40]}"
        path = directory / f"{result.experiment}{suffix}.csv"
        path.write_text(table.to_csv())
        written.append(path)
    return written


def _configure_cache_from_args(args):
    """Install the cache the CLI flags ask for; returns it."""
    if args.no_cache:
        return configure_cache(enabled=False)
    max_bytes = (
        parse_size(args.max_bytes) if args.max_bytes is not None else None
    )
    if args.cache_dir is not None:
        return configure_cache(directory=args.cache_dir,
                               max_bytes=max_bytes)
    if "REPRO_RESULT_CACHE" in os.environ:
        reset_cache()
        cache = get_cache()
        if max_bytes is not None and cache.enabled:
            # Keep the env-selected location, apply the CLI's cap.
            cache = configure_cache(
                directory=cache.directory, max_bytes=max_bytes
            )
        return cache
    return configure_cache(directory=DEFAULT_CACHE_DIR,
                           max_bytes=max_bytes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"experiment ids (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced loop scale and one CTA wave (smoke test)",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="workload loop-scale factor (overrides --quick)",
    )
    parser.add_argument(
        "--waves", type=int, default=None,
        help="CTA waves simulated per SM (at least 1)",
    )
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also export every regenerated table as CSV into DIR",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="also draw figure experiments as ASCII bar charts",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the deduplicated simulation plan "
             "(0 = one per CPU; default 1, fully serial; more than one "
             "needs the result cache)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result-cache directory (default: $REPRO_RESULT_CACHE or "
             f"{DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--max-bytes", metavar="SIZE", default=None,
        help="cap the disk cache with LRU eviction (e.g. 64m; default: "
             "$REPRO_RESULT_CACHE_MAX_BYTES or unbounded)",
    )
    parser.add_argument(
        "--submit", metavar="ADDR", default=None,
        help="execute the deduplicated simulation plan on a running "
             "daemon instead of locally, then replay the experiments "
             "(share --cache-dir with the daemon for a warm replay)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache; every simulation reruns "
             "serially",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="profile the run under cProfile: print the top 20 "
             "functions by cumulative time and save profile.pstats "
             "(forces --jobs 1; subprocess work is invisible to the "
             "profiler)",
    )
    args = parser.parse_args(argv)
    if args.waves is not None and args.waves < 1:
        parser.error(f"--waves must be >= 1, got {args.waves}")

    names = args.experiments or list(EXPERIMENTS)
    options: dict[str, object] = {}
    if args.quick:
        options.update(scale=0.5, waves=1)
    if args.scale is not None:
        options["scale"] = args.scale
    if args.waves is not None:
        options["waves"] = args.waves

    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))
    # Validate names up front so a typo fails before any work is spent.
    for name in names:
        try:
            get_experiment(name)
        except ConfigError as exc:
            parser.error(str(exc))

    cache = _configure_cache_from_args(args)

    if args.submit is not None and args.no_cache:
        parser.error("--submit needs the result cache (drop --no-cache)")
    if args.submit is not None and args.profile:
        parser.error("--submit and --profile are mutually exclusive")
    if jobs > 1 and not cache.enabled:
        parser.error("--jobs runs the simulation plan, which needs the "
                     "result cache (drop --no-cache)")

    def run_serial() -> None:
        for name in names:
            experiment_started = time.time()
            result = get_experiment(name)(**options)
            print(result.render())
            if args.chart:
                from repro.analysis.charts import chart_for

                chart = chart_for(result.experiment, result.table)
                if chart:
                    print()
                    print(chart)
            if args.csv:
                for path in _export_csv(result, pathlib.Path(args.csv)):
                    print(f"csv: {path}")
            print(f"({time.time() - experiment_started:.1f}s)")
            print()

    started = time.time()
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        run_serial()
        profiler.disable()
        out = pathlib.Path("profile.pstats")
        profiler.dump_stats(out)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(20)
        print(f"profile: {out}")
    else:
        plan = collect_plan(names, options) if cache.enabled else None
        if args.submit is not None and plan is not None and plan.unique:
            # Remote path: a running daemon executes the unique set
            # (coalescing with whatever else it is serving); the replay
            # is warm when daemon and runner share a disk cache
            # directory, and recomputes locally otherwise.
            from repro.service.client import format_address, submit_requests

            print(plan.describe())
            submit_started = time.time()
            responses = submit_requests(args.submit, plan.requests())
            served: dict[str, int] = {}
            for response in responses:
                kind = str(response.get("served", "?"))
                served[kind] = served.get(kind, 0) + 1
            summary = ", ".join(
                f"{count} {kind}" for kind, count in sorted(served.items())
            )
            print(
                f"plan served by {format_address(args.submit)} in "
                f"{time.time() - submit_started:.1f}s ({summary})"
            )
            print()
        elif plan is not None and plan.unique:
            # Planned path: dedupe the union of declared flows, run
            # each unique simulation exactly once (on the pool when
            # --jobs asks), then replay the experiments against the
            # warm cache.
            print(plan.describe())
            execute_plan(plan, jobs=jobs)
            print(f"plan executed in {plan.elapsed:.1f}s "
                  f"({jobs} worker process"
                  f"{'es' if jobs != 1 else ''})")
            print()
        run_serial()
    print(f"total: {time.time() - started:.1f}s")
    print(cache.describe())
    return 0


if __name__ == "__main__":
    sys.exit(main())
