"""Benchmark entry point.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload modes --seed 1 --seconds 8 --trace 0

Workloads are ``modes``, ``sweep`` and ``serve`` (see ``README.md``
beside this file). The named workload is measured for ``--seconds``;
every run also makes a short fixed-size pass of the other two, so each
run reports every end-to-end metric. With ``--trace 1`` only the named
workload runs, half untraced and half traced, and the run reports the
per-layer metrics instead.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Full results (inputs, samples, spans) go to
``.perfbench/results/``. The exit code is non-zero, with no result
line, when the program's sources are missing or the run is
interrupted.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("modes", "sweep", "serve")
MODES = ("baseline", "flags", "redefine", "shrink")

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    [("setup_s", "s"), ("peak_rss_mb", "MB")]
    + [(f"sim_cycles_per_s.{mode}", "cycles/s") for mode in MODES]
    + [("sweep_cold_s", "s"), ("sweep_warm_s", "s"),
       ("serve_p50_ms", "ms"), ("serve_tail_ms", "ms"),
       ("serve_max_rps", "req/s")]
)

#: Set-ups of the named workload whose median is ``setup_s``.
SETUPS = 3
#: Minimum work of the named workload, and of each other workload's
#: short pass: modes passes, sweep cold passes (each followed by
#: several warm ones) and serve cycles. A serve figure is a median over
#: cycles, so every run makes at least four.
FOCUS_MINIMUM = {"modes": 6, "sweep": 2, "serve": 4}
SIDE_MINIMUM = {"modes": 6, "sweep": 2, "serve": 4}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Every ``REPRO_*`` variable back to its default (unset): result
    cache, disk cap and engine flags. The harness configures the cache
    of each workload explicitly."""
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]


class Run:
    """One benchmark invocation: its inputs, children and results."""

    def __init__(self, args, workdir: pathlib.Path):
        from harness import calibrate, checks, procs

        self.args = args
        self.workdir = workdir
        self.rng = random.Random(args.seed)
        self.tally = checks.Tally()
        self.children = procs.Children()
        self.inputs: dict = {"seed": args.seed}
        self.report: dict = {}
        self.tracer = None
        self.reference = calibrate.Reference()

    def budget(self, workload: str) -> float:
        if workload != self.args.workload:
            return 0.0
        return self.args.seconds / (2 if self.args.trace else 1)

    def minimum(self, workload: str) -> int:
        if workload == self.args.workload:
            return FOCUS_MINIMUM[workload]
        return SIDE_MINIMUM[workload]

    def modes(self):
        from harness import checks, modes

        focus = self.args.workload == "modes"
        result = modes.run(
            self.rng, self.tally, checks.load("modes"),
            self.budget("modes"), self.minimum("modes"),
            setups=SETUPS if focus else 1,
            tracer=self.tracer if focus else None,
            reference=self.reference)
        self.inputs["modes_kernel_order"] = result.order
        return result

    def sweep(self):
        from harness import checks, sweep

        focus = self.args.workload == "sweep"
        result = sweep.run(
            self.rng, self.tally, checks.load("sweep"), self.workdir,
            self.budget("sweep"), self.minimum("sweep"),
            setups=SETUPS if focus else 1,
            tracer=self.tracer if focus else None,
            reference=self.reference)
        self.inputs["sweep_experiment_order"] = result.order
        return result

    def serve(self):
        from harness import checks, serve

        focus = self.args.workload == "serve"
        result = serve.run(
            ROOT, self.workdir, self.children, self.rng, self.tally,
            checks.load("serve"), self.budget("serve"),
            self.minimum("serve"),
            tracer=self.tracer if focus else None,
            reference=self.reference)
        self.inputs["serve_schedules"] = [
            cycle.schedules for cycle in result.cycles + result.traced
        ]
        return result


def end_to_end(run: Run, results: dict, import_s: float) -> dict:
    from harness import calibrate, modes, serve
    from harness.stats import median

    simulated, swept, served = (results[name] for name in WORKLOADS)
    focus = run.args.workload
    if focus == "modes":
        samples = simulated.setup_samples
    elif focus == "sweep":
        samples = swept.setup_samples
    else:
        samples = [c.ready_s + c.warmup_s for c in served.cycles]
    latency = serve.summary(served.cycles)
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {
        "setup_s": import_s + median(samples),
        "peak_rss_mb": own_mb + max(c.peak_rss_mb for c in served.cycles),
        "sweep_cold_s": median([one.wall for one in swept.cold]),
        "sweep_warm_s": median([one.wall for one in swept.warm]),
        "serve_p50_ms": latency["raw_p50_ms"],
        "serve_tail_ms": latency["raw_tail_ms"],
        "serve_max_rps": latency["max_rps"],
    }
    for mode in MODES:
        raw[f"sim_cycles_per_s.{mode}"] = modes.cycles_per_s(
            simulated.passes, mode)
    # Host times at the reference host speed (see
    # harness/calibrate.py): each modes case by the probes around it,
    # each sweep pass by the probes taken inside it, each serve cycle's
    # latencies by probes taken in its idle gaps, set-up time by every
    # sample of the named workload. Memory and rates stay raw.
    values = dict(raw)
    values["setup_s"] *= calibrate.to_reference(run.reference.samples[focus])
    for mode in MODES:
        values[f"sim_cycles_per_s.{mode}"] = modes.cycles_per_s(
            simulated.passes, mode, "reference_seconds")
    values["sweep_cold_s"] = median([one.reference_wall
                                     for one in swept.cold])
    values["sweep_warm_s"] = median([one.reference_wall
                                     for one in swept.warm])
    values["serve_p50_ms"] = latency["p50_ms"]
    values["serve_tail_ms"] = latency["tail_ms"]
    run.report.update(
        raw_metrics=raw,
        reference_ms={name: run.reference.milliseconds(name)
                      for name in WORKLOADS},
        import_s=import_s, setup_samples=samples,
        serve_tail_percentile=latency["tail_percentile"],
        serve_tail_samples=latency["tail_samples"],
        serve_generator_late_ms=max(
            max(c.nominal.lateness) for c in served.cycles) * 1e3,
        serve_backlog_max=max(max(c.nominal.backlog)
                              for c in served.cycles),
        serve_ladder=latency["ladder"],

        modes_passes=len(simulated.passes), sweep_pairs=len(swept.cold),
        serve_cycles=len(served.cycles),
    )
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(run: Run, result) -> dict:
    from harness import layers, serve

    focus = run.args.workload
    if focus == "modes":
        values = layers.for_modes(result, run.tracer)
    elif focus == "sweep":
        values = layers.for_sweep(result, run.tracer)
    else:
        key_s, direct_s = serve.direct_costs()
        values = layers.for_serve(result, run.tracer, key_s, direct_s)
    values["host.reference_ms"] = run.reference.milliseconds(focus)
    unit = {"modes": "modes.pass", "sweep": "sweep.pair",
            "serve": "serve.cycle"}[focus]
    run.report["self_s_per_unit"] = layers.self_seconds(
        layers.SpanIndex(run.tracer), unit)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in layers.PER_LAYER}


def execute(run: Run, import_s: float) -> dict:
    from harness.tracing import Tracer

    if run.args.trace:
        run.tracer = Tracer()
        return per_layer(run, getattr(run, run.args.workload)())
    order = [run.args.workload] + [
        name for name in WORKLOADS if name != run.args.workload
    ]
    results = {name: getattr(run, name)() for name in order}
    return end_to_end(run, results, import_s)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    pin_environment()
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from harness import procs

    workdir = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    procs.install_signal_handlers()
    run = None
    try:
        import repro
        from harness import modes, serve, sweep  # noqa: F401 (timed)

        import_s = time.perf_counter() - STARTED
        origin = pathlib.Path(repro.__file__).resolve()
        if ROOT / "src" not in origin.parents:
            print(f"error: imported repro from {origin}", file=sys.stderr)
            return 2
        run = Run(args, workdir)
        metrics = execute(run, import_s)
    except procs.Interrupted as exc:
        print(f"interrupted by signal {exc.signum}", file=sys.stderr)
        return 128 + exc.signum
    except procs.DaemonFailed as exc:
        print(f"error: simulation daemon failed: {exc}", file=sys.stderr)
        return 1
    finally:
        procs.ignore_signals()
        survivors = run.children.reap_all() if run is not None else 0
        shutil.rmtree(workdir, ignore_errors=True)
    if survivors:
        run.tally.fail(f"{survivors} child process(es) still running at "
                       "exit were killed")
    return finish(run, metrics)


def finish(run: Run, metrics: dict) -> int:
    from repro import cache

    tally = run.tally
    fingerprint = getattr(cache, "engine_fingerprint", lambda: None)()
    record = {
        "workload": run.args.workload, "seed": run.args.seed,
        "seconds": run.args.seconds, "trace": run.args.trace,
        "engine_fingerprint": fingerprint, "inputs": run.inputs,
        "report": run.report, "attempted": tally.attempted,
        "failed": tally.failed, "failures": tally.reasons,
        "reference_samples": run.reference.samples, "metrics": metrics,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = (f"{run.args.workload}-seed{run.args.seed}"
            f"-trace{run.args.trace}")
    with open(results / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    if run.tracer is not None:
        run.tracer.dump(results / f"{stem}-spans.json")
    for name, metric in metrics.items():
        print(f"{name:<38} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in run.report.items():
        if isinstance(value, dict):
            for name, item in value.items():
                print(f"# {key}.{name}: {item}")
        elif key == "serve_ladder":
            for index, rungs in enumerate(value):
                print(f"# {key}[{index}]: " + "; ".join(
                    f"{rung['rate']:g}/s -> {rung['achieved_rps']:.1f}/s "
                    f"tail {rung['tail_ms']:.1f} ms backlog "
                    f"{rung['final_backlog']} "
                    f"{'ok' if rung['meets_limit'] else 'over'}"
                    for rung in rungs))
        else:
            print(f"# {key}: {value}")
    print(f"# engine_fingerprint: {fingerprint}")
    print(f"# operations: attempted {tally.attempted}, succeeded "
          f"{tally.attempted - tally.failed}, failed {tally.failed}")
    for reason in tally.reasons:
        print(f"# failed: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
