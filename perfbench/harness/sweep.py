"""Workload ``sweep``: a first run and a rerun of the experiment runner.

This is what ``python -m repro.experiments.runner`` does with the
result cache on: ``collect_plan`` -> ``execute_plan`` -> replay of every
experiment against the warmed cache, then the rendered output. The
experiment set mixes flows shared across figures (fig10, fig12,
fig14), GPU-shrink sweeps (fig11a), a flag-cache capacity sweep
(fig13) and analytic tables (table01, fig07).

* The **cold** pass runs over a fresh temporary disk cache, so every
  unique flow compiles, simulates and stores.
* The **warm** pass uses a fresh in-process cache over the same
  directory, so every flow is a disk read: fingerprinting, cache reads
  and experiment/power post-processing, with no simulation. It is
  short, so each measured cold pass is followed by
  :data:`WARM_PASSES` warm passes, each a rerun with a fresh cache.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro.cache import ResultCache, swap_cache
from repro.experiments import planner, registry

from . import calibrate, instrument
from .checks import Tally, strip_timing
from .tracing import Patcher, maybe_span

EXPERIMENTS = ("fig10", "fig14", "fig11a", "fig12", "fig13", "table01",
               "fig07")
OPTIONS = {
    "scale": 0.5,
    "waves": 1,
    "workloads": ("matrixmul", "blackscholes", "reduction"),
}
#: The untimed warm-up: one small cold + warm pair.
WARMUP_EXPERIMENTS = ("fig10", "table01")
WARMUP_OPTIONS = {"scale": 0.5, "waves": 1, "workloads": ("vectoradd",)}
#: Warm passes after each measured cold pass (traced pairs make one).
WARM_PASSES = 3


@dataclass
class Pass:
    #: Host seconds, the probes' own time left out.
    wall: float
    declared: int
    unique: int
    counters: object
    rendered: dict
    #: Reference-loop samples from just before, inside and just after
    #: the pass (measured passes only; see ``calibrate.Probe``).
    probes: list = field(default_factory=list)

    @property
    def reference_wall(self) -> float:
        """``wall`` at the reference host speed."""
        return self.wall * calibrate.to_reference(self.probes)


def experiment_order(rng) -> list[str]:
    names = list(EXPERIMENTS)
    rng.shuffle(names)
    return names


def _probing(probe: calibrate.Probe) -> Patcher:
    """Let every ``ResultCache.get`` (each flow of a cold pass, each
    lookup of a warm one) give ``probe`` its chance to sample."""
    patcher = Patcher()
    original = ResultCache.get

    def get(self, *args, **kwargs):
        probe.tick()
        return original(self, *args, **kwargs)

    patcher.set(ResultCache, "get", get)
    return patcher


def one_pass(names, options, directory, tracer=None,
             probing: bool = False) -> Pass:
    """Plan, execute and replay ``names`` over a fresh cache instance
    on ``directory``; returns the wall time and rendered outputs. With
    ``probing``, the pass also samples the host speed as it goes."""
    cache = ResultCache(directory=directory)
    previous = swap_cache(cache)
    probe = calibrate.Probe() if probing else None
    patcher = _probing(probe) if probe is not None else None
    rendered = {}
    try:
        if probe is not None:
            probe.take()
        spent = probe.spent if probe is not None else 0.0
        started = time.perf_counter()
        with maybe_span(tracer, "experiments.plan"):
            plan = planner.collect_plan(list(names), dict(options))
        if plan.unique:
            with maybe_span(tracer, "experiments.execute"):
                planner.execute_plan(plan, jobs=1)
        for name in names:
            with maybe_span(tracer, "experiments.replay"):
                result = registry.get_experiment(name)(**options)
                rendered[name] = result.render()
        wall = time.perf_counter() - started
        if probe is not None:
            wall -= probe.spent - spent
            probe.take()
    finally:
        if patcher is not None:
            patcher.restore()
        swap_cache(previous)
    return Pass(wall, len(plan.declared), len(plan.unique),
                cache.counters, rendered,
                probe.samples if probe is not None else [])


def check(tally: Tally, label: str, rendered: dict, expected: dict) -> None:
    for name, text in rendered.items():
        want = expected.get(name)
        if want is None:
            tally.fail(f"{label} {name}: no expected output recorded")
        elif strip_timing(text) != strip_timing(want):
            tally.fail(f"{label} {name}: rendered output differs")
        else:
            tally.ok()


@dataclass
class SweepResult:
    setup_samples: list[float] = field(default_factory=list)
    cold: list[Pass] = field(default_factory=list)
    #: :data:`WARM_PASSES` warm passes per cold pass, in order.
    warm: list[Pass] = field(default_factory=list)
    #: One warm pass per traced cold pass.
    traced_cold: list[Pass] = field(default_factory=list)
    traced_warm: list[Pass] = field(default_factory=list)
    order: list[str] = field(default_factory=list)


def run(rng, tally: Tally, expected: dict, workdir, budget: float,
        min_pairs: int, setups: int = 1, tracer=None,
        reference=None) -> SweepResult:
    """Set up ``setups`` times, then make cold + warm pairs for
    ``budget`` seconds (at least ``min_pairs``), each cold pass
    followed by :data:`WARM_PASSES` warm ones; with a tracer, a second
    batch of pairs with one warm pass each is traced. The untraced
    passes probe the host speed into ``reference``."""
    out = SweepResult(order=experiment_order(rng))
    for _ in range(setups):
        started = time.perf_counter()
        _pair(WARMUP_EXPERIMENTS, WARMUP_OPTIONS, workdir)
        out.setup_samples.append(time.perf_counter() - started)
    out.cold, out.warm = _pairs(out.order, tally, expected, workdir,
                                budget, min_pairs, WARM_PASSES,
                                reference=reference)
    if tracer is not None:
        patcher = instrument.install(tracer)
        try:
            out.traced_cold, out.traced_warm = _pairs(
                out.order, tally, expected, workdir, budget, min_pairs, 1,
                tracer)
        finally:
            patcher.restore()
    return out


def _pair(names, options, workdir, tracer=None, reference=None,
          warm_passes: int = 1) -> tuple[Pass, list[Pass]]:
    """A cold pass and ``warm_passes`` warm ones over one directory.
    With ``reference``, every pass probes the host speed and the probes
    join ``reference``."""
    directory = tempfile.mkdtemp(prefix="sweep-", dir=workdir)
    passes = []
    try:
        with maybe_span(tracer, "sweep.pair"):
            for index in range(1 + warm_passes):
                with maybe_span(tracer,
                                "sweep.warm" if index else "sweep.cold"):
                    passes.append(one_pass(names, options, directory,
                                           tracer, reference is not None))
                if reference is not None:
                    reference.add("sweep", passes[-1].probes)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return passes[0], passes[1:]


def _pairs(names, tally, expected, workdir, budget, min_pairs,
           warm_passes, tracer=None,
           reference=None) -> tuple[list[Pass], list[Pass]]:
    colds, warms = [], []
    attempts = 0
    deadline = time.perf_counter() + budget
    while attempts < min_pairs or time.perf_counter() < deadline:
        attempts += 1
        try:
            cold, reruns = _pair(names, OPTIONS, workdir, tracer,
                                 reference, warm_passes)
        except Exception as exc:
            tally.fail(f"sweep pass: {type(exc).__name__}: {exc}")
            continue
        check(tally, "cold", cold.rendered, expected)
        for warm in reruns:
            check(tally, "warm", warm.rendered, expected)
            if warm.counters.misses or warm.counters.stores:
                tally.fail(f"warm pass missed {warm.counters.misses} and "
                           f"stored {warm.counters.stores} entries")
        colds.append(cold)
        warms += reruns
    return colds, warms
