"""Workload ``modes``: raw ``GPU(...)`` + ``GPU.run()`` per register mode.

Almost all of this workload's time is in ``repro.sim``: the result
cache is disabled and the cache, planner and service are never called.
A pass simulates a seeded order of Table-1 kernels under four register
modes:

* ``baseline`` — conventional register management;
* ``flags`` — the kernel compiled with release metadata, renaming on;
* ``redefine`` — hardware-only renaming of the uncompiled kernel;
* ``shrink`` — flags mode on a physical register file cut to
  :data:`SHRINK_FRACTION`, on kernels that throttle and spill there
  without deadlocking.

The kernel mix covers ALU-bound (matrixmul), divergent (blackscholes,
bfs), barrier-heavy (reduction) and memory-bound (vectoradd, hotspot)
shapes, with few resident warps (lud) and many (matrixmul, bfs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import compiler, workloads
from repro.arch import GPUConfig
from repro.cache import ResultCache, swap_cache
from repro.sim import GPU

from . import calibrate, instrument
from .checks import Tally, stats_fields
from .stats import median
from .tracing import maybe_span

SCALE = 0.5
WAVES = 1
KERNELS = (
    "matrixmul", "blackscholes", "reduction", "bfs",
    "vectoradd", "hotspot", "lud", "heartwall",
)
SHRINK_KERNELS = ("scalarprod", "backprop", "blackscholes", "hotspot")
SHRINK_FRACTION = 0.15
MODES = ("baseline", "flags", "redefine", "shrink")
#: Least time between two host-speed probes in a measured pass; a case
#: is corrected by the probes just before and just after it.
PROBE_EVERY_S = 0.05

#: Summed per mode over a pass; the ``model.*`` per-layer numbers.
MODEL_FIELDS = (
    "cycles", "instructions", "throttle_cycles",
    "stall_bank_conflict_cycles", "spill_events", "fill_events",
    "renaming_reads", "renaming_writes", "flag_cache_hits",
    "flag_cache_misses", "ticks_executed", "skipped_cycles",
)


@dataclass
class Case:
    """One ``GPU(...)`` construction: a kernel under one register mode."""

    kernel: str
    mode: str
    config: object
    program: object
    launch: object
    sim_mode: str
    threshold: int
    cap: int

    @property
    def key(self) -> str:
        return f"{self.kernel}/{self.mode}"


def kernel_order(rng) -> list[str]:
    """The seeded order in which a pass visits the kernels."""
    names = sorted(set(KERNELS) | set(SHRINK_KERNELS))
    rng.shuffle(names)
    return names


def build_cases(order: list[str]) -> list[Case]:
    """Generate and compile every (kernel, mode) case, in ``order``."""
    cases = []
    for name in order:
        workload = workloads.get_workload(name, scale=SCALE)
        launch = workload.launch
        cap = WAVES * workload.table1.conc_ctas_per_sm
        plain = workload.kernel
        if name in KERNELS:
            renamed = GPUConfig.renamed()
            compiled = compiler.compile_kernel(plain, launch, renamed)
            cases += [
                Case(name, "baseline", GPUConfig.baseline(), plain.clone(),
                     launch, "baseline", 0, cap),
                Case(name, "flags", renamed, compiled.kernel, launch,
                     "flags", compiled.renaming_threshold, cap),
                Case(name, "redefine", renamed, plain.clone(), launch,
                     "redefine", 0, cap),
            ]
        if name in SHRINK_KERNELS:
            shrunk = GPUConfig.shrunk(SHRINK_FRACTION)
            compiled = compiler.compile_kernel(plain, launch, shrunk)
            cases.append(Case(name, "shrink", shrunk, compiled.kernel,
                              launch, "flags",
                              compiled.renaming_threshold, cap))
    return cases


def simulate(case: Case):
    """Host seconds in ``GPU(...)`` + ``GPU.run()``, and the stats."""
    started = time.perf_counter()
    gpu = GPU(case.config, case.program, case.launch, mode=case.sim_mode,
              threshold=case.threshold, max_ctas_per_sm_sim=case.cap)
    stats = gpu.run().stats
    return time.perf_counter() - started, stats


@dataclass
class Pass:
    """One visit of every case."""

    wall: float = 0.0
    #: Host seconds and simulated cycles of each case, by ``Case.key``.
    seconds: dict = field(default_factory=dict)
    cycles: dict = field(default_factory=dict)
    #: Host seconds of each case at the reference host speed (measured
    #: passes only).
    reference_seconds: dict = field(default_factory=dict)
    model: dict = field(default_factory=lambda: {
        mode: dict.fromkeys(MODEL_FIELDS, 0) for mode in MODES
    })


def cycles_per_s(passes: list[Pass], mode: str,
                 times: str = "seconds") -> float:
    """Simulated cycles per host second of ``mode`` over ``passes``: the
    mode's cycles divided by the sum over its cases of each case's
    median time across passes, so a slow moment spoils one case's
    sample, not the whole pass. ``times`` names the per-case times:
    ``seconds`` as measured or ``reference_seconds``."""
    cases = {key for one in passes for key in getattr(one, times)
             if key.endswith("/" + mode)}
    cycles = seconds = 0.0
    for key in cases:
        samples = [getattr(one, times)[key] for one in passes
                   if key in getattr(one, times)]
        cycles += next(one.cycles[key] for one in passes
                       if key in one.cycles)
        seconds += median(samples)
    return cycles / seconds if seconds else 0.0


def one_pass(cases: list[Case], tally: Tally, expected: dict,
             reference=None) -> Pass:
    """Simulate every case once. With ``reference``, probe the host
    speed between cases (the probes join ``reference``) and correct
    each case's time by the probes around it."""
    result = Pass()
    probe = calibrate.Probe(PROBE_EVERY_S) if reference is not None else None
    # Index of the last probe taken before each case.
    before: dict[str, int] = {}
    spent = 0.0
    if probe is not None:
        probe.take()
        spent = probe.spent
    started = time.perf_counter()
    for case in cases:
        if probe is not None:
            probe.tick()
            before[case.key] = len(probe.samples) - 1
        try:
            seconds, stats = simulate(case)
        except Exception as exc:
            tally.fail(f"{case.key}: {type(exc).__name__}: {exc}")
            continue
        if not tally.check(case.key, stats_fields(stats),
                           expected.get(case.key)):
            continue
        result.seconds[case.key] = seconds
        result.cycles[case.key] = stats.cycles
        totals = result.model[case.mode]
        for name in MODEL_FIELDS:
            totals[name] += getattr(stats, name)
    result.wall = time.perf_counter() - started
    if probe is not None:
        result.wall -= probe.spent - spent
        probe.take()
        for key, index in before.items():
            if key in result.seconds:
                # The next probe after a case's own is the first one
                # taken after the case ended.
                around = probe.samples[index:index + 2]
                result.reference_seconds[key] = (
                    result.seconds[key] * calibrate.to_reference(around))
        reference.add("modes", probe.samples)
    return result


@dataclass
class ModesResult:
    #: Seconds of each set-up: kernel generation, compilation and the
    #: untimed warm-up pass (imports are counted once, by the caller).
    setup_samples: list[float] = field(default_factory=list)
    warmup: Pass | None = None
    passes: list[Pass] = field(default_factory=list)
    #: Passes made with spans on (traced runs only).
    traced: list[Pass] = field(default_factory=list)
    order: list[str] = field(default_factory=list)


def run(rng, tally: Tally, expected: dict, budget: float,
        min_passes: int, setups: int = 1, tracer=None,
        reference=None) -> ModesResult:
    """Set up ``setups`` times, then make passes for ``budget`` seconds
    (at least ``min_passes``). With a tracer, the last set-up and a
    second batch of passes are traced; the untraced passes give the
    end-to-end numbers and the tracing overhead. The untraced passes
    probe the host speed into ``reference``."""
    out = ModesResult(order=kernel_order(rng))
    previous = swap_cache(ResultCache(enabled=False))
    try:
        cases: list[Case] = []
        for index in range(setups):
            patcher = (
                instrument.install(tracer)
                if tracer is not None and index == setups - 1 else None
            )
            try:
                with maybe_span(patcher and tracer, "modes.setup"):
                    started = time.perf_counter()
                    cases = build_cases(out.order)
                    out.warmup = one_pass(cases, tally, expected)
                    out.setup_samples.append(time.perf_counter() - started)
            finally:
                if patcher is not None:
                    patcher.restore()
        out.passes = _passes(cases, tally, expected, budget, min_passes,
                             reference=reference)
        if tracer is not None:
            patcher = instrument.install(tracer)
            try:
                out.traced = _passes(cases, tally, expected, budget,
                                     min_passes, tracer)
            finally:
                patcher.restore()
    finally:
        swap_cache(previous)
    return out


def _passes(cases, tally, expected, budget, min_passes, tracer=None,
            reference=None) -> list[Pass]:
    passes = []
    deadline = time.perf_counter() + budget
    while len(passes) < min_passes or time.perf_counter() < deadline:
        with maybe_span(tracer, "modes.pass"):
            passes.append(one_pass(cases, tally, expected, reference))
    return passes
