"""Canonical run flows for one workload under each configuration.

Every experiment needs the same four flows:

* ``baseline``  — conventional 128 KB register file, no renaming;
* ``virtualized`` — the paper's proposal on a configurable register
  file (full-size, or GPU-shrink fractions), with compile;
* ``compiler spill`` — the naive 64 KB + recompile baseline;
* ``hardware only`` — the redefine-release renaming baseline [46].

``waves`` caps how many CTA waves per SM are simulated
(``waves x concurrent CTAs``); two waves reach steady state while
keeping the pure-Python simulations fast.

All four flows run their compilation/simulation through the
content-addressed result cache (:mod:`repro.cache`): a repeated flow
with content-identical inputs is answered from the cache with a
bit-identical result. ``REPRO_RESULT_CACHE=0`` restores the direct
path.

:func:`run_specs` runs a list of flow specifications, optionally on a
process pool (``jobs``), returning results in input order; the sweep
planner (:mod:`repro.experiments.planner`) dedupes the specs before
calling it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.arch import GPUConfig
from repro.baselines.compiler_spill import (
    SpillBaselineResult,
    run_compiler_spill,
)
from repro.baselines.hardware_only import run_hardware_only
from repro.cache import (
    cache_env_value,
    cached_compile_kernel,
    cached_simulate,
    flow_spec_key,
    get_cache,
    init_worker,
)
from repro.compiler import CompiledKernel
from repro.sim.gpu import SimulationResult
from repro.workloads.suite import Workload


@dataclass
class RunArtifacts:
    """A compiled kernel plus its simulation outcome."""

    workload: Workload
    result: SimulationResult
    compiled: CompiledKernel | None = None

    @property
    def stats(self):
        return self.result.stats


def _wave_cap(workload: Workload, waves: int | None) -> int | None:
    if waves is None:
        return None
    return waves * workload.table1.conc_ctas_per_sm


def run_baseline(
    workload: Workload,
    config: GPUConfig | None = None,
    waves: int | None = 2,
    **kwargs,
) -> RunArtifacts:
    """Conventional register management on a full-size file."""
    config = config or GPUConfig.baseline()
    result = cached_simulate(
        workload.kernel,
        workload.launch,
        config,
        mode="baseline",
        max_ctas_per_sm_sim=_wave_cap(workload, waves),
        **kwargs,
    )
    return RunArtifacts(workload=workload, result=result)


def run_virtualized(
    workload: Workload,
    config: GPUConfig | None = None,
    waves: int | None = 2,
    **kwargs,
) -> RunArtifacts:
    """Compile with release metadata and simulate with renaming."""
    config = config or GPUConfig.renamed()
    compiled = cached_compile_kernel(workload.kernel, workload.launch, config)
    result = cached_simulate(
        compiled.kernel,
        workload.launch,
        config,
        mode="flags",
        threshold=compiled.renaming_threshold,
        max_ctas_per_sm_sim=_wave_cap(workload, waves),
        **kwargs,
    )
    return RunArtifacts(workload=workload, result=result, compiled=compiled)


def run_hardware_only_baseline(
    workload: Workload,
    config: GPUConfig | None = None,
    waves: int | None = 2,
    **kwargs,
) -> RunArtifacts:
    """The redefine-release hardware-only renaming baseline."""
    result = run_hardware_only(
        workload.kernel,
        workload.launch,
        config or GPUConfig.renamed(),
        max_ctas_per_sm_sim=_wave_cap(workload, waves),
        simulate_fn=cached_simulate,
        **kwargs,
    )
    return RunArtifacts(workload=workload, result=result)


def run_compiler_spill_baseline(
    workload: Workload,
    shrunk_bytes: int = 64 * 1024,
    waves: int | None = 2,
    **kwargs,
) -> SpillBaselineResult:
    """The naive halved-file + recompile baseline."""
    return run_compiler_spill(
        workload.kernel,
        workload.launch,
        shrunk_bytes=shrunk_bytes,
        max_ctas_per_sm_sim=_wave_cap(workload, waves),
        simulate_fn=cached_simulate,
        **kwargs,
    )


#: Flow names accepted by :func:`run_flow` specs.
FLOWS = {
    "baseline": run_baseline,
    "virtualized": run_virtualized,
    "hardware_only": run_hardware_only_baseline,
    "compiler_spill": run_compiler_spill_baseline,
}

#: Per-flow defaults applied before fingerprinting a spec, so that
#: e.g. ``("virtualized", w, {})`` and ``("virtualized", w,
#: {"config": GPUConfig.renamed()})`` — which run the exact same
#: simulation — deduplicate to one dispatch.
_FLOW_DEFAULTS = {
    "baseline": lambda: {"config": GPUConfig.baseline(), "waves": 2},
    "virtualized": lambda: {"config": GPUConfig.renamed(), "waves": 2},
    "hardware_only": lambda: {"config": GPUConfig.renamed(), "waves": 2},
    "compiler_spill": lambda: {"shrunk_bytes": 64 * 1024, "waves": 2},
}


def run_flow(spec: tuple) -> object:
    """Worker entry point: run one ``(flow, workload[, kwargs])`` spec."""
    flow, workload, *rest = spec
    kwargs = rest[0] if rest else {}
    try:
        runner = FLOWS[flow]
    except KeyError:
        known = ", ".join(FLOWS)
        raise ValueError(f"unknown flow '{flow}'; known: {known}") from None
    return runner(workload, **kwargs)


def run_flow_exporting(spec: tuple) -> tuple[object, list]:
    """Pool worker entry: run one spec, return it with cache exports.

    The worker's cache entries (fresh simulate/compile results) ride
    back with the flow result so the parent can absorb them; that is
    how a warmed pool run seeds the parent cache that experiments
    replay against.
    """
    cache = get_cache()
    result = run_flow(spec)
    return result, cache.take_exports()


def normalize_spec(spec: tuple) -> tuple[str, Workload, dict]:
    """One sweep spec with its flow defaults applied.

    The canonical ``(flow, workload, kwargs)`` shape behind both the
    dedupe fingerprint and the simulation service's wire schema: two
    specs that run the same simulation normalize identically.
    """
    flow, workload, *rest = spec
    kwargs = dict(rest[0]) if rest else {}
    if flow in _FLOW_DEFAULTS:
        for name, value in _FLOW_DEFAULTS[flow]().items():
            if kwargs.get(name) is None:
                kwargs[name] = value
    return flow, workload, kwargs


def spec_fingerprint(spec: tuple) -> str:
    """Content fingerprint of one sweep spec, with flow defaults applied.

    Raises :class:`TypeError` if the kwargs contain something the
    fingerprinter does not understand; the sweep planner treats that
    spec as unique.
    """
    flow, workload, kwargs = normalize_spec(spec)
    return flow_spec_key(flow, workload, kwargs)


def run_specs(specs: list[tuple], jobs: int = 1) -> list[object]:
    """Run flow specs exactly as given, optionally across processes.

    No deduplication: the caller (the sweep planner) already holds a
    unique set. Results come back in input order. With ``jobs > 1`` the
    specs run on a process pool whose workers share this process's
    cache (:func:`repro.cache.init_worker`): each worker writes the
    entries it computes to the disk tier, and this process absorbs
    their exports into its memory tier, then applies its disk cap once.
    """
    if jobs <= 1 or len(specs) <= 1:
        return [run_flow(spec) for spec in specs]
    cache = get_cache()
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(specs)),
        initializer=init_worker,
        initargs=(cache_env_value(cache),),
    ) as pool:
        outcomes = list(pool.map(run_flow_exporting, specs))
    for _result, exports in outcomes:
        cache.absorb(exports)
    cache.sweep()
    return [result for result, _exports in outcomes]
