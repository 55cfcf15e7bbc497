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

:func:`run_sweep` fans a list of independent flow specifications out
across worker processes (``jobs``) through :mod:`repro.parallel`,
returning results in input order — the building block for multi-config
design-space sweeps. Content-identical specs are deduplicated before
dispatch: each unique simulation runs once, and the shared result is
fanned back to every requesting position.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel import parallel_map

from repro.arch import GPUConfig
from repro.baselines.compiler_spill import (
    SpillBaselineResult,
    run_compiler_spill,
)
from repro.baselines.hardware_only import run_hardware_only
from repro.cache import (
    cached_compile_kernel,
    cached_simulate,
    flow_spec_key,
    get_cache,
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


#: Flow names accepted by :func:`run_sweep` specs.
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
    fingerprinter does not understand; :func:`run_sweep` treats that
    spec as unique.
    """
    flow, workload, kwargs = normalize_spec(spec)
    return flow_spec_key(flow, workload, kwargs)


def run_sweep(
    specs: list[tuple[str, Workload, dict]],
    jobs: int = 1,
) -> list[object]:
    """Run independent flow specs, optionally across processes.

    Each spec is ``(flow, workload, kwargs)`` with ``flow`` one of
    :data:`FLOWS`. Results come back in input order regardless of
    ``jobs``, and ``jobs=1`` produces the identical objects a plain
    loop over the flow functions would.

    Content-identical specs are deduplicated before dispatch: the
    unique set runs once (through the pool when ``jobs > 1``) and the
    shared result object is fanned back to every position that asked
    for it (see :func:`run_specs` for the fan-out).
    """
    work = list(specs)
    # Map each input position to a unique-spec slot. Unfingerprintable
    # specs (exotic kwargs) fall back to being their own slot.
    unique: list[tuple] = []
    slot_of: list[int] = []
    seen: dict[str, int] = {}
    for index, spec in enumerate(work):
        try:
            key = spec_fingerprint(spec)
        except TypeError:
            key = f"<opaque:{index}>"
        slot = seen.get(key)
        if slot is None:
            slot = len(unique)
            seen[key] = slot
            unique.append(spec)
        slot_of.append(slot)

    results = run_specs(unique, jobs=jobs)
    return [results[slot] for slot in slot_of]


def run_specs(specs: list[tuple], jobs: int = 1) -> list[object]:
    """Run flow specs exactly as given, optionally across processes.

    No deduplication: callers that already hold a unique set (the
    sweep planner) skip :func:`run_sweep`'s fingerprinting. Results
    come back in input order. With ``jobs > 1`` each worker exports
    its fresh cache entries, which are absorbed into this process's
    cache.
    """
    if jobs > 1 and len(specs) > 1:
        cache = get_cache()
        results = []
        for result, exports in parallel_map(run_flow_exporting, specs, jobs):
            cache.absorb(exports)
            results.append(result)
        return results
    return [run_flow(spec) for spec in specs]
