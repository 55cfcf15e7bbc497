"""Memoized wrappers around ``simulate`` and ``compile_kernel``.

These are drop-in replacements used by the canonical run flows
(:mod:`repro.analysis.runners`): same signature, same return values,
bit-identical results — the only difference is that a repeated call
with content-identical inputs is answered from the
:class:`~repro.cache.store.ResultCache` instead of re-simulating.

The repository benchmark's ``modes`` workload (``perfbench/``) runs
the simulator with the result cache disabled, so its timings always
measure real work.
"""

from __future__ import annotations

from repro.arch import GPUConfig
from repro.cache.fingerprint import compile_key, simulate_key
from repro.cache.store import MISS, ResultCache
from repro.compiler import CompiledKernel, compile_kernel
from repro.isa.kernel import Kernel
from repro.launch import LaunchConfig
from repro.sim.gpu import SimulationResult, simulate


def cached_simulate(
    kernel: Kernel,
    launch: LaunchConfig,
    config: GPUConfig | None = None,
    mode: str = "baseline",
    threshold: int = 0,
    max_ctas_per_sm_sim: int | None = None,
    sample_interval: int = 0,
    trace_warp_slots: tuple[int, ...] = (),
    spill_enabled: bool = True,
    max_cycles: int = 50_000_000,
    cache: ResultCache | None = None,
) -> SimulationResult:
    """:func:`repro.sim.gpu.simulate`, memoized by content.

    The input kernel is cloned before simulating, so callers need not.
    """
    if cache is None:
        from repro.cache import get_cache

        cache = get_cache()
    config = config or GPUConfig.baseline()
    kwargs = dict(
        mode=mode,
        threshold=threshold,
        max_ctas_per_sm_sim=max_ctas_per_sm_sim,
        sample_interval=sample_interval,
        trace_warp_slots=tuple(trace_warp_slots),
        spill_enabled=spill_enabled,
        max_cycles=max_cycles,
    )
    if not cache.enabled:
        return simulate(kernel.clone(), launch, config, **kwargs)
    key = simulate_key(kernel, launch, config, **kwargs)
    hit = cache.get(key)
    if hit is not MISS:
        return hit
    # Pin the key while simulating so a concurrent store's LRU sweep
    # (daemon workers share the disk directory) cannot evict the entry
    # between our put and the caller receiving it.
    cache.pin(key)
    try:
        result = simulate(kernel.clone(), launch, config, **kwargs)
        cache.put(key, result)
    finally:
        cache.unpin(key)
    return result


def cached_compile_kernel(
    kernel: Kernel,
    launch: LaunchConfig,
    config: GPUConfig,
    insert_flags: bool = True,
    edge_releases: bool = True,
    cache: ResultCache | None = None,
) -> CompiledKernel:
    """:func:`repro.compiler.compile_kernel`, memoized by content."""
    if cache is None:
        from repro.cache import get_cache

        cache = get_cache()
    if not cache.enabled:
        return compile_kernel(
            kernel, launch, config,
            insert_flags=insert_flags, edge_releases=edge_releases,
        )
    key = compile_key(
        kernel, launch, config,
        insert_flags=insert_flags, edge_releases=edge_releases,
    )
    return cache.memoize(
        key,
        lambda: compile_kernel(
            kernel, launch, config,
            insert_flags=insert_flags, edge_releases=edge_releases,
        ),
    )
