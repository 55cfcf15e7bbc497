"""Span wrappers around each layer's public calls (traced runs only).

Layers are the program's ``repro.*`` packages. The wrappers live here,
in the benchmark's own files; the program is unchanged and an
untraced run calls it directly. Span names:

=======================  =============================================
``workloads.build``      ``repro.workloads.get_workload``
``compiler.compile``     ``repro.compiler.compile_kernel``
``sim.construct``        ``repro.sim.GPU.__init__`` (cores + decode cache)
``sim.run``              ``repro.sim.GPU.run``
``cache.key``            ``simulate_key``, ``compile_key``,
                         ``flow_spec_key``, ``service_key``
``cache.get``            ``repro.cache.ResultCache.get``
``cache.put``            ``repro.cache.ResultCache.put``
``analysis.flow``        ``repro.analysis.runners.run_flow``
=======================  =============================================

The workloads add their own spans around ``collect_plan`` /
``execute_plan`` / each experiment's replay (``experiments.*``) and
around each service request on the client side (``service.request``).
"""

from __future__ import annotations

from .tracing import Patcher, Tracer


def mode_label(gpu) -> str:
    """Register mode of a constructed GPU: flags mode on an
    under-provisioned physical register file is GPU-shrink."""
    config = gpu.config
    phys = config.physical_regfile_bytes
    if gpu.mode == "flags" and phys is not None and (
        phys < config.regfile_bytes
    ):
        return "shrink"
    return gpu.mode


def _record_construct(attrs, args, _result) -> None:
    attrs["mode"] = mode_label(args[0])


def _record_run(attrs, args, result) -> None:
    stats = result.stats
    attrs.update(
        mode=mode_label(args[0]),
        cycles=stats.cycles,
        instructions=stats.instructions,
        ticks=stats.ticks_executed,
        skipped=stats.skipped_cycles,
    )


def _record_get(attrs, _args, result) -> None:
    from repro.cache import MISS

    attrs["hit"] = result is not MISS


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer's public calls; ``Patcher.restore`` undoes it."""
    from repro import cache, compiler, workloads
    from repro.analysis import runners
    # Load the experiment modules first so their bindings get patched.
    from repro.experiments import planner, registry  # noqa: F401
    from repro.cache.store import ResultCache
    from repro.service import protocol
    from repro.sim.gpu import GPU

    patcher = Patcher()
    patcher.set(GPU, "__init__", tracer.wrap(
        GPU.__init__, "sim.construct", _record_construct))
    patcher.set(GPU, "run", tracer.wrap(GPU.run, "sim.run", _record_run))
    patcher.set(ResultCache, "get", tracer.wrap(
        ResultCache.get, "cache.get", _record_get))
    patcher.set(ResultCache, "put", tracer.wrap(ResultCache.put,
                                                "cache.put"))
    for original, name in (
        (workloads.get_workload, "workloads.build"),
        (compiler.compile_kernel, "compiler.compile"),
        (cache.simulate_key, "cache.key"),
        (cache.compile_key, "cache.key"),
        (cache.flow_spec_key, "cache.key"),
        (protocol.service_key, "cache.key"),
        (runners.run_flow, "analysis.flow"),
    ):
        patcher.everywhere(original, tracer.wrap(original, name))
    return patcher
