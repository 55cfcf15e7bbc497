"""Fig. 8: sub-array occupancy with and without renaming.

Fig. 8 illustrates the gating use case: without renaming, the pinned
architected allocation spreads across every sub-array of every bank,
so nothing can be gated; with renaming plus the consolidation
allocation policy, the (fewer) live registers pack into the lowest
sub-arrays and whole sub-arrays can be shut down with one sleep
transistor.

This experiment regenerates the figure as data: it pauses a benchmark
mid-execution under both designs and prints the per-(bank, sub-array)
occupied-register grid plus the number of sub-arrays that must be
powered.
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.arch import GPUConfig
from repro.compiler import compile_kernel
from repro.experiments.base import ExperimentResult
from repro.sim.core import SMCore
from repro.workloads.suite import get_workload

EXPERIMENT = "fig08"
SNAPSHOT_CYCLES = 2000


def _snapshot(workload, config: GPUConfig, mode: str, threshold: int = 0):
    core = SMCore(config, workload.kernel, workload.launch, mode=mode,
                  threshold=threshold)
    core.cta_queue = list(range(workload.table1.conc_ctas_per_sm))
    # Stop at a simulated cycle, not a tick count: one tick may skip
    # ahead many cycles, and a skipped span changes no register state.
    while core.cycle < SNAPSHOT_CYCLES and not core.done():
        core.tick()
    occupancy = core.regfile.occupancy_map()
    powered = sum(
        1 for bank in occupancy for occupied, _ in bank if occupied
    )
    return occupancy, powered, core.regfile.live_count


def run(
    scale: float = 1.0,
    workload: str = "matrixmul",
    **_ignored,
) -> ExperimentResult:
    bench = get_workload(workload, scale=scale)
    config = GPUConfig.renamed(gating_enabled=True)

    baseline_bench = get_workload(workload, scale=scale)
    base_occ, base_powered, base_live = _snapshot(
        baseline_bench, GPUConfig.baseline(gating_enabled=True),
        mode="baseline",
    )
    compiled = compile_kernel(bench.kernel, bench.launch, config)
    bench = type(bench)(
        name=bench.name, kernel=compiled.kernel, launch=bench.launch,
        table1=bench.table1,
    )
    ren_occ, ren_powered, ren_live = _snapshot(
        bench, config, mode="flags",
        threshold=compiled.renaming_threshold,
    )

    table = Table(
        title=f"Fig. 8: occupied registers per (bank, sub-array) "
        f"({workload}, cycle {SNAPSHOT_CYCLES})",
        headers=["Design", "Subarray"] + [
            f"Bank{bank}" for bank in range(config.num_banks)
        ],
    )
    for design, occupancy in (
        ("w/o renaming", base_occ), ("w/ renaming", ren_occ),
    ):
        for sub in range(len(occupancy[0])):
            table.add_row(
                design, sub,
                *(occupancy[bank][sub][0]
                  for bank in range(config.num_banks)),
            )
    table.add_note(
        "a sub-array with zero occupied registers can be power gated "
        "(one sleep transistor per sub-array)."
    )
    return ExperimentResult(
        experiment=EXPERIMENT,
        title="Sub-array consolidation for power gating (Fig. 8)",
        table=table,
        paper_claim="Without renaming the allocation occupies every "
        "sub-array; with renaming the live registers consolidate into "
        "few sub-arrays per bank and the unused ones shut down.",
        measured_summary=(
            f"powered sub-arrays: {base_powered}/16 without renaming "
            f"({base_live} regs) vs {ren_powered}/16 with renaming "
            f"({ren_live} live)."
        ),
    )
