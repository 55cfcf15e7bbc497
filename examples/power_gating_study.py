"""Register-file energy study: gating, shrinking, and both (Fig. 12).

For each benchmark the register-file energy is decomposed into
dynamic / static / renaming-table / flag-instruction components under
three designs, normalized to the conventional 128 KB file, and the
sub-array wake-up latency sensitivity (Fig. 11b) is swept.

Run: python examples/power_gating_study.py
"""

from repro.analysis.runners import run_baseline, run_virtualized
from repro.arch import GPUConfig
from repro.power import energy_breakdown
from repro.workloads import get_workload

WORKLOADS = ("matrixmul", "vectoradd", "lib", "heartwall", "backprop")

CONFIGS = (
    ("128KB + gating", GPUConfig.renamed(gating_enabled=True)),
    ("64KB", GPUConfig.shrunk(0.5)),
    ("64KB + gating", GPUConfig.shrunk(0.5, gating_enabled=True)),
)


def main() -> None:
    print(f"{'workload':<12}{'config':<16}{'dyn':>7}{'static':>8}"
          f"{'rename':>8}{'flags':>7}{'total':>8}")
    print("-" * 66)
    totals = {label: [] for label, _ in CONFIGS}
    for name in WORKLOADS:
        workload = get_workload(name)
        base = run_baseline(workload)
        base_energy = energy_breakdown(
            base.stats, base.result.config, renaming_active=False
        )
        for label, config in CONFIGS:
            result = run_virtualized(workload, config=config)
            normalized = energy_breakdown(
                result.stats, config
            ).normalized_to(base_energy)
            totals[label].append(normalized["total"])
            print(f"{name:<12}{label:<16}"
                  f"{normalized['dynamic']:>7.3f}"
                  f"{normalized['static']:>8.3f}"
                  f"{normalized['renaming_table']:>8.3f}"
                  f"{normalized['flag_instruction']:>7.3f}"
                  f"{normalized['total']:>8.3f}")
        print()
    print("averages:")
    for label, values in totals.items():
        mean = sum(values) / len(values)
        print(f"  {label:<16} {mean:.3f} "
              f"({100 * (1 - mean):.0f}% energy saved)")

    print("\n== Fig. 8: mid-execution sub-array occupancy ==")
    _fig8_snapshot()

    print("\n== wake-up latency sensitivity (Fig. 11b) ==")
    workload = get_workload("matrixmul")
    plain = run_virtualized(
        workload, config=GPUConfig.renamed()
    ).result.cycles
    for latency in (1, 3, 10):
        config = GPUConfig.renamed(
            gating_enabled=True, wakeup_latency_cycles=latency
        )
        gated = run_virtualized(workload, config=config)
        ratio = gated.result.cycles / plain
        print(f"  wake-up {latency:>2} cycles: normalized cycles "
              f"{ratio:.4f}, {gated.stats.subarray_wakeups} wake-ups")


def _fig8_snapshot() -> None:
    """Pause matrixmul mid-flight and print the Fig. 8 grid: with
    consolidation, live registers pack into the low sub-arrays and the
    rest stay dark."""
    from repro.compiler import compile_kernel
    from repro.sim.core import SMCore

    workload = get_workload("matrixmul")
    config = GPUConfig.renamed(gating_enabled=True)
    compiled = compile_kernel(workload.kernel, workload.launch, config)
    core = SMCore(config, compiled.kernel, workload.launch, mode="flags",
                  threshold=compiled.renaming_threshold)
    core.cta_queue = list(range(workload.table1.conc_ctas_per_sm))
    for _ in range(2000):
        if core.done():
            break
        core.tick()
    print("        " + "  ".join(
        f"bank{b}" for b in range(config.num_banks)
    ))
    occupancy = core.regfile.occupancy_map()
    for sub in range(config.subarrays_per_bank):
        cells = []
        for bank in range(config.num_banks):
            occupied, powered = occupancy[bank][sub]
            state = f"{occupied:3d}" if powered else "off"
            cells.append(f"[{state}]")
        print(f"sub{sub}   " + "  ".join(cells))
    print("(occupied registers per powered sub-array; 'off' = gated)")


if __name__ == "__main__":
    main()
