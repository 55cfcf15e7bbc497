"""Related-work comparison: RFC, hardware-only renaming, and this paper.

Runs the three register-efficiency approaches the paper discusses on
the same benchmarks and prints a side-by-side:

* **Register file cache** (Gebhart et al. [20]) — attacks *dynamic*
  operand energy; the main file keeps its size.
* **Hardware-only renaming** (Tarjan/Skadron [46]) — dynamic
  allocation, release only on redefinition: frees some capacity, late.
* **Register virtualization + GPU-shrink** (this paper) —
  compiler-directed release frees capacity early enough to halve the
  physical file and gate the rest.

Run: python examples/related_work_comparison.py
"""

from repro.analysis.runners import (
    run_baseline,
    run_hardware_only_baseline,
    run_virtualized,
)
from repro.arch import GPUConfig
from repro.power import energy_breakdown
from repro.workloads import get_workload

WORKLOADS = ("matrixmul", "blackscholes", "reduction", "heartwall")


def main() -> None:
    print(f"{'workload':<12}{'design':<22}{'peak regs':>10}"
          f"{'MRF accesses':>14}{'energy':>8}")
    print("-" * 66)
    for name in WORKLOADS:
        workload = get_workload(name)
        base = run_baseline(workload)
        base_energy = energy_breakdown(
            base.stats, base.result.config, renaming_active=False
        ).total

        def show(design, stats, config, renaming_active):
            energy = energy_breakdown(
                stats, config, renaming_active=renaming_active
            ).total
            print(f"{name:<12}{design:<22}"
                  f"{stats.max_live_registers:>10}"
                  f"{stats.rf_reads + stats.rf_writes:>14}"
                  f"{energy / base_energy:>8.3f}")

        show("baseline", base.stats, base.result.config, False)

        rfc_config = GPUConfig.baseline(rfc_entries_per_warp=6)
        rfc = run_baseline(workload, config=rfc_config)
        show("RFC-6 [20]", rfc.stats, rfc_config, False)

        gated = GPUConfig.renamed(gating_enabled=True)
        hw_only = run_hardware_only_baseline(workload, config=gated)
        show("hw-only renaming [46]", hw_only.stats, gated, False)

        shrunk = GPUConfig.shrunk(0.5, gating_enabled=True)
        ours = run_virtualized(workload, config=shrunk)
        show("GPU-shrink+PG (paper)", ours.stats, shrunk, True)
        print()

    print("energy = total register-file energy normalized to baseline.")
    print("The RFC trims operand energy; hardware-only renaming frees "
          "capacity late;\ncompiler-directed release frees it early "
          "enough to halve and gate the file.")


if __name__ == "__main__":
    main()
