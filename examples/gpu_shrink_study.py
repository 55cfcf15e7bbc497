"""GPU-shrink study: how small can the physical register file get?

Sweeps the physical register file from 100 % down to 37.5 % of the
architected size on a mix of benchmarks and reports the execution-cycle
overhead of GPU-shrink versus (a) the full-size baseline and (b) the
naive approach of recompiling with register spills (Fig. 11a extended
with the paper's GPU-shrink-40 % / -30 % data points).

Run: python examples/gpu_shrink_study.py
"""

from repro.analysis.runners import (
    run_baseline,
    run_compiler_spill_baseline,
    run_virtualized,
)
from repro.arch import GPUConfig
from repro.workloads import get_workload

WORKLOADS = ("matrixmul", "hotspot", "heartwall", "mum", "vectoradd")
FRACTIONS = (1.0, 0.7, 0.6, 0.5, 0.375)


def main() -> None:
    header = f"{'workload':<12}" + "".join(
        f"  shrink-{int(100 * (1 - f))}%" for f in FRACTIONS
    ) + "   compiler-spill-50%"
    print(header)
    print("-" * len(header))

    for name in WORKLOADS:
        workload = get_workload(name)
        base = run_baseline(workload)
        cells = [f"{name:<12}"]
        for fraction in FRACTIONS:
            config = GPUConfig.shrunk(fraction)
            result = run_virtualized(workload, config=config)
            overhead = 100 * (
                result.result.cycles / base.result.cycles - 1
            )
            throttled = result.stats.throttle_cycles
            marker = "*" if throttled else " "
            cells.append(f"{overhead:+9.2f}%{marker}")
        spill = run_compiler_spill_baseline(workload)
        spill_overhead = 100 * (
            spill.simulation.stats.cycles / base.result.cycles - 1
        )
        suffix = "(spilled)" if spill.spilled else "(fits)   "
        cells.append(f"      {spill_overhead:+9.2f}% {suffix}")
        print("".join(cells))

    print("\n* = CTA throttling engaged (Section 8.1)")
    print("GPU-shrink keeps the full architected register space visible "
          "to the compiler;\nthe compiler-spill column is the naive "
          "halved file that forces recompilation.")


if __name__ == "__main__":
    main()
