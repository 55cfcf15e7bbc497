"""MatrixMul deep dive: the paper's Section 4 analysis, reproduced.

Traces individual register lifetimes of the matrixMul benchmark
(Fig. 2a: whole-kernel r1, loop-pulsed r0, short-lived r3), shows the
cross-warp scheduling skew that enables physical register sharing
(Fig. 2b), and samples the live-register fraction (Fig. 1a).

Run: python examples/matrixmul_virtualization.py
"""

from repro.analysis.lifetime_trace import register_lifetime_intervals
from repro.analysis.liveness_trace import live_register_series
from repro.analysis.runners import run_baseline, run_virtualized
from repro.workloads import get_workload


def ascii_timeline(intervals, end_cycle, width=72) -> str:
    """Render liveness intervals as a #/- strip."""
    strip = ["-"] * width
    for start, end in intervals:
        a = int(start / max(1, end_cycle) * (width - 1))
        b = int(end / max(1, end_cycle) * (width - 1))
        for index in range(a, b + 1):
            strip[index] = "#"
    return "".join(strip)


def main() -> None:
    workload = get_workload("matrixmul")

    print("== Fig. 2a: per-register lifetimes of warp 0 ==")
    trace = register_lifetime_intervals(workload, warps=(0, 1))
    regs = sorted({reg for (slot, reg) in trace.intervals if slot == 0})
    for reg in regs:
        intervals = trace.intervals_of(reg, warp=0)
        fraction = 100 * trace.live_fraction(reg, warp=0)
        print(f"r{reg:<3} {ascii_timeline(intervals, trace.end_cycle)} "
              f"{fraction:5.1f}% live, {len(intervals)} pulse(s)")

    print("\n== Fig. 2b: scheduling skew between warps 0 and 1 ==")
    short_lived = min(
        regs, key=lambda reg: trace.live_fraction(reg, warp=0)
    )
    for warp in (0, 1):
        intervals = trace.intervals_of(short_lived, warp=warp)[:3]
        print(f"warp {warp} r{short_lived} first lifetimes: {intervals}")
    print("different time slots -> one physical register can serve "
          "both warps")

    print("\n== Fig. 1a: live-register fraction over time ==")
    series = live_register_series(workload, interval=100)
    for cycle, fraction in series.fractions()[:25]:
        bar = "#" * int(fraction * 50)
        print(f"cycle {cycle:>6}: {bar} {100 * fraction:.0f}%")
    print(f"mean live fraction: {100 * series.mean_fraction:.1f}%")

    print("\n== Fig. 10: allocation reduction ==")
    base = run_baseline(workload)
    ours = run_virtualized(workload)
    allocated = ours.stats.max_architected_allocated
    touched = ours.stats.physical_registers_touched
    print(f"architected registers reserved : {allocated}")
    print(f"physical registers touched     : {touched}")
    print(f"reduction                      : "
          f"{100 * (1 - touched / allocated):.1f}%")
    print(f"performance delta              : "
          f"{100 * (ours.result.cycles / base.result.cycles - 1):+.2f}%")


if __name__ == "__main__":
    main()
