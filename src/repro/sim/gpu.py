"""Whole-GPU simulation driver.

The paper simulates 16 SMs; every SM runs the same kernel on its share
of the grid, so per-SM behaviour is statistically identical. The
driver therefore simulates one representative SM, SM 0, and gives it
the CTAs a 16-SM GPU would assign it round-robin (ctaid = 0, 16,
32, ...). ``max_ctas_per_sm_sim`` optionally caps the simulated CTAs
per SM; experiments simulate a few waves of CTAs, which is enough for
steady-state behaviour while keeping pure-Python simulation fast.

The core reads and writes :attr:`GPU.gmem` directly, so after
:meth:`GPU.run` it holds every store the kernel made.

:func:`simulate` is the main entry point used by examples, tests and
the benchmark harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch import GPUConfig
from repro.errors import SimulationError
from repro.isa.kernel import Kernel
from repro.launch import LaunchConfig
from repro.sim.core import SMCore
from repro.sim.memory import GlobalMemory
from repro.sim.stats import SimStats


@dataclass
class SimulationResult:
    """Outcome of one kernel launch simulation."""

    stats: SimStats
    config: GPUConfig
    launch: LaunchConfig
    mode: str
    ctas_simulated: int

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def instructions(self) -> int:
        return self.stats.instructions


class GPU:
    """A GPU executing one kernel launch, modelled by its SM 0."""

    def __init__(
        self,
        config: GPUConfig,
        kernel: Kernel,
        launch: LaunchConfig,
        mode: str = "baseline",
        threshold: int = 0,
        max_ctas_per_sm_sim: int | None = None,
        sample_interval: int = 0,
        trace_warp_slots: tuple[int, ...] = (),
        spill_enabled: bool = True,
    ):
        if max_ctas_per_sm_sim is not None and max_ctas_per_sm_sim < 1:
            raise SimulationError("max_ctas_per_sm_sim must be >= 1")
        self.config = config
        self.launch = launch
        self.mode = mode
        self.gmem = GlobalMemory()
        self.core = SMCore(
            config,
            kernel,
            launch,
            mode=mode,
            threshold=threshold,
            gmem=self.gmem,
            sample_interval=sample_interval,
            trace_warp_slots=trace_warp_slots,
            spill_enabled=spill_enabled,
        )
        per_sm = math.ceil(launch.grid_ctas / config.num_sms)
        if max_ctas_per_sm_sim is not None:
            per_sm = min(per_sm, max_ctas_per_sm_sim)
        self.core.cta_queue = list(
            range(0, per_sm * config.num_sms, config.num_sms)
        )
        self.ctas_simulated = per_sm

    def run(self, max_cycles: int = 50_000_000) -> SimulationResult:
        """Simulate the SM's CTAs to completion."""
        return SimulationResult(
            stats=self.core.run(max_cycles=max_cycles),
            config=self.config,
            launch=self.launch,
            mode=self.mode,
            ctas_simulated=self.ctas_simulated,
        )


def simulate(
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
) -> SimulationResult:
    """Simulate one kernel launch and return its statistics.

    ``mode`` selects register management: ``baseline`` (conventional,
    pin-per-CTA), ``flags`` (the paper's virtualization; the kernel
    should be compiled with release metadata and ``threshold`` set to
    the compile-time exemption count), or ``redefine`` (hardware-only
    renaming [46]).
    """
    gpu = GPU(
        config or GPUConfig.baseline(),
        kernel,
        launch,
        mode=mode,
        threshold=threshold,
        max_ctas_per_sm_sim=max_ctas_per_sm_sim,
        sample_interval=sample_interval,
        trace_warp_slots=trace_warp_slots,
        spill_enabled=spill_enabled,
    )
    return gpu.run(max_cycles=max_cycles)
