"""GPU driver tests: grid distribution, wave cap, result fields."""

import pytest

from repro.arch import GPUConfig
from repro.errors import SimulationError
from repro.launch import LaunchConfig
from repro.sim.gpu import GPU, simulate


def test_round_robin_cta_distribution(straight_kernel):
    launch = LaunchConfig(40, 32, conc_ctas_per_sm=2)
    gpu = GPU(GPUConfig.baseline(), straight_kernel, launch,
              mode="baseline")
    # 40 CTAs over 16 SMs: SM 0 gets ctaids 0, 16, 32.
    assert gpu.core.cta_queue == [0, 16, 32]
    assert gpu.ctas_simulated == 3


def test_wave_cap_limits_ctas(straight_kernel):
    launch = LaunchConfig(64, 32, conc_ctas_per_sm=2)
    gpu = GPU(GPUConfig.baseline(), straight_kernel, launch,
              mode="baseline", max_ctas_per_sm_sim=2)
    assert len(gpu.core.cta_queue) == 2


@pytest.mark.parametrize("cap", (0, -1))
def test_wave_cap_below_one_rejected(straight_kernel, cap):
    # A run that simulates no CTA would report zero cycles as a result.
    launch = LaunchConfig(64, 32, conc_ctas_per_sm=2)
    with pytest.raises(SimulationError, match="max_ctas_per_sm_sim"):
        GPU(GPUConfig.baseline(), straight_kernel, launch,
            max_ctas_per_sm_sim=cap)


def test_result_fields(straight_kernel):
    launch = LaunchConfig(4, 32, conc_ctas_per_sm=1)
    result = simulate(straight_kernel.clone(), launch, mode="baseline")
    assert result.mode == "baseline"
    assert result.cycles == result.stats.cycles
    assert result.instructions == result.stats.instructions
    assert result.launch is launch


def test_gpu_memory_holds_the_kernels_stores(barrier_kernel):
    launch = LaunchConfig(32, 64, conc_ctas_per_sm=1)
    gpu = GPU(GPUConfig.baseline(), barrier_kernel, launch,
              mode="baseline")
    assert len(gpu.gmem) == 0
    gpu.run()
    # Thread t stores its right neighbour's shared word plus t at 4t;
    # the last thread's neighbour word was never written (reads 0).
    expected = {4 * t: 2 * t + 1 for t in range(63)}
    expected[4 * 63] = 63
    assert gpu.gmem.image() == expected
