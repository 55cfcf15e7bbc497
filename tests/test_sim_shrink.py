"""GPU-shrink (Section 8.1) corner-case coverage.

Exercises the under-provisioned register file end to end: the
spill → fill round trip with its hysteresis margin, CTA throttling
picking the minimum-balance CTA, and the deadlock guard when the
spill escape hatch is disabled.
"""

import pytest

from repro.arch import GPUConfig
from repro.compiler import compile_kernel
from repro.errors import DeadlockError
from repro.isa import KernelBuilder, Special
from repro.launch import LaunchConfig
from repro.sim import simulate
from repro.sim.core import FILL_HYSTERESIS, SMCore, _Issue
from repro.sim.memory import GlobalMemory
from repro.sim.warp import WarpStatus


def pressure_kernel(num_regs=24):
    """Many live registers held across a long-latency load."""
    b = KernelBuilder("pressure")
    b.s2r(0, Special.TID)
    for reg in range(1, num_regs):
        b.iadd(reg, 0, 0)
    b.ldg(0, addr=0)
    for reg in range(1, num_regs):
        b.iadd(0, 0, reg)
    b.stg(addr=0, value=0)
    b.exit()
    return b.build()


def make_core(kernel, launch, config, mode="redefine", threshold=0):
    core = SMCore(config, kernel, launch, mode=mode, threshold=threshold,
                  gmem=GlobalMemory())
    core.cta_queue = list(range(launch.grid_ctas))
    return core


def drain_regfile(core, leave_free=0):
    """Directly allocate registers until only ``leave_free`` remain."""
    fillers = []
    while core.regfile.free_count > leave_free:
        result = core.regfile.allocate(0, 0)
        assert result is not None
        fillers.append(result[0])
    return fillers


class TestSpillFillRoundTrip:
    def test_fill_waits_for_hysteresis_headroom(self):
        launch = LaunchConfig(1, 64, conc_ctas_per_sm=1)
        core = make_core(pressure_kernel(8), launch, GPUConfig.shrunk(0.125))
        core._launch_ctas(0)
        warp = core.resident[0].warps[0]
        for arch in range(4):
            assert core.renaming.write(warp.slot, arch, 0) is not None

        regs = core.renaming.spill_warp(warp.slot, 0)
        assert regs == (0, 1, 2, 3)
        warp.spilled_regs = regs
        warp.status = WarpStatus.SPILLED

        # One register short of len(regs) + FILL_HYSTERESIS: no fill.
        fillers = drain_regfile(
            core, leave_free=len(regs) + FILL_HYSTERESIS - 1
        )
        core._fill_spilled(0)
        assert core.stats.fill_events == 0
        assert warp.status is WarpStatus.SPILLED

        # Free one more: the hysteresis margin is met and the fill runs.
        core.regfile.free(fillers.pop(), 0)
        core._fill_spilled(0)
        assert core.stats.fill_events == 1
        assert warp.status is WarpStatus.FILLING
        core._process_events(core.config.spill_latency + len(regs) + 1)
        assert warp.status is WarpStatus.ACTIVE
        assert warp.spilled_regs == ()

    def test_round_trip_preserves_functional_results(self):
        """A run forced through spill/fill stores the same words as an
        identical run on a full-size file."""
        kernel = pressure_kernel(num_regs=40)
        launch = LaunchConfig(1, 128, conc_ctas_per_sm=1)

        def stored_words(config):
            compiled = compile_kernel(kernel.clone(), launch, config)
            from repro.sim.gpu import GPU

            gpu = GPU(config, compiled.kernel, launch, mode="flags",
                      threshold=compiled.renaming_threshold)
            result = gpu.run()
            return result.stats, gpu.gmem.image()

        shrunk_stats, shrunk_words = stored_words(GPUConfig.shrunk(0.125))
        _, full_words = stored_words(GPUConfig.renamed())
        assert shrunk_stats.spill_events > 0
        assert shrunk_stats.fill_events > 0
        assert shrunk_stats.spilled_registers > 0
        assert shrunk_words == full_words


class TestThrottle:
    def test_throttle_restricts_to_min_balance_cta(self):
        launch = LaunchConfig(2, 64, conc_ctas_per_sm=2)
        core = make_core(pressure_kernel(8), launch, GPUConfig.shrunk(0.125))
        core._launch_ctas(0)
        assert len(core.resident) == 2
        cta_a, cta_b = core.resident

        # cta_b has almost exhausted its worst-case demand C: its
        # balance C - k is the minimum, so it must get the register.
        core.renaming.cta_assigned[cta_b.uid] = cta_b.required_regs - 1
        core.renaming.cta_allocated[cta_b.uid] = cta_b.required_regs - 1
        drain_regfile(core, leave_free=1)

        assert core._throttle() == cta_b.uid
        assert core.stats.throttle_activations == 1

    def test_activations_count_transitions_not_cycles(self):
        """A sustained restriction is one activation but many
        throttled cycles; a deactivation re-arms the counter."""
        launch = LaunchConfig(2, 64, conc_ctas_per_sm=2)
        core = make_core(pressure_kernel(8), launch, GPUConfig.shrunk(0.125))
        core._launch_ctas(0)
        cta_b = core.resident[1]
        core.renaming.cta_assigned[cta_b.uid] = cta_b.required_regs - 1
        core.renaming.cta_allocated[cta_b.uid] = cta_b.required_regs - 1
        fillers = drain_regfile(core, leave_free=1)

        for _ in range(5):
            assert core._throttle() == cta_b.uid
        assert core.stats.throttle_activations == 1
        assert core.stats.throttle_cycles == 5

        # Headroom returns: the restriction lifts without counting.
        for phys in fillers[:8]:
            core.regfile.free(phys, 0)
        assert core._throttle() is None
        assert core.stats.throttle_activations == 1

        # Pressure resumes: a second transition, cycles keep summing.
        drain_regfile(core, leave_free=1)
        assert core._throttle() == cta_b.uid
        assert core.stats.throttle_activations == 2
        assert core.stats.throttle_cycles == 6

    def test_throttle_inactive_with_headroom(self):
        launch = LaunchConfig(2, 64, conc_ctas_per_sm=2)
        core = make_core(pressure_kernel(8), launch, GPUConfig.shrunk(0.125))
        core._launch_ctas(0)
        assert core._throttle() is None
        assert core.stats.throttle_activations == 0

    def test_forbidden_warp_cannot_allocate(self):
        launch = LaunchConfig(2, 64, conc_ctas_per_sm=2)
        core = make_core(pressure_kernel(8), launch, GPUConfig.shrunk(0.125))
        core._launch_ctas(0)
        warp = core.resident[0].warps[0]
        try_issue = (core._try_issue_uncached if core._decode is None
                     else core._try_issue)
        # First instruction writes r0, which is unmapped: under a
        # throttle restriction the allocation is forbidden outright.
        assert try_issue(warp, 0, forbid_alloc=True) is _Issue.FORBIDDEN
        # Without the restriction the same issue succeeds.
        assert try_issue(warp, 0, forbid_alloc=False) is _Issue.ISSUED


class TestDeadlockGuard:
    def test_deadlock_when_spill_disabled(self):
        kernel = pressure_kernel(num_regs=40)
        # One CTA of 4 warps x 40 regs = 160 > 128 physical registers:
        # without the spill escape hatch no warp can make progress.
        launch = LaunchConfig(1, 128, conc_ctas_per_sm=1)
        config = GPUConfig.shrunk(0.125)
        compiled = compile_kernel(kernel, launch, config)
        with pytest.raises(DeadlockError):
            simulate(compiled.kernel, launch, config, mode="flags",
                     threshold=compiled.renaming_threshold,
                     spill_enabled=False)

    def test_spill_enabled_resolves_same_scenario(self):
        kernel = pressure_kernel(num_regs=40)
        launch = LaunchConfig(1, 128, conc_ctas_per_sm=1)
        config = GPUConfig.shrunk(0.125)
        compiled = compile_kernel(kernel, launch, config)
        result = simulate(compiled.kernel, launch, config, mode="flags",
                          threshold=compiled.renaming_threshold,
                          spill_enabled=True)
        assert result.stats.ctas_completed == 1
        assert result.stats.spill_events > 0
